// Package invbus implements an asynchronous, batching invalidation bus
// between CacheGenie's database triggers and the cache.
//
// The paper measures (§5.3) that the dominant trigger cost is the
// trigger→cache hop: opening a connection from a trigger roughly doubles
// INSERT latency, and every cache operation costs a full network round trip
// serialized into the write path. The bus takes that hop off the write path
// and pipelines it: triggers Publish typed ops (delete / set / incr /
// CAS-update descriptors) and return immediately; per-shard worker
// goroutines coalesce pending ops and flush each run of typed ops through
// the cache's batch entry point (kvcache.Cache.ApplyBatch) — one exchange per
// run instead of one per op.
//
// Ordering. Ops are routed to a worker by key hash, so ops on the same key
// are applied in exactly the order they were published (per-key FIFO).
// Cross-key ordering is not preserved — the same freedom a consistent-hash
// cluster already introduces.
//
// Consistency. The cache lags the database by a bounded staleness window
// (roughly BatchWindow plus queueing delay). Readers that need the paper's
// read-your-triggered-writes behaviour drain explicitly with Flush — or do
// without the bus: core's default synchronous write-set flush is the
// paper's configuration.
package invbus

import (
	"sync"
	"sync/atomic"
	"time"

	"cachegenie/internal/kvcache"
	"cachegenie/internal/obs"
)

// OpKind discriminates bus operations.
type OpKind int

// Bus operations. The first three are typed mutations that batch and
// coalesce; OpCasUpdate is a read-modify-write descriptor executed on the
// shard worker between batched segments.
const (
	OpDelete OpKind = iota
	OpSet
	OpIncr
	OpCasUpdate
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpDelete:
		return "delete"
	case OpSet:
		return "set"
	case OpIncr:
		return "incr"
	case OpCasUpdate:
		return "cas-update"
	}
	return "unknown"
}

// Result reports an op's outcome to its Done callback.
type Result struct {
	// Found is true when a delete removed a live entry or an incr found a
	// numeric entry; sets and executed CAS updates report true. An op
	// coalesced away before flushing reports what a late synchronous call
	// would have seen: false for deletes and incrs, true for sets. Note the
	// OpCasUpdate corner of that contract: a CAS update superseded by a
	// later Delete or Set on the same key is never executed, and its Done
	// reports Found:false — "your read-modify-write did not run (and did not
	// need to; its output was dead on arrival)", not an error.
	Found bool
	// Value is the post-increment value for OpIncr.
	Value int64
}

// Op is one unit of cache maintenance published to the bus.
type Op struct {
	Kind OpKind
	// Key routes the op to its shard; ops on the same key apply in publish
	// order. Required for every kind.
	Key   string
	Value []byte        // OpSet payload
	TTL   time.Duration // OpSet entry lifetime
	Delta int64         // OpIncr increment (may be negative)
	// Update is the CAS-update descriptor for OpCasUpdate: an arbitrary
	// read-modify-write against Key, run on the shard worker so it
	// serializes with every other op on the same key. The contract is that
	// it touches only Key.
	Update func(c kvcache.Cache)
	// Done, if non-nil, receives the op's outcome after it is applied (or
	// coalesced away). It runs on the shard worker; keep it cheap.
	Done func(Result)
}

// Config assembles a Bus. The zero value of every field is usable.
type Config struct {
	// Cache is the downstream cache ops are applied to. Required.
	Cache kvcache.Cache
	// Shards is the number of key-hash-sharded worker queues (default 4).
	Shards int
	// QueueDepth bounds each shard's queue; Publish blocks while its shard
	// is full (backpressure). Default 1024.
	QueueDepth int
	// BatchWindow is how long a worker waits after an op arrives for more
	// ops to coalesce before flushing. 0 picks the 1ms default; negative
	// disables waiting (the worker drains whatever is already queued and
	// flushes immediately).
	BatchWindow time.Duration
	// MaxBatch caps ops per flush (default 256).
	MaxBatch int
}

// Stats counts bus activity. Snapshot via Bus.Stats.
type Stats struct {
	Enqueued  int64         // ops published
	Applied   int64         // ops applied to the cache (post-coalescing)
	Coalesced int64         // ops superseded or merged before flushing
	Flushes   int64         // batches flushed
	MaxBatch  int64         // largest single flush (ops, pre-coalescing)
	MaxLag    time.Duration // worst observed publish→apply delay
	// QueueFullStalls counts Publish calls that found their shard queue full
	// and had to block — the backpressure that MaxLag alone cannot show
	// (a saturated bus can keep lag bounded precisely by stalling writers).
	QueueFullStalls int64
	// StallTime is the cumulative wall time Publish callers spent blocked on
	// full shard queues.
	StallTime time.Duration
}

// pendingOp is an Op in a shard queue; flushCh non-nil marks a drain
// barrier published by Flush.
type pendingOp struct {
	Op
	enq     time.Time
	flushCh chan struct{}
}

type shard struct {
	ch chan pendingOp
}

// Bus is the invalidation bus. All methods are safe for concurrent use.
type Bus struct {
	cfg    Config
	shards []*shard
	wg     sync.WaitGroup

	// mu serializes Publish/Flush against Close (channel lifecycle).
	mu     sync.RWMutex
	closed bool

	enqueued        atomic.Int64
	applied         atomic.Int64
	coalesced       atomic.Int64
	flushes         atomic.Int64
	maxBatch        atomic.Int64
	maxLag          atomic.Int64
	queueFullStalls atomic.Int64
	stallNanos      atomic.Int64

	// Always-on distribution instrumentation (see RegisterMetrics): flush
	// batch sizes (pre-coalescing, the batching-efficiency signal) and
	// Publish stall times on full shard queues (the backpressure signal).
	flushSize obs.Histogram
	stallTime obs.Histogram
}

// New creates a Bus and starts its shard workers.
func New(cfg Config) *Bus {
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	if cfg.BatchWindow == 0 {
		cfg.BatchWindow = time.Millisecond
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 256
	}
	b := &Bus{cfg: cfg}
	for i := 0; i < cfg.Shards; i++ {
		s := &shard{ch: make(chan pendingOp, cfg.QueueDepth)}
		b.shards = append(b.shards, s)
		b.wg.Add(1)
		go b.worker(s)
	}
	return b
}

func (b *Bus) shardFor(key string) *shard {
	// Inline FNV-1a: hash.Hash32 would heap-allocate on every Publish.
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return b.shards[int(h)%len(b.shards)]
}

// Publish hands an op to the bus. It returns as soon as the op is queued,
// blocking only when the op's shard queue is full (backpressure). After
// Close — so maintenance is never silently dropped — the op is applied
// inline before returning.
func (b *Bus) Publish(op Op) {
	b.enqueued.Add(1)
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		// Let the workers finish draining first: applying inline while an
		// older op for the same key is still queued would break per-key
		// FIFO. After Close's drain this returns immediately.
		b.wg.Wait()
		b.applyInline(op)
		return
	}
	s := b.shardFor(op.Key)
	p := pendingOp{Op: op, enq: time.Now()}
	select {
	case s.ch <- p:
	default:
		// Shard queue full: block (backpressure) and account for the stall
		// so saturation is visible beyond MaxLag.
		b.queueFullStalls.Add(1)
		start := time.Now()
		s.ch <- p
		stalled := int64(time.Since(start))
		b.stallNanos.Add(stalled)
		b.stallTime.Observe(stalled)
	}
	b.mu.RUnlock()
}

// applyInline applies one op on the caller's goroutine, as a flush of one.
func (b *Bus) applyInline(op Op) {
	b.apply([]pendingOp{{Op: op, enq: time.Now()}})
	b.flushes.Add(1)
	storeMax(&b.maxBatch, 1)
	b.flushSize.Observe(1)
}

// storeMax lifts v into the atomic if it exceeds the current value.
func storeMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Flush blocks until every op published before the call has been applied.
func (b *Bus) Flush() {
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		b.wg.Wait() // a concurrent Close is draining; its drain is our drain
		return
	}
	chs := make([]chan struct{}, len(b.shards))
	for i, s := range b.shards {
		chs[i] = make(chan struct{})
		s.ch <- pendingOp{flushCh: chs[i]}
	}
	b.mu.RUnlock()
	for _, ch := range chs {
		<-ch
	}
}

// Close drains every queue, applies what was pending, and stops the
// workers. Ops published after Close apply synchronously.
func (b *Bus) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	for _, s := range b.shards {
		close(s.ch)
	}
	b.mu.Unlock()
	b.wg.Wait()
}

// Stats returns a snapshot of counters.
func (b *Bus) Stats() Stats {
	return Stats{
		Enqueued:        b.enqueued.Load(),
		Applied:         b.applied.Load(),
		Coalesced:       b.coalesced.Load(),
		Flushes:         b.flushes.Load(),
		MaxBatch:        b.maxBatch.Load(),
		MaxLag:          time.Duration(b.maxLag.Load()),
		QueueFullStalls: b.queueFullStalls.Load(),
		StallTime:       time.Duration(b.stallNanos.Load()),
	}
}

// worker owns one shard queue: it blocks for the first op, collects more
// until the batch window closes (or MaxBatch, or a drain barrier), then
// flushes the batch downstream.
func (b *Bus) worker(s *shard) {
	defer b.wg.Done()
	for {
		p, ok := <-s.ch
		if !ok {
			return
		}
		if p.flushCh != nil {
			close(p.flushCh)
			continue
		}
		batch := []pendingOp{p}
		var timer *time.Timer
		var timeout <-chan time.Time
		if b.cfg.BatchWindow > 0 {
			timer = time.NewTimer(b.cfg.BatchWindow)
			timeout = timer.C
		}
		var barriers []chan struct{}
		chClosed := false
	collect:
		for len(batch) < b.cfg.MaxBatch {
			if timeout == nil {
				// Greedy mode: take only what is already queued.
				select {
				case q, ok := <-s.ch:
					if !ok {
						chClosed = true
						break collect
					}
					if q.flushCh != nil {
						barriers = append(barriers, q.flushCh)
						break collect
					}
					batch = append(batch, q)
				default:
					break collect
				}
			} else {
				select {
				case q, ok := <-s.ch:
					if !ok {
						chClosed = true
						break collect
					}
					if q.flushCh != nil {
						barriers = append(barriers, q.flushCh)
						break collect
					}
					batch = append(batch, q)
				case <-timeout:
					break collect
				}
			}
		}
		if timer != nil {
			timer.Stop()
		}
		b.flushBatch(batch)
		for _, ch := range barriers {
			close(ch)
		}
		if chClosed {
			return
		}
	}
}

// flushBatch coalesces and applies.
func (b *Bus) flushBatch(batch []pendingOp) {
	if len(batch) == 0 {
		return
	}
	storeMax(&b.maxBatch, int64(len(batch)))
	b.flushSize.Observe(int64(len(batch)))
	batch = b.coalesce(batch)
	b.apply(batch)
	b.flushes.Add(1)
}

// coalesce rewrites a batch into an equivalent smaller one. Per-key
// equivalence rules (cross-key order is already unspecified):
//
//   - a later Delete or Set makes the key's final state independent of every
//     earlier pending op on that key, so those earlier ops are dropped;
//   - adjacent-per-key Incrs merge by summing deltas;
//   - OpCasUpdate reads current state, so it supersedes nothing (but can
//     itself be superseded by a later Delete/Set).
//
// Dropped ops get their Done callback immediately with the outcome a late
// synchronous call would have observed.
func (b *Bus) coalesce(batch []pendingOp) []pendingOp {
	if len(batch) < 2 {
		return batch
	}
	out := batch[:0:len(batch)]
	byKey := make(map[string][]int, len(batch)) // key -> indices into out
	dropped := 0
	for _, p := range batch {
		switch p.Kind {
		case OpDelete, OpSet:
			for _, i := range byKey[p.Key] {
				if d := out[i].Done; d != nil {
					d(Result{Found: out[i].Kind == OpSet})
				}
				out[i].Kind = opDropped
				dropped++
			}
			byKey[p.Key] = byKey[p.Key][:0]
		case OpIncr:
			if idxs := byKey[p.Key]; len(idxs) > 0 {
				last := &out[idxs[len(idxs)-1]]
				if last.Kind == OpIncr {
					last.Delta += p.Delta
					if prev := last.Done; prev != nil || p.Done != nil {
						pd := p.Done
						last.Done = func(r Result) {
							if prev != nil {
								prev(r)
							}
							if pd != nil {
								pd(r)
							}
						}
					}
					dropped++
					continue
				}
			}
		}
		byKey[p.Key] = append(byKey[p.Key], len(out))
		out = append(out, p)
	}
	if dropped == 0 {
		return out
	}
	b.coalesced.Add(int64(dropped))
	compact := out[:0]
	for _, p := range out {
		if p.Kind != opDropped {
			compact = append(compact, p)
		}
	}
	return compact
}

// opDropped marks a coalesced-away slot; never published.
const opDropped OpKind = -1

// apply runs a coalesced batch against the cache in order: consecutive
// typed ops go through the batch entry point as one segment, CAS-update
// descriptors execute individually between segments, so total shard order
// (and therefore per-key order) is preserved.
func (b *Bus) apply(batch []pendingOp) {
	c := b.cfg.Cache
	now := time.Now()
	for i := 0; i < len(batch); {
		if batch[i].Kind == OpCasUpdate {
			if batch[i].Update != nil {
				batch[i].Update(c)
			}
			if d := batch[i].Done; d != nil {
				d(Result{Found: true})
			}
			i++
			continue
		}
		j := i
		for j < len(batch) && batch[j].Kind != OpCasUpdate {
			j++
		}
		ops := make([]kvcache.BatchOp, j-i)
		for k := i; k < j; k++ {
			ops[k-i] = toBatchOp(batch[k].Op)
		}
		res := c.ApplyBatch(ops)
		for k := i; k < j; k++ {
			if d := batch[k].Done; d != nil {
				d(Result{Found: res[k-i].Found, Value: res[k-i].Value})
			}
		}
		i = j
	}
	b.applied.Add(int64(len(batch)))
	var worst time.Duration
	for _, p := range batch {
		if lag := now.Sub(p.enq); lag > worst {
			worst = lag
		}
	}
	storeMax(&b.maxLag, int64(worst))
}

func toBatchOp(op Op) kvcache.BatchOp {
	switch op.Kind {
	case OpSet:
		return kvcache.BatchOp{Kind: kvcache.BatchSet, Key: op.Key, Value: op.Value, TTL: op.TTL}
	case OpIncr:
		return kvcache.BatchOp{Kind: kvcache.BatchIncr, Key: op.Key, Delta: op.Delta}
	default:
		return kvcache.BatchOp{Kind: kvcache.BatchDelete, Key: op.Key}
	}
}
