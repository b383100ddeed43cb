package cacheproto

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cachegenie/internal/kvcache"
)

// DefaultPoolIdle is the idle-connection bound a Pool uses when none is
// given: enough for the workload driver's default client counts to run
// without serializing, small enough that an idle stack holds only a handful
// of sockets per node.
const DefaultPoolIdle = 8

// DefaultPoolMaxConns is the default total-connection cap (idle plus checked
// out plus in-flight dials). Before the cap, a burst of concurrent checkouts
// against an empty pool would each dial — a cold or recovering node could see
// an unbounded connection storm; the cap makes excess checkouts wait for a
// returned connection instead.
const DefaultPoolMaxConns = 4 * DefaultPoolIdle

// DefaultFailThreshold is how many consecutive operation failures trip the
// circuit breaker.
const DefaultFailThreshold = 3

// DefaultProbeInterval is how often a tripped pool probes the server in the
// background to decide whether to close the breaker again.
const DefaultProbeInterval = 250 * time.Millisecond

// BreakerState is the pool's health state.
type BreakerState int32

// Breaker states, the classic three-state machine.
const (
	// BreakerClosed: healthy, operations flow normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the node is considered dead; operations fail fast as
	// misses without touching the network, and a background probe runs every
	// ProbeInterval.
	BreakerOpen
	// BreakerHalfOpen: a probe is in flight; operations still fail fast
	// until it succeeds.
	BreakerHalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// PoolConfig assembles a Pool. The zero value of every field except Addr is
// usable.
type PoolConfig struct {
	// Addr is the cache server address. Required.
	Addr string
	// MaxIdle bounds parked connections (<= 0 picks DefaultPoolIdle).
	MaxIdle int
	// MaxConns caps total connections — idle, checked out, and dialing
	// (<= 0 picks DefaultPoolMaxConns; raised to MaxIdle if below it).
	// Checkouts beyond the cap wait for a returned connection.
	MaxConns int
	// FailThreshold is how many consecutive operation failures trip the
	// circuit breaker (<= 0 picks DefaultFailThreshold). Any successful
	// operation resets the count.
	FailThreshold int
	// ProbeInterval is the background probe cadence while the breaker is
	// open (<= 0 picks DefaultProbeInterval).
	ProbeInterval time.Duration
	// OpTimeout, when positive, bounds every dial and every round trip on
	// pooled connections with a connection deadline. A node that accepts but
	// never answers then times out, releasing its checkout slot and feeding
	// the breaker, instead of holding the slot forever (the breaker only
	// sees completed failures). 0 disables deadlines.
	OpTimeout time.Duration
	// DisableBreaker keeps the pre-breaker behaviour: every operation
	// against a dead node attempts a fresh dial. Used as the Experiment 8
	// baseline; production callers should leave it false.
	DisableBreaker bool
	// L1Entries, when positive, puts a near-cache of that many entries in
	// front of the pool: Get serves lease-live local entries without a
	// network round trip, every write-shaped operation through the pool
	// invalidates its key locally (which is how invalidation-bus fan-out
	// flushes reach it), and entries self-expire after L1TTL so an
	// invalidation this client never saw still cannot produce a read
	// staler than the lease. Sized for a few thousand entries — it exists
	// to absorb hot-key read storms, not to mirror the node.
	L1Entries int
	// L1TTL is the near-cache entry lease (<= 0 picks DefaultL1TTL, which
	// matches the invalidation bus's default BatchWindow). Deployments
	// that raise the bus BatchWindow should raise L1TTL with it — the
	// stack wires the two together — but never above the staleness the
	// tier is willing to serve.
	L1TTL time.Duration
}

// Pool is a connection-pooled cacheproto client for one cache server. It
// implements kvcache.Cache like Client, but where a single Client serializes
// every operation on one TCP connection, a Pool checks a connection out per
// operation — concurrent callers (workload clients, trigger firings, parallel
// ring fan-out, invalidation-bus workers) proceed on separate connections and
// only contend on the checkout mutex.
//
// Connections are created lazily, one Dial per checkout miss, at most
// MaxConns in existence at once (excess checkouts wait for a return), and at
// most MaxIdle of them are parked for reuse when returned; extras are
// closed. A connection that sees any error mid-operation is discarded
// instead of being returned, so one broken socket never poisons later
// operations.
//
// Health. The pool tracks consecutive operation failures; at FailThreshold
// the circuit breaker trips and subsequent operations fail fast as misses —
// no dial, no network — so a dead node costs nanoseconds per op instead of a
// dial timeout. While open, a background goroutine probes the server every
// ProbeInterval (half-open state); one successful round trip closes the
// breaker and the probe's connection is parked for reuse.
//
// Batches still pipeline: ApplyBatch checks out one connection and runs the
// whole mop exchange on it, so a write-set flush costs a single round trip
// regardless of pool size.
type Pool struct {
	cfg PoolConfig
	m   *PoolMetrics // always-on; see PoolMetrics
	l1  *l1cache     // near-cache, nil unless PoolConfig.L1Entries > 0

	// mu guards checkout state only; dials and round trips happen with it
	// released (cond.Wait releases it too). lockscope-enforced.
	//
	//genie:nonblocking
	mu      sync.Mutex
	cond    *sync.Cond // signalled when a connection returns or the pool state changes
	idle    []*Client
	total   int // connections in existence: idle + checked out + dialing
	closed  bool
	fails   int          // consecutive operation failures (guarded by mu)
	state   BreakerState // guarded by mu
	probing bool         // a probe goroutine is running (guarded by mu)
	closeCh chan struct{}

	dials     atomic.Int64
	dialFails atomic.Int64
	reuses    atomic.Int64
	discards  atomic.Int64
	failFast  atomic.Int64
	trips     atomic.Int64
	waits     atomic.Int64
	probes    atomic.Int64
}

var _ kvcache.Cache = (*Pool)(nil)

// NewPool creates a pool of connections to the cache server at addr with
// default health checking. maxIdle bounds parked connections (<= 0 picks
// DefaultPoolIdle). No connection is opened until the first operation needs
// one.
func NewPool(addr string, maxIdle int) *Pool {
	return NewPoolWithConfig(PoolConfig{Addr: addr, MaxIdle: maxIdle})
}

// NewPoolWithConfig creates a pool with explicit health and sizing knobs.
func NewPoolWithConfig(cfg PoolConfig) *Pool {
	if cfg.MaxIdle <= 0 {
		cfg.MaxIdle = DefaultPoolIdle
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = DefaultPoolMaxConns
	}
	if cfg.MaxConns < cfg.MaxIdle {
		cfg.MaxConns = cfg.MaxIdle
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = DefaultFailThreshold
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = DefaultProbeInterval
	}
	p := &Pool{cfg: cfg, m: &PoolMetrics{}, closeCh: make(chan struct{})}
	if cfg.L1Entries > 0 {
		p.l1 = newL1(cfg.L1Entries, cfg.L1TTL)
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Addr returns the server address this pool connects to.
func (p *Pool) Addr() string { return p.cfg.Addr }

// State returns the breaker's current state.
func (p *Pool) State() BreakerState {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state
}

// Healthy reports whether the breaker is closed — the node is worth
// dialing. It implements cluster.HealthReporter, letting the consistent-
// hash ring route a read around an open breaker *before* paying even the
// fail-fast path, and fail over to the key's next replica instead of
// degrading to a miss.
func (p *Pool) Healthy() bool { return p.State() == BreakerClosed }

// PoolStats counts pool activity.
type PoolStats struct {
	Dials     int64 // connections opened
	DialFails int64 // dial attempts that failed (the dial-storm signal)
	Reuses    int64 // checkouts served from the idle list
	Discards  int64 // connections dropped after an error
	Idle      int   // currently parked connections
	Conns     int   // total connections in existence (idle + checked out)
	Waits     int64 // checkouts that blocked on the MaxConns cap
	FailFast  int64 // operations short-circuited by an open breaker
	Trips     int64 // closed→open breaker transitions
	Probes    int64 // background probe attempts while open
	State     BreakerState
}

// L1Stats returns near-cache counters; all-zero when the L1 is disabled.
func (p *Pool) L1Stats() L1Stats {
	if p.l1 == nil {
		return L1Stats{}
	}
	return p.l1.stats()
}

// Stats returns a snapshot of pool counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	idle, total, state := len(p.idle), p.total, p.state
	p.mu.Unlock()
	return PoolStats{
		Dials:     p.dials.Load(),
		DialFails: p.dialFails.Load(),
		Reuses:    p.reuses.Load(),
		Discards:  p.discards.Load(),
		Idle:      idle,
		Conns:     total,
		Waits:     p.waits.Load(),
		FailFast:  p.failFast.Load(),
		Trips:     p.trips.Load(),
		Probes:    p.probes.Load(),
		State:     state,
	}
}

// Close closes all idle connections and marks the pool closed. In-flight
// operations finish on their checked-out connections (which are then closed
// rather than parked); later operations fail to check out and degrade to
// misses, mirroring Client's behaviour against a dead server. The background
// probe, if running, stops.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	idle := p.idle
	p.idle = nil
	p.total -= len(idle)
	p.closed = true
	close(p.closeCh)
	p.cond.Broadcast()
	p.mu.Unlock()
	var err error
	for _, c := range idle {
		if cerr := c.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

var errBreakerOpen = fmt.Errorf("cacheproto: circuit breaker open")

// get checks a connection out: newest idle one first, else a fresh dial if
// the MaxConns cap allows, else it waits for a returned connection. With the
// breaker open it fails immediately without touching the network.
func (p *Pool) get() (*Client, error) {
	p.mu.Lock()
	waited := false
	for {
		if p.closed {
			p.mu.Unlock()
			return nil, fmt.Errorf("cacheproto: pool for %s is closed", p.cfg.Addr)
		}
		if p.state != BreakerClosed {
			p.mu.Unlock()
			p.failFast.Add(1)
			return nil, errBreakerOpen
		}
		if n := len(p.idle); n > 0 {
			c := p.idle[n-1]
			p.idle = p.idle[:n-1]
			p.mu.Unlock()
			p.reuses.Add(1)
			return c, nil
		}
		if p.total < p.cfg.MaxConns {
			p.total++ // reserve the slot while dialing
			break
		}
		if !waited {
			waited = true
			p.waits.Add(1)
		}
		p.cond.Wait()
	}
	p.mu.Unlock()
	c, err := DialTimeout(p.cfg.Addr, p.cfg.OpTimeout)
	if err != nil {
		p.dialFails.Add(1)
		p.mu.Lock()
		p.total--
		p.recordFailureLocked()
		p.cond.Signal()
		p.mu.Unlock()
		return nil, err
	}
	p.dials.Add(1)
	return c, nil
}

// put returns a connection after an operation. A connection that errored is
// closed and dropped — its protocol stream may be unframed; parking it would
// corrupt the next operation — and the failure counts toward the breaker
// threshold. Healthy connections reset the failure count and park up to
// MaxIdle.
func (p *Pool) put(c *Client, opErr error) {
	if opErr != nil {
		p.discards.Add(1)
		_ = c.conn.Close()
		p.mu.Lock()
		p.total--
		p.recordFailureLocked()
		p.cond.Signal()
		p.mu.Unlock()
		return
	}
	p.mu.Lock()
	p.fails = 0
	if !p.closed && len(p.idle) < p.cfg.MaxIdle {
		p.idle = append(p.idle, c)
		p.cond.Signal()
		p.mu.Unlock()
		return
	}
	p.total--
	p.cond.Signal()
	p.mu.Unlock()
	_ = c.Close()
}

// recordFailureLocked counts one operation failure and trips the breaker at
// the threshold. Caller holds p.mu.
func (p *Pool) recordFailureLocked() {
	if p.cfg.DisableBreaker || p.closed {
		return
	}
	p.fails++
	if p.state != BreakerClosed || p.fails < p.cfg.FailThreshold {
		return
	}
	p.state = BreakerOpen
	p.trips.Add(1)
	// Waiters blocked on the MaxConns cap should fail fast now, not wait for
	// a connection that will never return healthy.
	p.cond.Broadcast()
	// Discard the idle list: parked connections to a node that just failed
	// FailThreshold times in a row are almost certainly dead too, and the
	// probe re-establishes a fresh one on recovery.
	idle := p.idle
	p.idle = nil
	p.total -= len(idle)
	for _, c := range idle {
		_ = c.conn.Close()
	}
	if !p.probing {
		p.probing = true
		go p.probeLoop()
	}
}

// probeLoop runs while the breaker is open: every ProbeInterval it goes
// half-open, attempts one full protocol round trip, and either closes the
// breaker (parking the probe connection) or re-opens and tries again.
func (p *Pool) probeLoop() {
	timer := time.NewTimer(p.cfg.ProbeInterval)
	defer timer.Stop()
	for {
		select {
		case <-p.closeCh:
			p.mu.Lock()
			p.probing = false
			p.mu.Unlock()
			return
		case <-timer.C:
		}
		p.mu.Lock()
		if p.closed || p.state == BreakerClosed {
			p.probing = false
			p.mu.Unlock()
			return
		}
		p.state = BreakerHalfOpen
		p.mu.Unlock()
		p.probes.Add(1)
		if c := p.probe(); c != nil {
			p.mu.Lock()
			p.state = BreakerClosed
			p.fails = 0
			p.probing = false
			if !p.closed && len(p.idle) < p.cfg.MaxIdle && p.total < p.cfg.MaxConns {
				p.idle = append(p.idle, c)
				p.total++
				c = nil
			}
			p.cond.Broadcast()
			p.mu.Unlock()
			if c != nil {
				_ = c.Close()
			}
			return
		}
		p.mu.Lock()
		p.state = BreakerOpen
		p.mu.Unlock()
		timer.Reset(p.cfg.ProbeInterval)
	}
}

// probe attempts one dial plus one stats round trip — proof the server is
// accepting connections and speaking the protocol, not merely listening.
// Returns the healthy connection, or nil.
func (p *Pool) probe() *Client {
	c, err := DialTimeout(p.cfg.Addr, p.cfg.OpTimeout)
	if err != nil {
		return nil
	}
	if _, err := c.ServerStats(); err != nil {
		_ = c.conn.Close()
		return nil
	}
	return c
}

// Get implements kvcache.Cache. Checkout or network errors surface as
// misses; callers fall back to the database, the correct degraded
// behaviour. With the near-cache enabled a lease-live L1 entry is served
// without any network round trip (an open breaker doesn't block it either
// — the freshest locally known value beats a guaranteed miss); a server
// hit re-arms the key's lease on the way out.
func (p *Pool) Get(key string) ([]byte, bool) {
	if l := p.l1; l != nil {
		if v, ok := l.lookup(key, time.Now().UnixNano()); ok {
			return v, true
		}
	}
	start := time.Now()
	c, err := p.get()
	if err != nil {
		p.done(opGet, start, err)
		return nil, false
	}
	v, _, ok, err := c.fetch(false, key)
	p.put(c, err)
	p.done(opGet, start, err)
	if err != nil {
		return nil, false
	}
	if ok && p.l1 != nil {
		p.l1.store(key, v, time.Now().UnixNano())
	}
	return v, ok
}

// Gets implements kvcache.Cache.
func (p *Pool) Gets(key string) ([]byte, uint64, bool) {
	start := time.Now()
	c, err := p.get()
	if err != nil {
		p.done(opGets, start, err)
		return nil, 0, false
	}
	v, cas, ok, err := c.fetch(true, key)
	p.put(c, err)
	p.done(opGets, start, err)
	if err != nil {
		return nil, 0, false
	}
	return v, cas, ok
}

// Set implements kvcache.Cache. A near-cached key is invalidated, not
// updated in place: the server is the arbiter of racing writes, and the
// next read re-earns the entry from whatever value actually won.
func (p *Pool) Set(key string, value []byte, ttl time.Duration) {
	if p.l1 != nil {
		p.l1.invalidate(key)
	}
	start := time.Now()
	c, err := p.get()
	if err != nil {
		p.done(opSet, start, err)
		return
	}
	err = c.set(key, value, ttl)
	p.put(c, err)
	p.done(opSet, start, err)
}

// Add implements kvcache.Cache.
func (p *Pool) Add(key string, value []byte, ttl time.Duration) bool {
	if p.l1 != nil {
		p.l1.invalidate(key)
	}
	start := time.Now()
	c, err := p.get()
	if err != nil {
		p.done(opAdd, start, err)
		return false
	}
	ok, err := c.add(key, value, ttl)
	p.put(c, err)
	p.done(opAdd, start, err)
	return ok
}

// Cas implements kvcache.Cache.
func (p *Pool) Cas(key string, value []byte, ttl time.Duration, cas uint64) kvcache.CasResult {
	if p.l1 != nil {
		p.l1.invalidate(key)
	}
	start := time.Now()
	c, err := p.get()
	if err != nil {
		p.done(opCas, start, err)
		return kvcache.CasNotFound
	}
	r, err := c.cas(key, value, ttl, cas)
	p.put(c, err)
	p.done(opCas, start, err)
	return r
}

// Delete implements kvcache.Cache. The near-cache entry dies here with the
// server's copy.
func (p *Pool) Delete(key string) bool {
	if p.l1 != nil {
		p.l1.invalidate(key)
	}
	start := time.Now()
	c, err := p.get()
	if err != nil {
		p.done(opDelete, start, err)
		return false
	}
	ok, err := c.del(key)
	p.put(c, err)
	p.done(opDelete, start, err)
	return ok
}

// Incr implements kvcache.Cache.
func (p *Pool) Incr(key string, delta int64) (int64, bool) {
	if p.l1 != nil {
		p.l1.invalidate(key)
	}
	start := time.Now()
	c, err := p.get()
	if err != nil {
		p.done(opIncr, start, err)
		return 0, false
	}
	n, ok, err := c.incr(key, delta)
	p.put(c, err)
	p.done(opIncr, start, err)
	return n, ok
}

// FlushAll implements kvcache.Cache.
func (p *Pool) FlushAll() {
	if p.l1 != nil {
		p.l1.flush()
	}
	start := time.Now()
	c, err := p.get()
	if err != nil {
		p.done(opOther, start, err)
		return
	}
	err = c.flushAll()
	p.put(c, err)
	p.done(opOther, start, err)
}

// ApplyBatch implements kvcache.Cache: the whole batch runs as one
// pipelined mop exchange on a single checked-out connection, so it costs one
// round trip while other operations proceed on other connections.
func (p *Pool) ApplyBatch(ops []kvcache.BatchOp) []kvcache.BatchResult {
	if len(ops) == 0 {
		return nil
	}
	if p.l1 != nil {
		return p.applyBatchL1(ops)
	}
	return p.exchangeBatch(ops)
}

// applyBatchL1 is ApplyBatch behind the near-cache. Every batched mutation
// invalidates its entry — batches are exactly how the write-set flush
// delivers trigger maintenance. A BatchGet is a Get: a lease-live entry
// answers it locally and only the rest of the batch travels (none of it when
// every op was answered), and the server's hits are learned on the way out
// unless the batch also mutates, when a learned value could predate a later op
// on its key. It learns a copy: a batch's values share one slab, which an
// entry must not keep alive. A BatchGets always reads the server — its token
// is only good there — so the near-cache neither serves nor learns from it.
func (p *Pool) applyBatchL1(ops []kvcache.BatchOp) []kvcache.BatchResult {
	now := time.Now().UnixNano()
	out := kvcache.FailedBatch(ops)
	send := make([]kvcache.BatchOp, 0, len(ops))
	at := make([]int, 0, len(ops)) // at[j] is send[j]'s position in ops
	learn := true
	for i := range ops {
		switch ops[i].Kind {
		case kvcache.BatchGet:
			if v, ok := p.l1.lookup(ops[i].Key, now); ok {
				out[i] = kvcache.BatchResult{Found: true, Data: v}
				continue
			}
		case kvcache.BatchGets:
		default:
			learn = false
			p.l1.invalidate(ops[i].Key)
		}
		send = append(send, ops[i])
		at = append(at, i)
	}
	if len(send) == 0 {
		return out
	}
	for j, r := range p.exchangeBatch(send) {
		out[at[j]] = r
		if learn && r.Found && send[j].Kind == kvcache.BatchGet {
			p.l1.store(send[j].Key, bytes.Clone(r.Data), now)
		}
	}
	return out
}

// exchangeBatch runs ops as one mop exchange on a checked-out connection.
func (p *Pool) exchangeBatch(ops []kvcache.BatchOp) []kvcache.BatchResult {
	start := time.Now()
	c, err := p.get()
	if err != nil {
		p.done(opMop, start, err)
		return kvcache.FailedBatch(ops)
	}
	res, err := c.applyBatch(ops)
	p.put(c, err)
	p.done(opMop, start, err)
	if err != nil {
		// A batch that broke mid-stream has partially-trustworthy results at
		// best; report all-failed so callers treat it as a lost flush.
		return kvcache.FailedBatch(ops)
	}
	return res
}

// Keys fetches the server's live key list over a pooled connection; the
// cluster membership-change handoff drains a remapped key share through it.
func (p *Pool) Keys() ([]string, error) {
	start := time.Now()
	c, err := p.get()
	if err != nil {
		p.done(opOther, start, err)
		return nil, err
	}
	keys, err := c.Keys()
	p.put(c, err)
	p.done(opOther, start, err)
	return keys, err
}

// ServerStats fetches the server's counters over a pooled connection.
func (p *Pool) ServerStats() (map[string]int64, error) {
	start := time.Now()
	c, err := p.get()
	if err != nil {
		p.done(opOther, start, err)
		return nil, err
	}
	st, err := c.ServerStats()
	p.put(c, err)
	p.done(opOther, start, err)
	return st, err
}
