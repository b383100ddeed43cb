// Package invbus is the asynchronous invalidation bus between CacheGenie's
// database triggers and the cache. The paper measures (§5.3) that the
// dominant trigger cost is the trigger→cache hop; the bus takes it off the
// write path. A write statement publishes the ops its triggers recorded and
// returns; one worker hands what is published within a time window, in
// publish order, to an apply function (core runs its write-set flush there).
// The cache then lags the database by roughly the window plus queueing and
// apply time; Flush drains the bus for readers that cannot wait.
package invbus

import (
	"sync"
	"sync/atomic"
	"time"

	"cachegenie/internal/obs"
)

const (
	// queueDepth bounds the published lists waiting for the worker; Publish
	// blocks while the queue is full (backpressure).
	queueDepth = 1024
	// maxWindowOps closes a window early once it holds this many ops.
	maxWindowOps = 1024
)

// Stats counts bus activity. Snapshot via Bus.Stats.
type Stats struct {
	Enqueued int64 // ops published
	// Applied counts the keys the applied windows wrote, and Coalesced the
	// rest of their ops, which shared a key with another op of their window.
	Applied   int64
	Coalesced int64
	Flushes   int64         // windows applied
	MaxBatch  int64         // ops in the largest window
	MaxLag    time.Duration // worst publish-to-applied delay, apply time included
	// QueueFullStalls counts Publish calls that blocked on the full queue,
	// and StallTime their total wait: the backpressure MaxLag cannot show (a
	// saturated bus can keep lag bounded precisely by stalling writers).
	QueueFullStalls int64
	StallTime       time.Duration
}

// pending is one published list; barrier non-nil marks Flush's barrier.
type pending[T any] struct {
	items   []T
	enq     time.Time
	barrier chan struct{}
}

// Bus is the invalidation bus over items of type T. All methods are safe for
// concurrent use.
type Bus[T any] struct {
	window time.Duration
	apply  func([]T) (keys int)
	ch     chan pending[T]
	wg     sync.WaitGroup

	// mu serializes Publish/Flush against Close (channel lifecycle).
	mu     sync.RWMutex
	closed bool

	enqueued, applied, coalesced, flushes, maxBatch atomic.Int64
	maxLag, queueFullStalls, stallNanos             atomic.Int64

	// Always-on distributions (see RegisterMetrics): ops per window, and
	// Publish stall times on the full queue.
	flushSize, stallTime obs.Histogram
}

// New creates a Bus and starts its worker, which waits window (1ms unless
// positive) after a list arrives for more. apply gets each window's items in
// publish order, must not keep the slice, and reports how many keys it wrote.
func New[T any](window time.Duration, apply func([]T) (keys int)) *Bus[T] {
	if window <= 0 {
		window = time.Millisecond
	}
	b := &Bus[T]{window: window, apply: apply, ch: make(chan pending[T], queueDepth)}
	b.wg.Add(1)
	go b.worker()
	return b
}

// Publish hands a list of items to the bus as one unit; the bus owns the
// slice from here on. It returns as soon as the list is queued, blocking only
// when the queue is full (backpressure). After Close — so maintenance is
// never silently dropped — the list is applied inline before returning.
func (b *Bus[T]) Publish(items []T) {
	b.enqueued.Add(int64(len(items)))
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		// Applying while an older list is still queued would break publish
		// order, so Close's drain goes first.
		b.wg.Wait()
		b.applyWindow(items, time.Now())
		return
	}
	p := pending[T]{items: items, enq: time.Now()}
	select {
	case b.ch <- p:
	default:
		// Queue full: block (backpressure) and account for the stall so
		// saturation is visible beyond MaxLag.
		b.queueFullStalls.Add(1)
		start := time.Now()
		b.ch <- p
		stalled := int64(time.Since(start))
		b.stallNanos.Add(stalled)
		b.stallTime.Observe(stalled)
	}
	b.mu.RUnlock()
}

// Flush blocks until every item published before the call has been applied.
func (b *Bus[T]) Flush() {
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		b.wg.Wait() // a concurrent Close is draining; its drain is our drain
		return
	}
	done := make(chan struct{})
	b.ch <- pending[T]{barrier: done}
	b.mu.RUnlock()
	<-done
}

// Close drains the queue, applies what was pending, and stops the worker.
// Lists published after Close apply synchronously.
func (b *Bus[T]) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	close(b.ch)
	b.mu.Unlock()
	b.wg.Wait()
}

// Stats returns a snapshot of counters.
func (b *Bus[T]) Stats() Stats {
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

// worker owns the queue: it takes a first list, collects more until the window
// times out, fills or meets a Flush barrier, and applies the window.
func (b *Bus[T]) worker() {
	defer b.wg.Done()
	timer := time.NewTimer(b.window)
	timer.Stop()
	var buf []T
	for {
		p, ok := <-b.ch
		if !ok {
			return
		}
		if p.barrier != nil {
			close(p.barrier)
			continue
		}
		items := append(buf[:0], p.items...)
		var barrier chan struct{}
		timer.Reset(b.window)
	collect:
		for len(items) < maxWindowOps && ok && barrier == nil {
			var q pending[T]
			select {
			case q, ok = <-b.ch:
			case <-timer.C:
				break collect
			}
			barrier = q.barrier
			items = append(items, q.items...)
		}
		timer.Stop()
		b.applyWindow(items, p.enq)
		clear(items) // let the window's items go
		buf = items
		if barrier != nil {
			close(barrier)
		}
		if !ok {
			return
		}
	}
}

// applyWindow applies one window whose oldest list was published at oldest.
func (b *Bus[T]) applyWindow(items []T, oldest time.Time) {
	keys := b.apply(items)
	storeMax(&b.maxLag, int64(time.Since(oldest)))
	b.applied.Add(int64(keys))
	b.coalesced.Add(int64(len(items) - keys))
	b.flushes.Add(1)
	storeMax(&b.maxBatch, int64(len(items)))
	b.flushSize.Observe(int64(len(items)))
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
