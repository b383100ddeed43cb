// Package obs is the process-wide observability substrate: allocation-free
// atomic counters and gauges, fixed-size log-bucketed latency histograms
// with lock-free Observe and snapshots that subtract and merge exactly, a
// metrics registry that renders Prometheus text format and JSON snapshots,
// and an HTTP server exposing /metrics, /metrics.json, /debug/pprof/*, and
// /healthz.
//
// The paper's entire argument is quantitative — hit rates and round-trip
// latencies — so measurement is a subsystem, not per-experiment scaffolding.
// Every tier registers here: the kvcache store, the cacheproto server and
// client pool, the invalidation bus, and the cluster ring. Two constraints
// shape the design. First, instrumentation sits on the protocol hot path,
// which is a measured zero-allocation property, so Observe and counter
// updates are single atomic ops on preallocated fixed-size state. Second,
// per-node and per-interval latency distributions must combine into true
// aggregate quantiles, which sorting raw samples cannot do — histograms
// whose snapshots Sub and Add bucket by bucket can.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Bucket layout: values 0..15 land in singleton buckets 0..15; above that,
// each power-of-two octave [2^e, 2^(e+1)) splits into histSubCount linear
// sub-buckets. Relative bucket width is at most 1/histSubCount (6.25%), so
// any quantile estimate taken from a bucket midpoint is within ±3.2% of any
// sample in that bucket — comfortably inside the "one bucket, ~10%" error
// contract — while the whole int64 range fits in NumBuckets fixed slots
// (7.6 KiB of counters per histogram, no resizing, no locks).
const (
	histSubBits  = 4
	histSubCount = 1 << histSubBits

	// NumBuckets covers every non-negative int64: 16 singleton buckets plus
	// 60 octaves x 16 sub-buckets.
	NumBuckets = (63-histSubBits)*histSubCount + histSubCount
)

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	u := uint64(v)
	if u < histSubCount {
		return int(u)
	}
	e := bits.Len64(u) - 1 // position of the highest set bit, >= histSubBits
	sub := (u >> (uint(e) - histSubBits)) & (histSubCount - 1)
	return (e-histSubBits+1)*histSubCount + int(sub)
}

// BucketBounds returns bucket i's value range [lo, hi). The final bucket's
// upper bound saturates at MaxInt64.
func BucketBounds(i int) (lo, hi int64) {
	if i < histSubCount {
		return int64(i), int64(i) + 1
	}
	o := uint(i / histSubCount) // octave number, >= 1
	s := int64(i % histSubCount)
	lo = (histSubCount + s) << (o - 1)
	width := int64(1) << (o - 1)
	if lo > math.MaxInt64-width {
		return lo, math.MaxInt64
	}
	return lo, lo + width
}

// bucketMid returns the midpoint of bucket i, the quantile estimate for
// ranks that land in it.
func bucketMid(i int) int64 {
	lo, hi := BucketBounds(i)
	return lo + (hi-lo)/2
}

// Histogram is a fixed-size log-bucketed histogram of non-negative int64
// values (latencies in nanoseconds, batch sizes, ...). Observe is lock-free
// and allocation-free; HistSnapshot.Add merges snapshots bucket-by-bucket
// with no resolution loss, which makes merging associative and commutative,
// so distributions from several nodes or clients combine into true
// aggregate quantiles. The zero value is ready to use; all methods are safe on a nil
// receiver (no-ops / zero results), so optionally-instrumented call sites
// need no branches.
type Histogram struct {
	buckets [NumBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64
	max     atomic.Int64
}

// NewHistogram allocates a Histogram (the zero value also works; this
// exists for call sites that want a pointer in one expression).
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one value. Negative values clamp to zero. Lock-free,
// allocation-free: two atomic adds, one atomic increment, and a CAS loop
// that only spins while the running maximum is actually moving.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// ObserveSince records the nanoseconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(int64(time.Since(start)))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Max returns the largest observed value (exact, not bucketed).
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// Quantile estimates the q-th quantile (q in [0, 1]) as the midpoint of the
// bucket holding that rank. The estimate is always within one bucket of the
// exact order statistic, i.e. within ~±3.2% relative error. Returns 0 for
// an empty histogram. Not for hot paths (it scans all buckets).
func (h *Histogram) Quantile(q float64) int64 {
	return h.Snapshot().Quantile(q)
}

// Mean returns the exact arithmetic mean of observations (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil {
		return 0
	}
	c := h.count.Load()
	if c == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(c)
}

// Reset zeroes the histogram. Not atomic with respect to concurrent
// Observes — intended for sequential reuse between measurement phases.
func (h *Histogram) Reset() {
	if h == nil {
		return
	}
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
}

// HistSnapshot is a point-in-time copy of a histogram, the unit of interval
// arithmetic: Sub yields a per-interval distribution from two cumulative
// snapshots, Add merges snapshots from several histograms, Quantile reads
// either. Taken bucket-by-bucket without a global lock, so under concurrent
// Observe it reflects a near-point-in-time state (each bucket individually
// exact, Count recomputed from the copied buckets so quantile ranks are
// internally consistent).
type HistSnapshot struct {
	Buckets []uint64
	Count   uint64
	Sum     int64
	Max     int64
}

// Snapshot copies the histogram's state. A nil histogram snapshots as empty.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Buckets: make([]uint64, NumBuckets)}
	if h == nil {
		return s
	}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		s.Buckets[i] = n
		s.Count += n
	}
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	return s
}

// Sub returns the interval distribution s minus prev (an older snapshot of
// the same histogram). Max carries s's cumulative value — a maximum is not
// interval-decomposable.
func (s HistSnapshot) Sub(prev HistSnapshot) HistSnapshot {
	out := HistSnapshot{Buckets: make([]uint64, NumBuckets), Max: s.Max}
	for i := range out.Buckets {
		var a, b uint64
		if i < len(s.Buckets) {
			a = s.Buckets[i]
		}
		if i < len(prev.Buckets) {
			b = prev.Buckets[i]
		}
		if a > b {
			out.Buckets[i] = a - b
			out.Count += a - b
		}
	}
	out.Sum = s.Sum - prev.Sum
	return out
}

// Add merges o into s in place, exactly: no re-bucketing, no resolution
// loss. Merging is associative and commutative over the bucket counts, sum,
// count, and max.
func (s *HistSnapshot) Add(o HistSnapshot) {
	if s.Buckets == nil {
		s.Buckets = make([]uint64, NumBuckets)
	}
	for i := range o.Buckets {
		if o.Buckets[i] > 0 {
			s.Buckets[i] += o.Buckets[i]
			s.Count += o.Buckets[i]
		}
	}
	s.Sum += o.Sum
	if o.Max > s.Max {
		s.Max = o.Max
	}
}

// Quantile estimates the q-th quantile from the snapshot (see
// Histogram.Quantile for the error contract).
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the order statistic a sorted slice would be indexed at:
	// ceil(q*count), clamped to [1, count].
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, n := range s.Buckets {
		cum += n
		if cum >= rank {
			return bucketMid(i)
		}
	}
	return bucketMid(len(s.Buckets) - 1)
}

// Mean returns the snapshot's exact mean (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}
