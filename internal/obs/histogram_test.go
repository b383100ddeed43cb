package obs

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// exactQuantile is the order statistic the histogram estimates: the value at
// rank ceil(q*n) of the sorted sample, clamped to [1, n].
func exactQuantile(sorted []int64, q float64) int64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// withinOneBucket reports whether est is inside (or adjacent to) the bucket
// holding exact — the histogram's error contract.
func withinOneBucket(t *testing.T, est, exact int64) {
	t.Helper()
	bi := bucketIndex(exact)
	lo, _ := BucketBounds(bi)
	var hi int64
	if bi+1 < NumBuckets {
		_, hi = BucketBounds(bi + 1)
	} else {
		_, hi = BucketBounds(bi)
	}
	if est < lo || est > hi {
		t.Fatalf("estimate %d outside bucket-of-exact [%d, %d) (exact %d, bucket %d)", est, lo, hi, exact, bi)
	}
}

func TestQuantileErrorBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dists := map[string]func() int64{
		// Latency-shaped: lognormal around ~100µs with a heavy tail.
		"lognormal": func() int64 { return int64(math.Exp(11.5 + rng.NormFloat64())) },
		"uniform":   func() int64 { return rng.Int63n(10_000_000) },
		"small":     func() int64 { return rng.Int63n(32) },
		// Exponential spacing exercises many octaves.
		"exp2": func() int64 { return int64(1) << uint(rng.Intn(40)) },
	}
	for name, draw := range dists {
		t.Run(name, func(t *testing.T) {
			h := NewHistogram()
			samples := make([]int64, 0, 20000)
			for i := 0; i < 20000; i++ {
				v := draw()
				samples = append(samples, v)
				h.Observe(v)
			}
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
				est := h.Quantile(q)
				exact := exactQuantile(samples, q)
				withinOneBucket(t, est, exact)
				// Relative error stays inside the documented ~10% budget
				// (actual bound is one bucket width, <= 6.25%, plus the
				// midpoint offset).
				if exact >= histSubCount {
					relErr := math.Abs(float64(est)-float64(exact)) / float64(exact)
					if relErr > 0.10 {
						t.Errorf("q=%g: estimate %d vs exact %d, rel err %.3f > 0.10", q, est, exact, relErr)
					}
				}
			}
		})
	}
}

func TestObserveBoundaries(t *testing.T) {
	h := NewHistogram()
	h.Observe(-5) // clamps to 0
	h.Observe(0)
	h.Observe(math.MaxInt64)
	if got := h.Count(); got != 3 {
		t.Fatalf("count = %d, want 3", got)
	}
	if got := h.Max(); got != math.MaxInt64 {
		t.Fatalf("max = %d, want MaxInt64", got)
	}
	// The top bucket must hold MaxInt64 without indexing out of range.
	if bi := bucketIndex(math.MaxInt64); bi != NumBuckets-1 {
		t.Fatalf("bucketIndex(MaxInt64) = %d, want %d", bi, NumBuckets-1)
	}
	if est := h.Quantile(1); est <= 0 {
		t.Fatalf("q=1 estimate %d, want positive", est)
	}
	// Every bucket's bounds nest correctly: lo < hi and contiguous.
	prevHi := int64(0)
	for i := 0; i < NumBuckets; i++ {
		lo, hi := BucketBounds(i)
		if lo >= hi {
			t.Fatalf("bucket %d: lo %d >= hi %d", i, lo, hi)
		}
		if lo != prevHi {
			t.Fatalf("bucket %d: lo %d != previous hi %d", i, lo, prevHi)
		}
		if mid := bucketMid(i); mid < lo || mid >= hi {
			t.Fatalf("bucket %d: mid %d outside [%d, %d)", i, mid, lo, hi)
		}
		prevHi = hi
	}
	if prevHi != math.MaxInt64 {
		t.Fatalf("final bucket hi = %d, want MaxInt64", prevHi)
	}
}

func TestMergeAssociativeCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	union := NewHistogram()
	mk := func(n int) *Histogram {
		h := NewHistogram()
		for i := 0; i < n; i++ {
			v := rng.Int63n(1_000_000)
			h.Observe(v)
			union.Observe(v)
		}
		return h
	}
	a, b, c := mk(500), mk(700), mk(300)

	merge := func(hs ...*Histogram) HistSnapshot {
		var out HistSnapshot
		for _, h := range hs {
			out.Add(h.Snapshot())
		}
		return out
	}
	equal := func(x, y HistSnapshot) bool {
		if x.Count != y.Count || x.Sum != y.Sum || x.Max != y.Max {
			return false
		}
		for i := range x.Buckets {
			if x.Buckets[i] != y.Buckets[i] {
				return false
			}
		}
		return true
	}

	abc := merge(a, b, c)
	if !equal(abc, merge(c, b, a)) {
		t.Error("merge not commutative: (a,b,c) != (c,b,a)")
	}
	// Associativity: (a+b)+c == a+(b+c).
	lhs := merge(a, b)
	lhs.Add(c.Snapshot())
	rhs := a.Snapshot()
	rhs.Add(merge(b, c))
	if !equal(lhs, rhs) {
		t.Error("merge not associative: (a+b)+c != a+(b+c)")
	}
	// Merging loses no resolution: the merge is bucket-identical to a
	// histogram fed the union directly, so its quantiles match too.
	if !equal(abc, union.Snapshot()) {
		t.Error("merge of (a,b,c) != histogram fed the union directly")
	}
	if got, want := abc.Quantile(0.99), union.Quantile(0.99); got != want {
		t.Errorf("merge p99 %d != direct p99 %d", got, want)
	}
}

func TestSnapshotIntervalArithmetic(t *testing.T) {
	h := NewHistogram()
	for i := int64(1); i <= 100; i++ {
		h.Observe(i * 1000)
	}
	s1 := h.Snapshot()
	for i := int64(1); i <= 50; i++ {
		h.Observe(i * 2000)
	}
	s2 := h.Snapshot()

	iv := s2.Sub(s1)
	if iv.Count != 50 {
		t.Fatalf("interval count = %d, want 50", iv.Count)
	}
	// Sub then Add round-trips back to the cumulative distribution.
	sum := s1
	sum.Add(iv)
	if sum.Count != s2.Count || sum.Sum != s2.Sum {
		t.Fatalf("s1 + (s2-s1) = count %d sum %d, want count %d sum %d",
			sum.Count, sum.Sum, s2.Count, s2.Sum)
	}
	for i := range sum.Buckets {
		if sum.Buckets[i] != s2.Buckets[i] {
			t.Fatalf("bucket %d: round-trip %d != cumulative %d", i, sum.Buckets[i], s2.Buckets[i])
		}
	}
}

func TestNilHistogramSafe(t *testing.T) {
	var h *Histogram
	h.Observe(1)
	h.ObserveSince(time.Now())
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("nil histogram should read as empty")
	}
	h.Reset()
	s := h.Snapshot()
	if s.Count != 0 {
		t.Fatal("nil snapshot should be empty")
	}
}

// TestSnapshotAddEqualsMerge is the ticker's cross-node merge: snapshots
// folded into a zero-value HistSnapshot with Add must be bucket-identical to
// one histogram fed every node's observations, so every quantile matches
// exactly, not approximately.
func TestSnapshotAddEqualsMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	direct := NewHistogram()
	observe := func(h *Histogram, v int64) {
		h.Observe(v)
		direct.Observe(v)
	}
	nodes := make([]*Histogram, 3)
	for i := range nodes {
		nodes[i] = NewHistogram()
		for j := 0; j < 5000; j++ {
			observe(nodes[i], int64(math.Exp(10+2*rng.NormFloat64())))
		}
	}
	observe(nodes[0], 0)
	observe(nodes[1], math.MaxInt64)
	ref := direct.Snapshot()

	var added HistSnapshot
	for _, n := range nodes {
		added.Add(n.Snapshot())
	}

	if added.Count != ref.Count || added.Sum != ref.Sum || added.Max != ref.Max {
		t.Fatalf("Add count/sum/max = %d/%d/%d, want %d/%d/%d",
			added.Count, added.Sum, added.Max, ref.Count, ref.Sum, ref.Max)
	}
	for i := range ref.Buckets {
		if added.Buckets[i] != ref.Buckets[i] {
			t.Fatalf("bucket %d: Add %d != direct %d", i, added.Buckets[i], ref.Buckets[i])
		}
	}
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 0.999, 1} {
		if got, want := added.Quantile(q), ref.Quantile(q); got != want {
			t.Fatalf("q=%g: Add %d != direct %d", q, got, want)
		}
	}
}

// TestConcurrentObserveSnapshot churns Observe/Snapshot/Add/Quantile across
// goroutines; run under -race this is the data-race gate, and the final count
// checks no observation was lost.
func TestConcurrentObserveSnapshot(t *testing.T) {
	h := NewHistogram()
	const (
		writers = 8
		perW    = 20000
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			other := NewHistogram()
			other.Observe(42)
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := h.Snapshot()
				_ = s.Quantile(0.99)
				_ = s.Sub(HistSnapshot{})
				var merged HistSnapshot
				merged.Add(s)
				merged.Add(other.Snapshot())
			}
		}(int64(r))
	}
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(seed int64) {
			defer ww.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perW; i++ {
				h.Observe(rng.Int63n(1 << 30))
			}
		}(int64(w))
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	if got := h.Count(); got != writers*perW {
		t.Fatalf("count = %d, want %d", got, writers*perW)
	}
	s := h.Snapshot()
	if s.Count != writers*perW {
		t.Fatalf("snapshot count = %d, want %d", s.Count, writers*perW)
	}
}
