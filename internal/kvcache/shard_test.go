package kvcache

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestShardCountDefaultsAndRounding(t *testing.T) {
	if n := New(0).NumShards(); n != DefaultShards() {
		t.Fatalf("default shards = %d, want %d", n, DefaultShards())
	}
	if DefaultShards() < 4 {
		t.Fatalf("DefaultShards() = %d, want >= 4", DefaultShards())
	}
	cases := map[int]int{1: 1, 2: 2, 3: 4, 5: 8, 8: 8, 9: 16, 64: 64}
	for in, want := range cases {
		if n := New(0, WithShards(in)).NumShards(); n != want {
			t.Fatalf("WithShards(%d) -> %d shards, want %d", in, n, want)
		}
	}
	// n <= 0 means "auto" (the flags' 0 = auto semantics).
	for _, in := range []int{0, -3} {
		if n := New(0, WithShards(in)).NumShards(); n != DefaultShards() {
			t.Fatalf("WithShards(%d) -> %d shards, want default %d", in, n, DefaultShards())
		}
	}
}

func TestShardDistributionBalance(t *testing.T) {
	s := New(0, WithShards(8))
	const keys = 10_000
	counts := make([]int, s.NumShards())
	for i := 0; i < keys; i++ {
		counts[shardIndex(s, fmt.Sprintf("balance-key-%d", i))]++
	}
	mean := keys / len(counts)
	for i, c := range counts {
		// FNV-1a over distinct keys should stay within a generous 2x band of
		// the mean; a broken hash (or mask) collapses whole shards to zero.
		if c < mean/2 || c > mean*2 {
			t.Fatalf("shard %d holds %d of %d keys (mean %d): %v", i, c, keys, mean, counts)
		}
	}
}

func TestShardCountClampedBySmallCapacity(t *testing.T) {
	// A 16KB cache must not stripe so finely that one shard's budget drops
	// below a few entries — on a many-core host DefaultShards would
	// otherwise make larger entries uncacheable.
	s := New(16<<10, WithShards(256))
	if n := s.NumShards(); int64(n) > (16<<10)/minShardBytes {
		t.Fatalf("16KB store got %d shards", n)
	}
	// Every shard can hold at least one modest entry end to end.
	s.Set("clamp-probe", make([]byte, 512), 0)
	if _, ok := s.Get("clamp-probe"); !ok {
		t.Fatal("512B entry uncacheable in a 16KB store")
	}
	// Unbounded stores stripe freely.
	if n := New(0, WithShards(256)).NumShards(); n != 256 {
		t.Fatalf("unbounded store clamped to %d shards", n)
	}
}

func TestOverwriteShrinksOversizedBuffer(t *testing.T) {
	// An entry overwritten with a much smaller value must not pin its
	// historical peak-size backing array: the budget accounts the current
	// length, so retained capacity has to track it.
	s := New(0, WithShards(1))
	s.Set("k", make([]byte, 64<<10), 0)
	s.Set("k", []byte("tiny"), 0)
	sh := &s.shards[0]
	sh.mu.Lock()
	c := cap(sh.items["k"].value)
	sh.mu.Unlock()
	if c > 1024 {
		t.Fatalf("shrunken value retains %d bytes of capacity", c)
	}
	// Same-size overwrites still reuse the buffer (the zero-alloc path).
	s.Set("k2", make([]byte, 256), 0)
	sh.mu.Lock()
	before := &sh.items["k2"].value[0]
	sh.mu.Unlock()
	s.Set("k2", make([]byte, 256), 0)
	sh.mu.Lock()
	after := &sh.items["k2"].value[0]
	sh.mu.Unlock()
	if before != after {
		t.Fatal("same-size overwrite reallocated the value buffer")
	}
}

func TestBudgetAccountsRetainedCapacity(t *testing.T) {
	// When overwrite reuse keeps an oversized backing array (shrink within
	// the 4x bound), the byte budget must charge the capacity actually
	// held, not the shorter current length — otherwise a bounded store's
	// real memory drifts above its configured limit.
	s := New(0, WithShards(1))
	s.Set("k", make([]byte, 64<<10), 0)
	peak := s.Stats().BytesUsed
	s.Set("k", make([]byte, 20<<10), 0) // 64KB cap is within 4*20KB+64: reused
	st := s.Stats()
	if st.BytesUsed != peak {
		t.Fatalf("retained 64KB capacity accounted as %d (peak was %d)", st.BytesUsed, peak)
	}
	sh := &s.shards[0]
	sh.mu.Lock()
	c := cap(sh.items["k"].value)
	sh.mu.Unlock()
	if c != 64<<10 {
		t.Fatalf("expected reuse of the 64KB buffer, cap = %d", c)
	}
}

func TestShardCapacitySplitExact(t *testing.T) {
	for _, total := range []int64{1 << 20, 1<<20 + 3, 12345} {
		s := New(total, WithShards(8))
		if got := s.Stats().BytesLimit; got != total {
			t.Fatalf("capacity %d split sums to %d", total, got)
		}
	}
}

func TestCrossShardApplyBatch(t *testing.T) {
	s := New(0, WithShards(16))
	var ops []BatchOp
	var wantVals []string
	const n = 200
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("batch-key-%d", i)
		s.Set("seed-"+k, []byte("x"), 0) // interleave pre-existing state
		ops = append(ops,
			BatchOp{Kind: BatchSet, Key: k, Value: []byte(fmt.Sprintf("v%d", i))},
			BatchOp{Kind: BatchDelete, Key: "seed-" + k},
			BatchOp{Kind: BatchDelete, Key: "missing-" + k},
		)
		wantVals = append(wantVals, fmt.Sprintf("v%d", i))
	}
	// Same-key sequencing must survive the shard grouping: later ops on one
	// key run after earlier ones.
	ops = append(ops,
		BatchOp{Kind: BatchSet, Key: "ctr", Value: []byte("5")},
		BatchOp{Kind: BatchIncr, Key: "ctr", Delta: 10},
		BatchOp{Kind: BatchDelete, Key: "batch-key-0"},
	)
	res := s.ApplyBatch(ops)
	for i := 0; i < n; i++ {
		if !res[3*i].Found {
			t.Fatalf("set %d not reported", i)
		}
		if !res[3*i+1].Found {
			t.Fatalf("delete of live seed %d not reported", i)
		}
		if res[3*i+2].Found {
			t.Fatalf("delete of missing key %d reported found", i)
		}
	}
	last := res[len(res)-2]
	if !last.Found || last.Value != 15 {
		t.Fatalf("incr after set in same batch = %+v, want 15", last)
	}
	if !res[len(res)-1].Found {
		t.Fatal("delete after set in same batch missed")
	}
	if _, ok := s.Get("batch-key-0"); ok {
		t.Fatal("same-batch delete did not run after the set")
	}
	for i := 1; i < n; i++ {
		v, ok := s.Get(fmt.Sprintf("batch-key-%d", i))
		if !ok || string(v) != wantVals[i] {
			t.Fatalf("batch-key-%d = %q, %v", i, v, ok)
		}
		if _, ok := s.Get(fmt.Sprintf("seed-batch-key-%d", i)); ok {
			t.Fatalf("seed %d survived its batched delete", i)
		}
	}
}

func TestCrossShardFlushAll(t *testing.T) {
	s := New(0, WithShards(8))
	for i := 0; i < 500; i++ {
		s.Set(fmt.Sprintf("flush-key-%d", i), []byte("v"), 0)
	}
	occupied := 0
	for i := range s.shards {
		if len(s.shards[i].items) > 0 {
			occupied++
		}
	}
	if occupied < 2 {
		t.Fatalf("only %d shards occupied before flush; test is vacuous", occupied)
	}
	s.FlushAll()
	if s.Len() != 0 {
		t.Fatalf("len after flush = %d", s.Len())
	}
	if st := s.Stats(); st.BytesUsed != 0 || st.Items != 0 {
		t.Fatalf("stats after flush: %+v", st)
	}
}

func TestPerShardEvictionIsolation(t *testing.T) {
	// Two keys on different shards; fill one shard past its budget. The
	// other shard's resident key must be untouched — eviction pressure is a
	// per-stripe affair.
	s := New(8*1024, WithShards(4))
	victimShard := shardIndex(s, "pinned-key")
	s.Set("pinned-key", make([]byte, 64), 0)
	filler := 0
	for i := 0; filler < 200; i++ {
		k := fmt.Sprintf("filler-%d", i)
		if shardIndex(s, k) == victimShard {
			continue // keep the pressure off the pinned key's shard
		}
		s.Set(k, make([]byte, 64), 0)
		filler++
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under pressure: %+v", st)
	}
	if _, ok := s.Get("pinned-key"); !ok {
		t.Fatal("eviction pressure on other shards evicted the pinned key")
	}
	// And per-shard accounting holds: no shard over its slice of the budget.
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		used, cap := sh.used, sh.capacity
		sh.mu.Unlock()
		if used > cap {
			t.Fatalf("shard %d over budget: %d > %d", i, used, cap)
		}
	}
}

func TestCasTokensUniqueAcrossShards(t *testing.T) {
	s := New(0, WithShards(8))
	seen := map[uint64]string{}
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("cas-key-%d", i)
		s.Set(k, []byte("v"), 0)
		_, tok, ok := s.Gets(k)
		if !ok {
			t.Fatalf("Gets(%s) missed", k)
		}
		if prev, dup := seen[tok]; dup {
			t.Fatalf("cas token %d reused by %s and %s", tok, prev, k)
		}
		seen[tok] = k
	}
}

// TestShardedStoreRace is the -race exercise for the striped store: every
// mutating operation class runs concurrently across a keyspace spanning all
// shards, including cross-shard batches and flushes.
func TestShardedStoreRace(t *testing.T) {
	s := New(1<<18, WithShards(8))
	keys := make([]string, 128)
	for i := range keys {
		keys[i] = fmt.Sprintf("race-key-%d", i)
	}
	iters := 300
	if testing.Short() {
		iters = 100
	}
	var wg sync.WaitGroup
	for g := 0; g < 10; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := keys[(g*31+i)%len(keys)]
				switch i % 8 {
				case 0:
					s.Set(k, []byte("val"), 0)
				case 1:
					s.Get(k)
				case 2:
					s.Delete(k)
				case 3:
					if v, tok, ok := s.Gets(k); ok {
						s.Cas(k, v, 0, tok)
					}
				case 4:
					s.Add(k, []byte("1"), time.Millisecond)
					s.Incr(k, 1)
				case 5:
					s.ApplyBatch([]BatchOp{
						{Kind: BatchSet, Key: k, Value: []byte("b")},
						{Kind: BatchDelete, Key: keys[(g*7+i)%len(keys)]},
						{Kind: BatchIncr, Key: "shared-ctr", Delta: 1},
					})
				case 6:
					s.Stats()
					s.Len()
				case 7:
					if i%64 == 0 {
						s.FlushAll()
					} else {
						s.GetQuiet(k)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	// Post-churn invariants: accounting is non-negative and consistent.
	st := s.Stats()
	if st.BytesUsed < 0 || st.Items < 0 {
		t.Fatalf("corrupt accounting after churn: %+v", st)
	}
}

// TestExpirySweepReclaimsDeadBytes is the lazy-expiry capacity-leak
// regression: expired entries nobody touches again must stop occupying the
// byte budget once write traffic paces the sweep — before the sweep, they
// squatted until a capacity crunch evicted LIVE keys around them.
func TestExpirySweepReclaimsDeadBytes(t *testing.T) {
	now := time.Unix(9000, 0)
	s := New(0, WithShards(1), WithClock(func() time.Time { return now }))
	// A wave of short-TTL entries, old enough to sink to the LRU tail.
	const dead = 200
	for i := 0; i < dead; i++ {
		s.Set(fmt.Sprintf("dead-%d", i), make([]byte, 100), time.Second)
	}
	deadBytes := s.Stats().BytesUsed
	if deadBytes == 0 {
		t.Fatal("nothing accounted")
	}
	now = now.Add(time.Minute) // the whole wave is dead
	// Write traffic on OTHER keys paces the sweep; nobody touches dead-*.
	// Each sweepEveryWrites writes reap up to sweepScanEntries tail entries,
	// so this many overwrites clear the whole wave with room to spare.
	writes := (dead/sweepScanEntries + 2) * sweepEveryWrites
	for i := 0; i < writes; i++ {
		s.Set("live", []byte("v"), 0)
	}
	st := s.Stats()
	if st.Expired != dead {
		t.Fatalf("sweep reaped %d of %d dead entries: %+v", st.Expired, dead, st)
	}
	liveSize := int64(len("live") + 1 + entryOverhead)
	if st.BytesUsed != liveSize {
		t.Fatalf("dead entries still squat %d bytes (was %d, live key is %d): %+v",
			st.BytesUsed, deadBytes, liveSize, st)
	}
}

// TestExpirySweepProtectsLiveKeys is the user-visible half of the same
// regression: under capacity pressure, dead entries must be reclaimed as
// expired rather than forcing live keys out as evictions.
func TestExpirySweepProtectsLiveKeys(t *testing.T) {
	now := time.Unix(9500, 0)
	itemSize := int64(len("live-00") + 100 + entryOverhead)
	s := New(40*itemSize, WithShards(1), WithClock(func() time.Time { return now }))
	// 30 dead-to-be entries fill most of the budget...
	for i := 0; i < 30; i++ {
		s.Set(fmt.Sprintf("dead-%02d", i), make([]byte, 100), time.Second)
	}
	now = now.Add(time.Minute)
	// ...then 10 live keys arrive plus enough churn on one hot key to pace
	// the sweep. Capacity fits all 10 live keys only if the dead wave's
	// bytes come back.
	for i := 0; i < 10; i++ {
		s.Set(fmt.Sprintf("live-%02d", i), make([]byte, 100), 0)
	}
	for i := 0; i < 2*sweepEveryWrites; i++ {
		s.Set("hot", make([]byte, 100), 0)
	}
	for i := 0; i < 10; i++ {
		if _, ok := s.Get(fmt.Sprintf("live-%02d", i)); !ok {
			t.Fatalf("live-%02d evicted while expired entries squatted (stats %+v)", i, s.Stats())
		}
	}
	if st := s.Stats(); st.Evictions > 0 {
		t.Fatalf("live keys paid evictions for dead weight: %+v", st)
	}
}

// TestEvictionCountsExpiredTailAsExpired: an LRU-tail entry that is already
// past its TTL when pressure removes it is accounted Expired, not Evicted.
func TestEvictionCountsExpiredTailAsExpired(t *testing.T) {
	now := time.Unix(9700, 0)
	itemSize := int64(len("a-0") + 100 + entryOverhead)
	s := New(3*itemSize, WithShards(1), WithClock(func() time.Time { return now }))
	s.Set("a-0", make([]byte, 100), time.Second)
	s.Set("a-1", make([]byte, 100), 0)
	s.Set("a-2", make([]byte, 100), 0)
	now = now.Add(time.Minute) // a-0, at the tail, is now dead
	s.Set("a-3", make([]byte, 100), 0)
	st := s.Stats()
	if st.Evictions != 0 || st.Expired != 1 {
		t.Fatalf("expired tail misaccounted: %+v", st)
	}
}

func BenchmarkStoreShardedParallel(b *testing.B) {
	for _, shards := range []int{1, DefaultShards()} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := New(0, WithShards(shards))
			keys := make([]string, 1024)
			val := make([]byte, 128)
			for i := range keys {
				keys[i] = fmt.Sprintf("bench-key-%d", i)
				s.Set(keys[i], val, 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				r := uint32(12345)
				for pb.Next() {
					r = r*1664525 + 1013904223
					k := keys[r%1024]
					if r%10 == 0 {
						s.Set(k, val, 0)
					} else {
						s.Get(k)
					}
				}
			})
		})
	}
}
