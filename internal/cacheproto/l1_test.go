package cacheproto

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"cachegenie/internal/kvcache"
)

// newL1PoolPair is newPoolPair with the near-cache enabled.
func newL1PoolPair(t *testing.T, entries int, ttl time.Duration) (*kvcache.Store, *Pool) {
	t.Helper()
	store := kvcache.New(0)
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	pool := NewPoolWithConfig(PoolConfig{Addr: addr, MaxIdle: 2, L1Entries: entries, L1TTL: ttl})
	t.Cleanup(func() { _ = pool.Close() })
	return store, pool
}

// TestL1ServesRepeatReadsLocally: after one server round trip the key's
// reads are served from the near-cache — the server sees no further gets
// while the lease lives.
func TestL1ServesRepeatReadsLocally(t *testing.T) {
	store, pool := newL1PoolPair(t, 1024, time.Minute)
	pool.Set("k", []byte("v"), 0)
	if v, ok := pool.Get("k"); !ok || string(v) != "v" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	serverHits := store.Stats().Hits
	for i := 0; i < 100; i++ {
		if v, ok := pool.Get("k"); !ok || string(v) != "v" {
			t.Fatalf("read %d: Get = %q, %v", i, v, ok)
		}
	}
	if got := store.Stats().Hits; got != serverHits {
		t.Fatalf("server served %d gets that the L1 should have absorbed", got-serverHits)
	}
	st := pool.L1Stats()
	if st.Hits < 100 || st.Stores == 0 {
		t.Fatalf("L1Stats = %+v, want >= 100 hits and a store", st)
	}
}

// TestL1StalenessBound is the staleness regression: a value changed behind
// the client's back (the invalidation never reaches this pool — it is
// written straight into the store) must stop being served once the lease
// expires. This is the documented contract that bounds L1 staleness by the
// invalidation bus's BatchWindow.
func TestL1StalenessBound(t *testing.T) {
	const ttl = 25 * time.Millisecond
	store, pool := newL1PoolPair(t, 1024, ttl)
	pool.Set("k", []byte("old"), 0)
	if v, ok := pool.Get("k"); !ok || string(v) != "old" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	// Out-of-band write: no pool op, so no local invalidation happens.
	store.Set("k", []byte("new"), 0)
	// Within the lease a stale read is permitted; past it, never.
	deadline := time.Now().Add(ttl)
	for time.Now().Before(deadline.Add(ttl)) {
		v, ok := pool.Get("k")
		if !ok {
			t.Fatalf("Get missed mid-test")
		}
		if string(v) == "new" {
			return // converged within the bound
		}
		if time.Now().After(deadline) {
			t.Fatalf("stale %q served %v past the lease deadline", v, time.Since(deadline))
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("never observed the new value")
}

// TestL1WriteOpsInvalidateImmediately: a write through the pool must not
// leave a lease-live stale entry behind — the next read re-earns the entry
// from the server, so it sees the write with no staleness window at all.
func TestL1WriteOpsInvalidateImmediately(t *testing.T) {
	_, pool := newL1PoolPair(t, 1024, time.Minute)
	pool.Set("k", []byte("v1"), 0)
	if v, ok := pool.Get("k"); !ok || string(v) != "v1" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	pool.Set("k", []byte("v2"), 0)
	if v, ok := pool.Get("k"); !ok || string(v) != "v2" {
		t.Fatalf("Get after Set = %q, %v; stale near-cache entry survived a pool write", v, ok)
	}
	if !pool.Delete("k") {
		t.Fatal("Delete = false")
	}
	if v, ok := pool.Get("k"); ok {
		t.Fatalf("Get after Delete = %q, want miss; stale near-cache entry survived", v)
	}
	if st := pool.L1Stats(); st.Invalidations == 0 {
		t.Fatalf("L1Stats = %+v, want invalidations > 0", st)
	}
}

// TestL1ApplyBatchInvalidates: invalidation-bus flushes ride ApplyBatch
// through the same pool, so a batched delete must drop the near-cache entry
// in the same call.
func TestL1ApplyBatchInvalidates(t *testing.T) {
	_, pool := newL1PoolPair(t, 1024, time.Minute)
	pool.Set("k", []byte("v"), 0)
	if _, ok := pool.Get("k"); !ok {
		t.Fatal("Get missed")
	}
	res := pool.ApplyBatch([]kvcache.BatchOp{{Kind: kvcache.BatchDelete, Key: "k"}})
	if len(res) != 1 || !res[0].Found {
		t.Fatalf("ApplyBatch = %+v", res)
	}
	if v, ok := pool.Get("k"); ok {
		t.Fatalf("Get after batched delete = %q, want miss", v)
	}
}

// TestL1BatchedGetsLeavesEntryBatchedCasDropsIt: a write-set flush reads its
// keys with a batch of gets before it writes any of them; the read must not
// cost the near-cache the entry (most of those keys are never written), and
// the cas that follows must.
func TestL1BatchedGetsLeavesEntryBatchedCasDropsIt(t *testing.T) {
	_, pool := newL1PoolPair(t, 1024, time.Minute)
	pool.Set("k", []byte("v"), 0)
	if _, ok := pool.Get("k"); !ok {
		t.Fatal("Get missed")
	}
	read := pool.ApplyBatch([]kvcache.BatchOp{{Kind: kvcache.BatchGets, Key: "k"}})
	if !read[0].Found || string(read[0].Data) != "v" {
		t.Fatalf("batched gets = %+v", read)
	}
	if st := pool.L1Stats(); st.Invalidations != 0 || st.Items != 1 {
		t.Fatalf("a read-only batch invalidated the near-cache: %+v", st)
	}
	res := pool.ApplyBatch([]kvcache.BatchOp{{Kind: kvcache.BatchCas, Key: "k", Value: []byte("w"), Cas: read[0].Cas}})
	if !res[0].Found {
		t.Fatalf("batched cas = %+v", res)
	}
	if v, ok := pool.Get("k"); !ok || string(v) != "w" {
		t.Fatalf("Get after batched cas = %q, %v; want the swapped value from the server", v, ok)
	}
}

// TestL1BatchedGet: to the near-cache a batched get is a Get. Entries it holds
// are answered locally — a batch it can answer whole makes no exchange at all
// — the rest of the batch travels and what the server finds is learned; no
// entry is invalidated by being read; and a batch that also mutates teaches
// nothing, since a learned value could predate the mutation.
func TestL1BatchedGet(t *testing.T) {
	store, pool := newL1PoolPair(t, 1024, time.Minute)
	for _, k := range []string{"held", "cold", "other"} {
		store.Set(k, []byte("v-"+k), 0)
	}
	if _, ok := pool.Get("held"); !ok {
		t.Fatal("Get missed")
	}
	store.Set("held", []byte("changed behind the lease"), 0)
	checkouts := func() int64 { st := pool.Stats(); return st.Dials + st.Reuses }

	before := checkouts()
	res := pool.ApplyBatch([]kvcache.BatchOp{
		{Kind: kvcache.BatchGet, Key: "held"},
		{Kind: kvcache.BatchGet, Key: "cold"},
		{Kind: kvcache.BatchGet, Key: "absent"},
	})
	want := []kvcache.BatchResult{
		{Found: true, Data: []byte("v-held")}, // the lease-live local copy
		{Found: true, Data: []byte("v-cold")},
		{},
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("results %+v, want %+v", res, want)
	}
	if n := checkouts() - before; n != 1 {
		t.Errorf("a partly held batch made %d exchanges, want 1", n)
	}
	if st := pool.L1Stats(); st.Invalidations != 0 || st.Items != 2 {
		t.Errorf("after the batch the near-cache reads %+v, want 2 items (cold learned) and nothing invalidated", st)
	}

	before = checkouts()
	res = pool.ApplyBatch([]kvcache.BatchOp{{Kind: kvcache.BatchGet, Key: "cold"}, {Kind: kvcache.BatchGet, Key: "held"}})
	if !res[0].Found || !res[1].Found || checkouts() != before {
		t.Errorf("a wholly held batch: %+v after %d exchanges, want two hits and none", res, checkouts()-before)
	}

	res = pool.ApplyBatch([]kvcache.BatchOp{
		{Kind: kvcache.BatchGet, Key: "other"},
		{Kind: kvcache.BatchSet, Key: "other", Value: []byte("newer")},
	})
	if string(res[0].Data) != "v-other" || !res[1].Found {
		t.Fatalf("mixed batch = %+v", res)
	}
	if v, ok := pool.Get("other"); !ok || string(v) != "newer" {
		t.Errorf("Get after a get+set batch = %q, %v; the near-cache learned the value the set replaced", v, ok)
	}
}

// TestL1FlushAllOrphansEverything: FlushAll must take the near-cache with
// it, immediately.
func TestL1FlushAllOrphansEverything(t *testing.T) {
	_, pool := newL1PoolPair(t, 1024, time.Minute)
	for i := 0; i < 16; i++ {
		k := fmt.Sprintf("k%d", i)
		pool.Set(k, []byte("v"), 0)
		pool.Get(k)
	}
	pool.FlushAll()
	for i := 0; i < 16; i++ {
		if v, ok := pool.Get(fmt.Sprintf("k%d", i)); ok {
			t.Fatalf("k%d = %q after FlushAll, want miss", i, v)
		}
	}
}

// TestL1StaysWithinSizeBound: the near-cache evicts rather than grow past
// its configured entry budget.
func TestL1StaysWithinSizeBound(t *testing.T) {
	const entries = 64
	_, pool := newL1PoolPair(t, entries, time.Minute)
	for i := 0; i < entries*4; i++ {
		k := fmt.Sprintf("k%d", i)
		pool.Set(k, []byte("v"), 0)
		pool.Get(k)
	}
	st := pool.L1Stats()
	if st.Items > entries {
		t.Fatalf("L1 holds %d entries, budget %d", st.Items, entries)
	}
	if st.Evictions == 0 {
		t.Fatalf("L1Stats = %+v, want evictions > 0 after 4x overfill", st)
	}
}

// TestL1ServesLeaseLiveEntriesWithServerDown: the freshest locally known
// value beats a guaranteed miss, so a lease-live entry is served even after
// the node dies (and stops being served once the lease expires).
func TestL1ServesLeaseLiveEntriesWithServerDown(t *testing.T) {
	store := kvcache.New(0)
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPoolWithConfig(PoolConfig{Addr: addr, MaxIdle: 2, L1Entries: 64, L1TTL: 200 * time.Millisecond})
	t.Cleanup(func() { _ = pool.Close() })
	pool.Set("k", []byte("v"), 0)
	if _, ok := pool.Get("k"); !ok {
		t.Fatal("Get missed")
	}
	_ = srv.Close()
	if v, ok := pool.Get("k"); !ok || string(v) != "v" {
		t.Fatalf("lease-live Get with server down = %q, %v, want hit", v, ok)
	}
	time.Sleep(250 * time.Millisecond)
	if v, ok := pool.Get("k"); ok {
		t.Fatalf("Get = %q after lease expiry with server down, want miss", v)
	}
}

// TestL1Concurrent is the -race drill: readers, writers, batch flushes and
// epoch bumps hammering the same stripes.
func TestL1Concurrent(t *testing.T) {
	_, pool := newL1PoolPair(t, 256, time.Millisecond)
	keys := make([]string, 32)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
		pool.Set(keys[i], []byte("v"), 0)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := keys[(g+i)%len(keys)]
				switch {
				case i%97 == 0:
					pool.FlushAll()
				case i%13 == 0:
					pool.Set(k, []byte("v"), 0)
				case i%7 == 0:
					pool.Delete(k)
				default:
					pool.Get(k)
				}
			}
		}(g)
	}
	wg.Wait()
	pool.L1Stats() // exercise the aggregate read under no contention
}

// BenchmarkL1Lookup must stay at 0 allocs/op (CI-gated): the near-cache
// exists to make hot reads cheaper, so its hit path cannot pay the
// allocator.
func BenchmarkL1Lookup(b *testing.B) {
	l := newL1(1024, time.Hour)
	now := time.Now().UnixNano()
	l.store("celebrity:bookmarks", []byte("v"), now)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := l.lookup("celebrity:bookmarks", now); !ok {
			b.Fatal("miss")
		}
	}
}
