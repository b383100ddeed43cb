package cacheproto

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"cachegenie/internal/kvcache"
)

func newPoolPair(t *testing.T, maxIdle int) (*kvcache.Store, *Pool) {
	t.Helper()
	store := kvcache.New(0)
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	pool := NewPool(addr, maxIdle)
	t.Cleanup(func() { _ = pool.Close() })
	return store, pool
}

func TestPoolRoundTripAllOps(t *testing.T) {
	store, pool := newPoolPair(t, 2)
	pool.Set("k", []byte("v1"), 0)
	if v, ok := pool.Get("k"); !ok || string(v) != "v1" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if pool.Add("k", []byte("nope"), 0) {
		t.Fatal("Add over existing key succeeded")
	}
	v, tok, ok := pool.Gets("k")
	if !ok || string(v) != "v1" {
		t.Fatalf("Gets = %q, %v", v, ok)
	}
	if r := pool.Cas("k", []byte("v2"), 0, tok); r != kvcache.CasStored {
		t.Fatalf("Cas = %v", r)
	}
	pool.Set("n", []byte("10"), 0)
	if n, ok := pool.Incr("n", 7); !ok || n != 17 {
		t.Fatalf("Incr = %d, %v", n, ok)
	}
	if !pool.Delete("n") {
		t.Fatal("Delete = false")
	}
	pool.FlushAll()
	if store.Len() != 0 {
		t.Fatalf("store has %d items after FlushAll", store.Len())
	}
	if _, err := pool.ServerStats(); err != nil {
		t.Fatalf("ServerStats: %v", err)
	}
}

// TestPoolOneOpExchanges: a per-op call is a one-op mop exchange that is
// still recorded under its own op label, and it allocates no more than the
// value a read returns: the op and its result live on the stack. With the
// near-cache on, a Get the L1 answers allocates nothing and records nothing.
func TestPoolOneOpExchanges(t *testing.T) {
	_, pool := newPoolPair(t, 2)
	val := []byte("value")
	pool.Set("k", val, 0)
	pool.Get("k")
	pool.Delete("gone")
	pool.ApplyBatch([]kvcache.BatchOp{{Kind: kvcache.BatchGet, Key: "k"}})
	for k, want := range map[opKind]uint64{opSet: 1, opGet: 1, opDelete: 1, opMop: 1, opGets: 0} {
		if n := pool.m.OpNanos[k].Snapshot().Count; n != want {
			t.Errorf("op=%s recorded %d exchanges, want %d", opNames[k], n, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { pool.Set("k", val, 0) }); n != 0 {
		t.Errorf("Set allocates %.0f times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { pool.Get("k") }); n > 1 {
		t.Errorf("Get allocates %.0f times, want at most 1", n)
	}

	_, l1 := newL1PoolPair(t, 16, time.Minute)
	l1.Set("k", val, 0)
	l1.Get("k") // learned
	if n := testing.AllocsPerRun(100, func() { l1.Get("k") }); n != 0 {
		t.Errorf("near-cache Get allocates %.0f times, want 0", n)
	}
	if n := l1.m.OpNanos[opGet].Snapshot().Count; n != 1 {
		t.Errorf("op=get recorded %d exchanges, want 1 (the rest were near-cache hits)", n)
	}
}

func TestPoolReusesConnections(t *testing.T) {
	_, pool := newPoolPair(t, 4)
	for i := 0; i < 50; i++ {
		pool.Set(fmt.Sprintf("k%d", i), []byte("v"), 0)
	}
	st := pool.Stats()
	// Sequential ops: the first checkout dials, every later one reuses.
	if st.Dials != 1 {
		t.Fatalf("dials = %d, want 1 (stats %+v)", st.Dials, st)
	}
	if st.Reuses < 40 {
		t.Fatalf("reuses = %d, want >= 40", st.Reuses)
	}
	if st.Idle != 1 {
		t.Fatalf("idle = %d, want 1", st.Idle)
	}
}

func TestPoolBoundsIdleConns(t *testing.T) {
	_, pool := newPoolPair(t, 2)
	// 8 concurrent batches force up to 8 simultaneous checkouts; on return
	// only maxIdle park.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				k := fmt.Sprintf("g%d-k%d", g, i)
				pool.Set(k, []byte("v"), 0)
				if v, ok := pool.Get(k); !ok || string(v) != "v" {
					t.Errorf("round trip %s failed: %q %v", k, v, ok)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := pool.Stats()
	if st.Idle > 2 {
		t.Fatalf("idle = %d, want <= 2 (stats %+v)", st.Idle, st)
	}
	if st.Dials < 1 || st.Discards != 0 {
		t.Fatalf("unexpected stats %+v", st)
	}
}

func TestPoolApplyBatchPipelined(t *testing.T) {
	store, pool := newPoolPair(t, 2)
	store.Set("old", []byte("x"), 0)
	store.Set("ctr", []byte("9"), 0)
	ops := []kvcache.BatchOp{
		{Kind: kvcache.BatchSet, Key: "a", Value: []byte("va")},
		{Kind: kvcache.BatchIncr, Key: "ctr", Delta: 1},
		{Kind: kvcache.BatchDelete, Key: "old"},
	}
	res := pool.ApplyBatch(ops)
	if !res[0].Found || !res[1].Found || res[1].Value != 10 || !res[2].Found {
		t.Fatalf("batch results = %+v", res)
	}
	// The connection stays framed and parks for reuse.
	if v, ok := pool.Get("a"); !ok || string(v) != "va" {
		t.Fatalf("Get after batch = %q, %v", v, ok)
	}
	if st := pool.Stats(); st.Dials != 1 {
		t.Fatalf("dials = %d, want 1", st.Dials)
	}
	if res := pool.ApplyBatch(nil); len(res) != 0 {
		t.Fatalf("empty batch returned %d results", len(res))
	}
}

func TestPoolDiscardsBrokenConns(t *testing.T) {
	store := kvcache.New(0)
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(addr, 4)
	defer pool.Close()
	pool.Set("k", []byte("v"), 0)
	// Kill the server: the parked conn is now dead.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := pool.Get("k"); ok {
		t.Fatal("Get succeeded against a dead server")
	}
	st := pool.Stats()
	if st.Discards == 0 {
		t.Fatalf("dead conn not discarded: %+v", st)
	}
	if st.Idle != 0 {
		t.Fatalf("dead conn parked: %+v", st)
	}

	// A replacement server on the same address heals the pool: fresh dials,
	// no poisoned state left over.
	store2 := kvcache.New(0)
	srv2 := NewServer(store2)
	if _, err := srv2.Listen(addr); err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	pool.Set("k2", []byte("v2"), 0)
	if v, ok := pool.Get("k2"); !ok || string(v) != "v2" {
		t.Fatalf("pool did not recover: %q, %v", v, ok)
	}
}

func TestPoolCloseDegradesToMisses(t *testing.T) {
	_, pool := newPoolPair(t, 2)
	pool.Set("k", []byte("v"), 0)
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := pool.Get("k"); ok {
		t.Fatal("Get succeeded on a closed pool")
	}
	pool.Set("k2", []byte("v"), 0) // must not panic
	if res := pool.ApplyBatch([]kvcache.BatchOp{{Kind: kvcache.BatchDelete, Key: "k"}}); res[0].Found {
		t.Fatal("batch op reported success on a closed pool")
	}
	if err := pool.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestPoolConcurrentMixedOps(t *testing.T) {
	store, pool := newPoolPair(t, 4)
	store.Set("ctr", []byte("0"), 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				switch i % 4 {
				case 0:
					pool.Set(fmt.Sprintf("g%d-%d", g, i), []byte("v"), 0)
				case 1:
					pool.Get(fmt.Sprintf("g%d-%d", g, i-1))
				case 2:
					pool.Incr("ctr", 1)
				default:
					pool.ApplyBatch([]kvcache.BatchOp{
						{Kind: kvcache.BatchSet, Key: fmt.Sprintf("b%d-%d", g, i), Value: []byte("bv")},
						{Kind: kvcache.BatchDelete, Key: fmt.Sprintf("g%d-%d", g, i-3)},
					})
				}
			}
		}(g)
	}
	wg.Wait()
	// Each goroutine hits the incr arm for i = 2, 6, ..., 26: 7 times.
	if n, ok := store.Get("ctr"); !ok || string(n) != "56" {
		t.Fatalf("ctr = %s, %v, want 56 (8 goroutines x 7 incrs)", n, ok)
	}
	if st := pool.Stats(); st.Discards != 0 {
		t.Fatalf("healthy run discarded conns: %+v", st)
	}
}

// waitForState polls until the pool reaches want or the deadline passes.
func waitForState(t *testing.T, pool *Pool, want BreakerState) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if pool.State() == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("pool state = %v after 5s, want %v (stats %+v)", pool.State(), want, pool.Stats())
}

func TestPoolBreakerLifecycle(t *testing.T) {
	store := kvcache.New(0)
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPoolWithConfig(PoolConfig{
		Addr: addr, MaxIdle: 2, FailThreshold: 3, ProbeInterval: 5 * time.Millisecond,
	})
	defer pool.Close()

	pool.Set("k", []byte("v"), 0)
	if got := pool.State(); got != BreakerClosed {
		t.Fatalf("healthy pool state = %v", got)
	}

	// Kill the node: the parked conn fails once, then fresh dials fail until
	// the threshold trips the breaker.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, ok := pool.Get("k"); ok {
			t.Fatal("Get succeeded against a dead server")
		}
	}
	if got := pool.State(); got != BreakerOpen {
		t.Fatalf("state after %d failures = %v, want open (stats %+v)", 3, got, pool.Stats())
	}
	st := pool.Stats()
	if st.Trips != 1 {
		t.Fatalf("trips = %d, want 1", st.Trips)
	}

	// Open breaker: ops fail fast with zero dials.
	dialsBefore := st.Dials
	for i := 0; i < 50; i++ {
		if _, ok := pool.Get("k"); ok {
			t.Fatal("fail-fast Get returned a hit")
		}
	}
	st = pool.Stats()
	if st.Dials != dialsBefore {
		t.Fatalf("open breaker dialed: %d -> %d", dialsBefore, st.Dials)
	}
	if st.FailFast < 50 {
		t.Fatalf("failFast = %d, want >= 50", st.FailFast)
	}

	// While the node stays dead the probe keeps trying and the breaker stays
	// open (passing through half-open during each attempt).
	deadline := time.Now().Add(2 * time.Second)
	for pool.Stats().Probes == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if pool.Stats().Probes == 0 {
		t.Fatal("no probe attempted while open")
	}
	if got := pool.State(); got == BreakerClosed {
		t.Fatalf("breaker closed against a dead node")
	}

	// Revive the node on the same address: the probe closes the breaker and
	// operations flow again.
	store2 := kvcache.New(0)
	srv2 := NewServer(store2)
	if _, err := srv2.Listen(addr); err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	waitForState(t, pool, BreakerClosed)
	pool.Set("k2", []byte("v2"), 0)
	if v, ok := pool.Get("k2"); !ok || string(v) != "v2" {
		t.Fatalf("pool did not recover: %q, %v", v, ok)
	}
}

func TestPoolBreakerDisabled(t *testing.T) {
	store := kvcache.New(0)
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPoolWithConfig(PoolConfig{Addr: addr, MaxIdle: 2, DisableBreaker: true})
	defer pool.Close()
	pool.Set("k", []byte("v"), 0)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Every op keeps attempting a dial; the breaker never trips. The first
	// Get burns the parked conn; the other 9 each pay a failed dial.
	for i := 0; i < 10; i++ {
		if _, ok := pool.Get("k"); ok {
			t.Fatal("Get succeeded against a dead server")
		}
	}
	st := pool.Stats()
	if st.Trips != 0 || st.State != BreakerClosed {
		t.Fatalf("disabled breaker tripped: %+v", st)
	}
	if st.DialFails < 9 {
		t.Fatalf("dialFails = %d, want >= 9 — the disabled breaker must keep paying the dial storm", st.DialFails)
	}
	if st.FailFast != 0 {
		t.Fatalf("failFast = %d with breaker disabled", st.FailFast)
	}
}

func TestPoolSuccessResetsFailureCount(t *testing.T) {
	store := kvcache.New(0)
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pool := NewPoolWithConfig(PoolConfig{Addr: addr, MaxIdle: 2, FailThreshold: 3})
	defer pool.Close()
	// Alternate one failure with one success: the consecutive count resets
	// each round and the breaker must never trip, even though total
	// failures exceed the threshold. Failures are injected by hand through
	// put(c, err) — the exact path every broken operation takes.
	for round := 0; round < 5; round++ {
		c, err := pool.get()
		if err != nil {
			t.Fatal(err)
		}
		pool.put(c, fmt.Errorf("injected op failure"))
		pool.Set("ok", []byte("v"), 0)
	}
	if st := pool.Stats(); st.Trips != 0 || st.State != BreakerClosed {
		t.Fatalf("breaker tripped without consecutive failures: %+v", st)
	}
}

func TestPoolCapsTotalConnections(t *testing.T) {
	_, pool := newPoolPairCfg(t, PoolConfig{MaxIdle: 2, MaxConns: 2})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				k := fmt.Sprintf("g%d-k%d", g, i)
				pool.Set(k, []byte("v"), 0)
				if v, ok := pool.Get(k); !ok || string(v) != "v" {
					t.Errorf("round trip %s failed: %q %v", k, v, ok)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := pool.Stats()
	if st.Conns > 2 {
		t.Fatalf("conns = %d, want <= 2 (stats %+v)", st.Conns, st)
	}
	// A healthy run never discards, so connections live forever: at most
	// MaxConns dials can ever have happened.
	if st.Dials > 2 {
		t.Fatalf("dials = %d, want <= 2 — the cap did not stop burst dialing (stats %+v)", st.Dials, st)
	}
	if st.Waits == 0 {
		t.Fatalf("8 goroutines over a 2-conn cap never waited: %+v", st)
	}
	if st.Discards != 0 {
		t.Fatalf("healthy run discarded conns: %+v", st)
	}
}

// newPoolPairCfg is newPoolPair with explicit pool configuration.
func newPoolPairCfg(t *testing.T, cfg PoolConfig) (*kvcache.Store, *Pool) {
	t.Helper()
	store := kvcache.New(0)
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	cfg.Addr = addr
	pool := NewPoolWithConfig(cfg)
	t.Cleanup(func() { _ = pool.Close() })
	return store, pool
}

func TestPoolCloseUnblocksWaiters(t *testing.T) {
	_, pool := newPoolPairCfg(t, PoolConfig{MaxIdle: 1, MaxConns: 1})
	// Hold the only connection via a checked-out client.
	c, err := pool.get()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		pool.Get("k") // blocks on the cap
	}()
	time.Sleep(10 * time.Millisecond)
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("waiter not released by Close")
	}
	pool.put(c, nil) // returning after close must not panic
}
