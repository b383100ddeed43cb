package invbus

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"cachegenie/internal/kvcache"
)

// orderLog records apply order per key via OpCasUpdate descriptors.
type orderLog struct {
	mu    sync.Mutex
	byKey map[string][]int
}

func newOrderLog() *orderLog { return &orderLog{byKey: map[string][]int{}} }

func (l *orderLog) mark(key string, seq int) func(kvcache.Cache) {
	return func(kvcache.Cache) {
		l.mu.Lock()
		l.byKey[key] = append(l.byKey[key], seq)
		l.mu.Unlock()
	}
}

func TestPerKeyFIFOOrdering(t *testing.T) {
	store := kvcache.New(0)
	bus := New(Config{Cache: store, Shards: 3, BatchWindow: -1})
	defer bus.Close()

	log := newOrderLog()
	const keys = 17
	const perKey = 50
	// Interleave publishes across keys: seq is strictly increasing per key.
	for seq := 0; seq < perKey; seq++ {
		for k := 0; k < keys; k++ {
			key := fmt.Sprintf("key-%d", k)
			bus.Publish(Op{Kind: OpCasUpdate, Key: key, Update: log.mark(key, seq)})
		}
	}
	bus.Flush()
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("key-%d", k)
		got := log.byKey[key]
		if len(got) != perKey {
			t.Fatalf("%s: applied %d ops, want %d", key, len(got), perKey)
		}
		for i, seq := range got {
			if seq != i {
				t.Fatalf("%s: out of order at %d: %v", key, i, got[:i+1])
			}
		}
	}
}

// stallBus builds a single-shard bus whose worker is parked inside a flush,
// so subsequently published ops pile up in the queue and are collected (and
// coalesced) as one batch once release is closed.
func stallBus(t *testing.T, store *kvcache.Store, depth int) (bus *Bus, release chan struct{}) {
	t.Helper()
	bus = New(Config{Cache: store, Shards: 1, QueueDepth: depth, BatchWindow: -1, MaxBatch: 10000})
	release = make(chan struct{})
	entered := make(chan struct{})
	bus.Publish(Op{Kind: OpCasUpdate, Key: "stall", Update: func(kvcache.Cache) {
		close(entered)
		<-release
	}})
	<-entered // worker is now parked mid-flush
	return bus, release
}

func TestCoalesceRedundantDeletes(t *testing.T) {
	store := kvcache.New(0)
	store.Set("a", []byte("v"), 0)
	bus, release := stallBus(t, store, 1024)
	defer bus.Close()

	var found, notFound int
	var mu sync.Mutex
	done := func(r Result) {
		mu.Lock()
		defer mu.Unlock()
		if r.Found {
			found++
		} else {
			notFound++
		}
	}
	for i := 0; i < 10; i++ {
		bus.Publish(Op{Kind: OpDelete, Key: "a", Done: done})
	}
	close(release)
	bus.Flush()

	if _, ok := store.Get("a"); ok {
		t.Fatal("key survived deletion")
	}
	st := bus.Stats()
	if st.Coalesced != 9 {
		t.Fatalf("coalesced = %d, want 9", st.Coalesced)
	}
	if found != 1 || notFound != 9 {
		t.Fatalf("done callbacks: found=%d notFound=%d, want 1/9", found, notFound)
	}
	// 11 enqueued (stall + 10 deletes), 2 applied (stall + surviving delete).
	if st.Enqueued != 11 || st.Applied != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCoalesceSupersedeAndMergeRules(t *testing.T) {
	store := kvcache.New(0)
	store.Set("n", []byte("100"), 0)
	bus, release := stallBus(t, store, 1024)
	defer bus.Close()

	// set v1, set v2 -> one set (v2).
	bus.Publish(Op{Kind: OpSet, Key: "s", Value: []byte("v1")})
	bus.Publish(Op{Kind: OpSet, Key: "s", Value: []byte("v2")})
	// incr +1, +2, +3 -> one incr +6.
	var incrRes Result
	for d := int64(1); d <= 3; d++ {
		bus.Publish(Op{Kind: OpIncr, Key: "n", Delta: d, Done: func(r Result) { incrRes = r }})
	}
	// set then delete -> just the delete.
	bus.Publish(Op{Kind: OpSet, Key: "gone", Value: []byte("x")})
	bus.Publish(Op{Kind: OpDelete, Key: "gone"})
	close(release)
	bus.Flush()

	if v, ok := store.Get("s"); !ok || string(v) != "v2" {
		t.Fatalf("s = %q/%v, want v2", v, ok)
	}
	if v, ok := store.Get("n"); !ok || string(v) != "106" {
		t.Fatalf("n = %q/%v, want 106", v, ok)
	}
	if incrRes.Value != 106 || !incrRes.Found {
		t.Fatalf("merged incr result = %+v", incrRes)
	}
	if _, ok := store.Get("gone"); ok {
		t.Fatal("superseded set resurrected the key")
	}
	// Coalesced: 1 set + 2 incr merges + 1 set-under-delete = 4.
	if st := bus.Stats(); st.Coalesced != 4 {
		t.Fatalf("coalesced = %d, want 4 (%+v)", st.Coalesced, st)
	}
}

func TestCasUpdateOrderingAndSupersession(t *testing.T) {
	store := kvcache.New(0)
	bus, release := stallBus(t, store, 1024)
	defer bus.Close()

	// A CAS update observes every earlier op on its key (it supersedes
	// nothing)...
	var saw []byte
	bus.Publish(Op{Kind: OpSet, Key: "k", Value: []byte("first")})
	bus.Publish(Op{Kind: OpCasUpdate, Key: "k", Update: func(c kvcache.Cache) {
		saw, _ = c.Get("k")
	}})
	// ...while a later absolute op makes the key's final state independent
	// of a pending CAS update, so that one coalesces away unexecuted.
	ran := false
	bus.Publish(Op{Kind: OpCasUpdate, Key: "dead", Update: func(c kvcache.Cache) { ran = true }})
	bus.Publish(Op{Kind: OpSet, Key: "dead", Value: []byte("final")})
	close(release)
	bus.Flush()

	if string(saw) != "first" {
		t.Fatalf("cas update saw %q, want %q", saw, "first")
	}
	if ran {
		t.Fatal("superseded cas update still executed")
	}
	if v, _ := store.Get("dead"); string(v) != "final" {
		t.Fatalf("final value %q, want %q", v, "final")
	}
}

func TestFlushDrainsEverythingPublishedBefore(t *testing.T) {
	store := kvcache.New(0)
	bus := New(Config{Cache: store, Shards: 4, BatchWindow: 50 * time.Millisecond})
	defer bus.Close()
	const n = 200
	for i := 0; i < n; i++ {
		bus.Publish(Op{Kind: OpSet, Key: fmt.Sprintf("k-%d", i), Value: []byte("v")})
	}
	bus.Flush() // must not wait out the 50ms window n times
	if store.Len() != n {
		t.Fatalf("after Flush: %d keys stored, want %d", store.Len(), n)
	}
	if st := bus.Stats(); st.Applied != n {
		t.Fatalf("applied = %d, want %d", st.Applied, n)
	}
}

func TestCloseDrainsAndFallsBackToSync(t *testing.T) {
	store := kvcache.New(0)
	bus := New(Config{Cache: store, BatchWindow: 20 * time.Millisecond})
	for i := 0; i < 50; i++ {
		bus.Publish(Op{Kind: OpSet, Key: fmt.Sprintf("k-%d", i), Value: []byte("v")})
	}
	bus.Close()
	if store.Len() != 50 {
		t.Fatalf("Close left %d keys, want 50", store.Len())
	}
	// Ops after Close apply inline rather than vanishing.
	bus.Publish(Op{Kind: OpDelete, Key: "k-0"})
	if _, ok := store.Get("k-0"); ok {
		t.Fatal("post-Close publish was dropped")
	}
	bus.Close() // idempotent
}

// TestAsyncAmortizesConnectCost: ops that pile up behind a busy worker
// leave in one flush, so whatever an exchange with the cache costs is paid
// once for all of them.
func TestAsyncAmortizesConnectCost(t *testing.T) {
	store := kvcache.New(0)
	bus := New(Config{Cache: store, Shards: 1, BatchWindow: -1, MaxBatch: 10000})
	defer bus.Close()
	release := make(chan struct{})
	entered := make(chan struct{})
	bus.Publish(Op{Kind: OpCasUpdate, Key: "stall", Update: func(kvcache.Cache) {
		close(entered)
		<-release
	}})
	<-entered
	for i := 0; i < 100; i++ {
		bus.Publish(Op{Kind: OpSet, Key: fmt.Sprintf("k-%d", i), Value: []byte("v")})
	}
	close(release)
	bus.Flush()
	// One flush for the stall, one for the 100 queued ops.
	if st := bus.Stats(); st.Flushes != 2 || st.MaxBatch != 100 {
		t.Fatalf("flushes = %d, max batch = %d, want 2 and 100", st.Flushes, st.MaxBatch)
	}
}

func TestBackpressureBlocksPublishOnFullQueue(t *testing.T) {
	store := kvcache.New(0)
	bus, release := stallBus(t, store, 1)
	defer bus.Close()

	bus.Publish(Op{Kind: OpSet, Key: "a", Value: []byte("v")}) // fills depth-1 queue
	blocked := make(chan struct{})
	go func() {
		bus.Publish(Op{Kind: OpSet, Key: "b", Value: []byte("v")}) // must block
		close(blocked)
	}()
	select {
	case <-blocked:
		t.Fatal("publish did not block on a full shard queue")
	case <-time.After(30 * time.Millisecond):
	}
	close(release)
	select {
	case <-blocked:
	case <-time.After(2 * time.Second):
		t.Fatal("publish never unblocked after the worker drained")
	}
	bus.Flush()
	if _, ok := store.Get("b"); !ok {
		t.Fatal("backpressured op lost")
	}
}

func TestStatsTrackLagAndFlushes(t *testing.T) {
	store := kvcache.New(0)
	bus := New(Config{Cache: store, Shards: 1, BatchWindow: 5 * time.Millisecond})
	defer bus.Close()
	bus.Publish(Op{Kind: OpSet, Key: "k", Value: []byte("v")})
	bus.Flush()
	st := bus.Stats()
	if st.Flushes == 0 {
		t.Fatalf("flushes = 0, want > 0")
	}
	if st.MaxLag <= 0 {
		t.Fatalf("max lag = %v, want > 0", st.MaxLag)
	}
	if st.Enqueued != 1 || st.Applied != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestConcurrentPublishersDrainFully(t *testing.T) {
	store := kvcache.New(0)
	bus := New(Config{Cache: store, Shards: 4, QueueDepth: 64, BatchWindow: time.Millisecond})
	const goroutines = 8
	const perG = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				bus.Publish(Op{Kind: OpIncr, Key: fmt.Sprintf("ctr-%d", i%7), Delta: 1})
				if i%50 == 0 {
					bus.Flush()
				}
			}
		}(g)
	}
	wg.Wait()
	bus.Close()
	st := bus.Stats()
	if st.Enqueued != goroutines*perG {
		t.Fatalf("enqueued = %d", st.Enqueued)
	}
	if st.Applied+st.Coalesced != st.Enqueued {
		t.Fatalf("applied %d + coalesced %d != enqueued %d", st.Applied, st.Coalesced, st.Enqueued)
	}
}

func TestStatsCountQueueFullStalls(t *testing.T) {
	store := kvcache.New(0)
	bus, release := stallBus(t, store, 1)
	defer bus.Close()

	// Queue empty: this fill does not stall.
	bus.Publish(Op{Kind: OpSet, Key: "a", Value: []byte("v")})
	if st := bus.Stats(); st.QueueFullStalls != 0 || st.StallTime != 0 {
		t.Fatalf("premature stall accounting: %+v", st)
	}

	unblocked := make(chan struct{})
	go func() {
		// Queue holds "a" and the worker is parked: this Publish must stall.
		bus.Publish(Op{Kind: OpSet, Key: "b", Value: []byte("v")})
		close(unblocked)
	}()
	// The stall counter increments before the publisher parks, so we can
	// wait for the park deterministically.
	deadline := time.Now().Add(2 * time.Second)
	for bus.Stats().QueueFullStalls == 0 {
		if time.Now().After(deadline) {
			t.Fatal("publisher never stalled on the full queue")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	select {
	case <-unblocked:
	case <-time.After(2 * time.Second):
		t.Fatal("stalled publish never completed")
	}
	bus.Flush()
	st := bus.Stats()
	if st.QueueFullStalls != 1 {
		t.Fatalf("queue-full stalls = %d, want 1", st.QueueFullStalls)
	}
	if st.StallTime <= 0 {
		t.Fatalf("stall time = %v, want > 0", st.StallTime)
	}
	if _, ok := store.Get("b"); !ok {
		t.Fatal("stalled op lost")
	}
}

// TestSupersededCasUpdateDoneReportsNotFound pins the documented corner of
// the Result contract: an OpCasUpdate superseded by a later Delete or Set on
// the same key never executes, and its Done reports Found:false (the
// read-modify-write did not run), while the superseding op completes
// normally.
func TestSupersededCasUpdateDoneReportsNotFound(t *testing.T) {
	store := kvcache.New(0)
	bus, release := stallBus(t, store, 1024)
	defer bus.Close()

	ran := false
	var casRes, setRes Result
	var casDone, setDone sync.WaitGroup
	casDone.Add(1)
	setDone.Add(1)
	bus.Publish(Op{
		Kind: OpCasUpdate, Key: "k",
		Update: func(c kvcache.Cache) { ran = true },
		Done:   func(r Result) { casRes = r; casDone.Done() },
	})
	bus.Publish(Op{
		Kind: OpSet, Key: "k", Value: []byte("winner"),
		Done: func(r Result) { setRes = r; setDone.Done() },
	})
	close(release)
	bus.Flush()
	casDone.Wait()
	setDone.Wait()
	if ran {
		t.Fatal("superseded CAS update executed")
	}
	if casRes.Found {
		t.Fatalf("superseded CAS update Done = %+v, want Found:false", casRes)
	}
	if !setRes.Found {
		t.Fatalf("superseding set Done = %+v, want Found:true", setRes)
	}
	if v, ok := store.Get("k"); !ok || string(v) != "winner" {
		t.Fatalf("k = %q, %v", v, ok)
	}
}
