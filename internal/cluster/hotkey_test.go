package cluster

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"cachegenie/internal/hotkey"
	"cachegenie/internal/kvcache"
)

// countingNode counts Gets so the tests can see where reads actually land.
type countingNode struct {
	kvcache.Cache
	gets atomic.Int64
}

func (c *countingNode) Get(key string) ([]byte, bool) {
	c.gets.Add(1)
	return c.Cache.Get(key)
}

func newHotRing(t *testing.T, n, replicas int, cfg hotkey.Config) (*Ring, []*countingNode) {
	t.Helper()
	counted := make([]*countingNode, n)
	nodes := make([]kvcache.Cache, n)
	for i := range nodes {
		counted[i] = &countingNode{Cache: kvcache.New(0)}
		nodes[i] = counted[i]
	}
	r, err := NewRing(nodes, WithReplicas(replicas), WithHotKeySpreading(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return r, counted
}

// TestHotReadSpreading: once a key crosses the hot threshold its reads
// rotate over the full replica set instead of hammering the preferred
// replica, and the stats show the spreading.
func TestHotReadSpreading(t *testing.T) {
	const reads = 2000
	r, counted := newHotRing(t, 4, 2, hotkey.Config{Window: 1 << 20, Threshold: 64})
	key := "celebrity:bookmarks"
	r.Set(key, []byte("v"), 0)
	set := r.ReplicasFor(key)
	if len(set) != 2 {
		t.Fatalf("ReplicasFor = %v, want 2 replicas", set)
	}
	baseline := make([]int64, len(counted))
	for i, c := range counted {
		baseline[i] = c.gets.Load()
	}
	for i := 0; i < reads; i++ {
		if v, ok := r.Get(key); !ok || string(v) != "v" {
			t.Fatalf("read %d: got %q/%v, want v/true", i, v, ok)
		}
	}
	onPref := counted[set[0]].gets.Load() - baseline[set[0]]
	onSecond := counted[set[1]].gets.Load() - baseline[set[1]]
	if onPref+onSecond < reads {
		t.Fatalf("replica set served %d+%d of %d reads", onPref, onSecond, reads)
	}
	// Pre-threshold reads all land preferred; after that the rotation
	// should split roughly evenly. Require the second replica to carry at
	// least a third — far above the zero it gets preferred-first.
	if onSecond < reads/3 {
		t.Fatalf("second replica served %d of %d reads; spreading not engaged (preferred %d)", onSecond, reads, onPref)
	}
	st := r.HotKeyStats()
	if st.Observed < reads {
		t.Fatalf("Observed = %d, want >= %d", st.Observed, reads)
	}
	if st.SpreadReads == 0 || st.Flagged == 0 {
		t.Fatalf("SpreadReads = %d, Flagged = %d, want both > 0", st.SpreadReads, st.Flagged)
	}
	// Non-replica nodes saw none of this key's reads.
	for i, c := range counted {
		if i == set[0] || i == set[1] {
			continue
		}
		if got := c.gets.Load() - baseline[i]; got != 0 {
			t.Fatalf("non-replica node %d served %d reads", i, got)
		}
	}
}

// TestColdKeysKeepPreferredRouting: below the threshold reads stay
// preferred-first, so CAS-coherence-sensitive traffic is untouched.
func TestColdKeysKeepPreferredRouting(t *testing.T) {
	r, counted := newHotRing(t, 4, 2, hotkey.Config{Window: 1 << 20, Threshold: 1 << 20})
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("key-%d", i)
		r.Set(key, []byte("v"), 0)
		set := r.ReplicasFor(key)
		before := counted[set[1]].gets.Load()
		if _, ok := r.Get(key); !ok {
			t.Fatalf("miss on %s", key)
		}
		if got := counted[set[1]].gets.Load() - before; got != 0 {
			t.Fatalf("cold key %s read the non-preferred replica %d times", key, got)
		}
	}
	if st := r.HotKeyStats(); st.SpreadReads != 0 {
		t.Fatalf("SpreadReads = %d for all-cold traffic, want 0", st.SpreadReads)
	}
}

// TestSpreadReadRepairsMissingReplica: a rotated read that falls through a
// replica missing the hot value repairs it, so the spread capacity heals
// instead of half the rotated reads degrading to fall-throughs.
func TestSpreadReadRepairsMissingReplica(t *testing.T) {
	r, _ := newHotRing(t, 4, 2, hotkey.Config{Window: 1 << 20, Threshold: 16})
	key := "celebrity:bookmarks"
	r.Set(key, []byte("v"), 0)
	set := r.ReplicasFor(key)
	// Make it hot first, then knock the value out of one replica only.
	for i := 0; i < 64; i++ {
		r.Get(key)
	}
	r.nodes[set[1]].(*countingNode).Cache.Delete(key)
	for i := 0; i < 8; i++ {
		if _, ok := r.Get(key); !ok {
			t.Fatalf("hot read missed with one replica still holding the value")
		}
	}
	if _, ok := r.nodes[set[1]].(*countingNode).Cache.(*kvcache.Store).Get(key); !ok {
		t.Fatalf("missing replica was not repaired by rotated reads")
	}
	if st := r.HotKeyStats(); st.SpreadRepairs == 0 {
		t.Fatalf("SpreadRepairs = 0 after repairing a knocked-out replica")
	}
}

// TestHotSpreadingSurvivesRebuild: Manager membership changes must carry
// the sampler and its counters into the rebuilt ring.
func TestHotSpreadingSurvivesRebuild(t *testing.T) {
	nodes := make([]kvcache.Cache, 3)
	ids := make([]string, 3)
	for i := range nodes {
		nodes[i] = kvcache.New(0)
		ids[i] = fmt.Sprintf("n%d", i)
	}
	m, err := NewManager(ids, nodes, WithReplicas(2), WithHotKeySpreading(hotkey.Config{Window: 1 << 20, Threshold: 16}))
	if err != nil {
		t.Fatal(err)
	}
	key := "hot"
	m.Set(key, []byte("v"), 0)
	for i := 0; i < 64; i++ {
		m.Get(key)
	}
	before := m.HotKeyStats()
	if before.Observed == 0 || before.Flagged == 0 {
		t.Fatalf("sampler idle before rebuild: %+v", before)
	}
	if err := m.AddNode("n3", kvcache.New(0)); err != nil {
		t.Fatal(err)
	}
	after := m.HotKeyStats()
	if after.Observed < before.Observed || after.Flagged < before.Flagged {
		t.Fatalf("hot-key counters went backwards across rebuild: %+v -> %+v", before, after)
	}
	m.Set(key, []byte("v"), 0)
	for i := 0; i < 64; i++ {
		if _, ok := m.Get(key); !ok {
			t.Fatalf("hot read missed after rebuild")
		}
	}
	if final := m.HotKeyStats(); final.Observed <= after.Observed {
		t.Fatalf("sampler stopped observing after rebuild: %+v", final)
	}
}

// TestHotSpreadingConcurrent is the -race drill over the rotated read
// path: concurrent hot reads, writes and a membership change.
func TestHotSpreadingConcurrent(t *testing.T) {
	nodes := make([]kvcache.Cache, 4)
	ids := make([]string, 4)
	for i := range nodes {
		nodes[i] = kvcache.New(0)
		ids[i] = fmt.Sprintf("n%d", i)
	}
	m, err := NewManager(ids, nodes, WithReplicas(2), WithHotKeySpreading(hotkey.Config{Window: 2048, Threshold: 16}))
	if err != nil {
		t.Fatal(err)
	}
	key := "hot"
	m.Set(key, []byte("v"), 0)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				switch {
				case i%64 == 0:
					m.Set(key, []byte("v"), 0)
				default:
					m.Get(key)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := m.RemoveNode("n3"); err != nil {
			t.Error(err)
		}
		if err := m.AddNode("n3", kvcache.New(0)); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
}

// TestHotBatchGetSpreading: batched gets feed the popularity sampler as Get
// does, and once a key is flagged its batched reads rotate over the replica
// set, skipping a replica that reports unhealthy.
func TestHotBatchGetSpreading(t *testing.T) {
	const waves = 1000
	r, nodes, _ := newLoggedPair(t, WithReplicas(2),
		WithHotKeySpreading(hotkey.Config{Window: 1 << 20, Threshold: 64}))
	hot, cold := "celebrity:bookmarks", "nobody:bookmarks"
	r.Set(hot, []byte("v"), 0)
	r.Set(cold, []byte("w"), 0)
	reads := func(n *batchLog, key string) (count int) {
		n.mu.Lock()
		defer n.mu.Unlock()
		for _, b := range n.batches {
			for _, op := range b {
				if op == "get "+key {
					count++
				}
			}
		}
		return count
	}
	for i := 0; i < waves; i++ {
		ops := []kvcache.BatchOp{{Kind: kvcache.BatchGet, Key: hot}}
		if i == 0 {
			ops = append(ops, kvcache.BatchOp{Kind: kvcache.BatchGet, Key: cold})
		}
		if res := r.ApplyBatch(ops); !res[0].Found || string(res[0].Data) != "v" {
			t.Fatalf("wave %d: %+v", i, res)
		}
	}
	pref, second := r.ReplicasFor(hot)[0], r.ReplicasFor(hot)[1]
	if on := reads(nodes[second], hot); on < waves/3 {
		t.Fatalf("second replica served %d of %d batched reads of the hot key (preferred %d)", on, waves, reads(nodes[pref], hot))
	}
	if on := reads(nodes[r.ReplicasFor(cold)[1]], cold); on != 0 {
		t.Fatalf("the cold key was read %d times off its preferred replica", on)
	}
	st := r.HotKeyStats()
	if st.Observed != waves+1 || st.Flagged == 0 || st.SpreadReads == 0 {
		t.Fatalf("hot-key stats %+v, want %d observed and spread reads counted", st, waves+1)
	}
	nodes[second].healthy.Store(false)
	nodes[pref].take()
	nodes[second].take()
	for i := 0; i < 20; i++ {
		r.ApplyBatch([]kvcache.BatchOp{{Kind: kvcache.BatchGet, Key: hot}})
	}
	if on, off := reads(nodes[pref], hot), reads(nodes[second], hot); on != 20 || off != 0 {
		t.Fatalf("with the second replica unhealthy: %d reads on the healthy one, %d on the other", on, off)
	}
}

// TestSingleOwnerBatchGetFeedsSampler: at R = 1 reads cannot spread, but the
// sampler still sees every batched get.
func TestSingleOwnerBatchGetFeedsSampler(t *testing.T) {
	r, _ := newHotRing(t, 2, 1, hotkey.Config{Window: 1 << 20, Threshold: 64})
	ops := []kvcache.BatchOp{{Kind: kvcache.BatchGet, Key: "a"}, {Kind: kvcache.BatchGet, Key: "b"}, {Kind: kvcache.BatchDelete, Key: "c"}}
	r.ApplyBatch(ops)
	if st := r.HotKeyStats(); st.Observed != 2 {
		t.Fatalf("Observed = %d after a batch of two gets and a delete, want 2", st.Observed)
	}
}

// TestSamplerHashesWholeKeys: routing places keys by their tag, but the
// sampler counts each whole key, so flooding one key of a tag — by Get at
// R = 2 and by batched get at R = 1 and 2 — flags that key and not its
// siblings, whose reads stay on the preferred replica.
func TestSamplerHashesWholeKeys(t *testing.T) {
	const reads = 500
	hot, sibling := "cg:latest_wall_posts:{7}", "cg:user_profile:{7}"
	batch := func(r *Ring, key string) { r.ApplyBatch([]kvcache.BatchOp{{Kind: kvcache.BatchGet, Key: key}}) }
	for _, tc := range []struct {
		name     string
		replicas int
		read     func(r *Ring, key string)
	}{
		{"get", 2, func(r *Ring, key string) { r.Get(key) }},
		{"batch/R=1", 1, batch},
		{"batch/R=2", 2, batch},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, counted := newHotRing(t, 4, tc.replicas, hotkey.Config{Window: 1 << 20, Threshold: 64})
			r.Set(hot, []byte("v"), 0)
			r.Set(sibling, []byte("w"), 0)
			set := r.ReplicasFor(sibling)
			if !slices.Equal(r.ReplicasFor(hot), set) {
				t.Fatalf("keys of one tag on replica sets %v and %v", r.ReplicasFor(hot), set)
			}
			for range reads {
				tc.read(r, hot)
			}
			if !r.hot.det.Hot(hash64(hot)) {
				t.Fatalf("%s not flagged after %d reads", hot, reads)
			}
			if r.hot.det.Hot(hash64(sibling)) {
				t.Fatalf("%s flagged along with its tag's hot key", sibling)
			}
			if tc.replicas == 1 {
				return
			}
			spread := r.HotKeyStats().SpreadReads
			before := counted[set[1]].gets.Load()
			for range 20 {
				tc.read(r, sibling)
			}
			if off := counted[set[1]].gets.Load() - before; off != 0 {
				t.Fatalf("the cold sibling was read %d times off its preferred replica", off)
			}
			if got := r.HotKeyStats().SpreadReads; got != spread {
				t.Fatalf("reading the cold sibling spread %d reads", got-spread)
			}
		})
	}
}
