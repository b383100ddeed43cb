package cluster

import (
	"fmt"
	"slices"
	"testing"

	"cachegenie/internal/kvcache"
)

func newTestRing(t *testing.T, n int) (*Ring, []*kvcache.Store) {
	t.Helper()
	stores := make([]*kvcache.Store, n)
	nodes := make([]kvcache.Cache, n)
	for i := range stores {
		stores[i] = kvcache.New(0)
		nodes[i] = stores[i]
	}
	r, err := NewRing(nodes)
	if err != nil {
		t.Fatal(err)
	}
	return r, stores
}

func TestRingRequiresNodes(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Fatal("empty ring accepted")
	}
}

func TestRingRoundTrip(t *testing.T) {
	r, _ := newTestRing(t, 3)
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%d", i)
		r.Set(k, []byte(fmt.Sprintf("v%d", i)), 0)
	}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%d", i)
		v, ok := r.Get(k)
		if !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(%s) = %q, %v", k, v, ok)
		}
	}
}

func TestRingStableAssignment(t *testing.T) {
	r, _ := newTestRing(t, 4)
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("key-%d", i)
		if r.NodeFor(k) != r.NodeFor(k) {
			t.Fatal("assignment not deterministic")
		}
	}
}

func TestRingSpreadsKeys(t *testing.T) {
	r, stores := newTestRing(t, 4)
	const keys = 2000
	for i := 0; i < keys; i++ {
		r.Set(fmt.Sprintf("key-%d", i), []byte("v"), 0)
	}
	total := 0
	for i, s := range stores {
		n := s.Len()
		total += n
		// With 128 vnodes, each of 4 nodes should hold 10%..45% of keys.
		if n < keys/10 || n > keys*45/100 {
			t.Errorf("node %d holds %d/%d keys — poor balance", i, n, keys)
		}
	}
	if total != keys {
		t.Fatalf("total %d, want %d (duplicate or lost keys)", total, keys)
	}
}

func TestRingSingleLogicalCacheNoDuplicates(t *testing.T) {
	// The same key always lands on the same node, so the effective capacity
	// is the sum of nodes (unlike per-server caches; paper §2 SI-cache
	// contrast).
	r, stores := newTestRing(t, 3)
	for rep := 0; rep < 10; rep++ {
		r.Set("hot-key", []byte("v"), 0)
	}
	holders := 0
	for _, s := range stores {
		if _, ok := s.Get("hot-key"); ok {
			holders++
		}
	}
	if holders != 1 {
		t.Fatalf("key present on %d nodes, want exactly 1", holders)
	}
}

func TestRingCasThroughRing(t *testing.T) {
	r, _ := newTestRing(t, 3)
	r.Set("k", []byte("v1"), 0)
	v, tok, ok := r.Gets("k")
	if !ok || string(v) != "v1" {
		t.Fatal("Gets through ring failed")
	}
	if res := r.Cas("k", []byte("v2"), 0, tok); res != kvcache.CasStored {
		t.Fatalf("Cas = %v", res)
	}
}

func TestRingIncrDeleteFlush(t *testing.T) {
	r, stores := newTestRing(t, 2)
	r.Set("n", []byte("5"), 0)
	if v, ok := r.Incr("n", 3); !ok || v != 8 {
		t.Fatalf("Incr = %d, %v", v, ok)
	}
	if !r.Delete("n") {
		t.Fatal("Delete = false")
	}
	r.Set("a", []byte("1"), 0)
	r.Set("b", []byte("2"), 0)
	r.FlushAll()
	for i, s := range stores {
		if s.Len() != 0 {
			t.Fatalf("node %d not flushed", i)
		}
	}
}

func TestRingApplyBatchRoutesToOwners(t *testing.T) {
	r, stores := newTestRing(t, 3)
	var ops []kvcache.BatchOp
	for i := 0; i < 60; i++ {
		ops = append(ops, kvcache.BatchOp{
			Kind: kvcache.BatchSet, Key: fmt.Sprintf("key-%d", i), Value: []byte(fmt.Sprintf("v%d", i)),
		})
	}
	res := r.ApplyBatch(ops)
	if len(res) != len(ops) {
		t.Fatalf("results = %d, want %d", len(res), len(ops))
	}
	// Every key landed on exactly the node the ring routes it to.
	for i := 0; i < 60; i++ {
		k := fmt.Sprintf("key-%d", i)
		owner := r.NodeFor(k)
		for ni, s := range stores {
			_, ok := s.GetQuiet(k)
			if ok != (ni == owner) {
				t.Fatalf("%s: present on node %d (owner %d)", k, ni, owner)
			}
		}
	}
	spread := 0
	for _, s := range stores {
		if s.Len() > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("batch landed on %d nodes, want a spread", spread)
	}
	// Mixed batch: results come back in input order with per-op outcomes.
	mixed := []kvcache.BatchOp{
		{Kind: kvcache.BatchDelete, Key: "key-0"},
		{Kind: kvcache.BatchDelete, Key: "never-existed"},
		{Kind: kvcache.BatchSet, Key: "key-0", Value: []byte("back")},
	}
	mres := r.ApplyBatch(mixed)
	if !mres[0].Found || mres[1].Found || !mres[2].Found {
		t.Fatalf("mixed results = %+v", mres)
	}
	if v, ok := r.Get("key-0"); !ok || string(v) != "back" {
		t.Fatalf("key-0 = %q/%v", v, ok)
	}
}

// TestPlacementTags: keys that share a tag — the text between a key's first
// '{' and the next '}' — share NodeFor, ReplicasFor and the one sub-batch
// ApplyBatch sends each of their nodes, at R = 1, 2 and 3. An untagged key
// and an empty tag place by the whole key.
func TestPlacementTags(t *testing.T) {
	for _, k := range []string{"plain", "cg:x:{}:7", "{}", "cg:x:{7", "cg:x:}7{", "cg:x:{}{7}"} {
		if placeHash(k) != hash64(k) {
			t.Errorf("%q does not place by the whole key", k)
		}
	}
	for _, k := range []string{"{7}", "cg:x:{7}", "cg:y:{7}:1:0", "cg:}:{7}:{8}"} {
		if placeHash(k) != hash64("7") {
			t.Errorf("%q does not place by its tag 7", k)
		}
	}
	for _, replicas := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("R=%d", replicas), func(t *testing.T) {
			logs := make([]*batchLog, 4)
			nodes := make([]kvcache.Cache, len(logs))
			for i := range logs {
				logs[i] = &batchLog{flakyNode: flakyNode{Cache: kvcache.New(0)}}
				logs[i].healthy.Store(true)
				nodes[i] = logs[i]
			}
			r, err := NewRing(nodes, WithReplicas(replicas))
			if err != nil {
				t.Fatal(err)
			}
			preferred := map[int]bool{}
			for tag := range 50 {
				keys := []string{
					fmt.Sprintf("cg:user_profile:{%d}", tag),
					fmt.Sprintf("cg:friends_of_user:{%d}", tag),
					fmt.Sprintf("cg:pending_invites:{%d}:0", tag),
				}
				set := r.ReplicasFor(keys[0])
				preferred[set[0]] = true
				var ops []kvcache.BatchOp
				var sets, gets []string
				for _, k := range keys {
					if r.NodeFor(k) != set[0] || !slices.Equal(r.ReplicasFor(k), set) {
						t.Fatalf("%s on %d/%v, %s on %d/%v", k, r.NodeFor(k), r.ReplicasFor(k), keys[0], set[0], set)
					}
					ops = append(ops, kvcache.BatchOp{Kind: kvcache.BatchSet, Key: k, Value: []byte("v")})
					sets = append(sets, "set "+k)
					gets = append(gets, "get "+k)
				}
				for _, k := range keys {
					ops = append(ops, kvcache.BatchOp{Kind: kvcache.BatchGet, Key: k})
				}
				r.ApplyBatch(ops)
				// Every replica is sent the sets in one sub-batch, and the
				// preferred one the gets with them.
				for n, l := range logs {
					var want [][]string
					if n == set[0] {
						want = [][]string{append(slices.Clone(sets), gets...)}
					} else if slices.Contains(set, n) {
						want = [][]string{sets}
					}
					if got := l.take(); got != fmt.Sprint(want) {
						t.Fatalf("tag %d (replicas %v): node %d was sent %s, want %s", tag, set, n, got, fmt.Sprint(want))
					}
				}
			}
			if len(preferred) < 2 {
				t.Fatalf("50 tags all placed on node %v", preferred)
			}
		})
	}
}
