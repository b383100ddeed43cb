package cluster

import (
	"fmt"
	"sync"
	"testing"

	"cachegenie/internal/kvcache"
)

func newTestManager(t *testing.T, n int) (*Manager, []string, []*kvcache.Store) {
	t.Helper()
	ids := make([]string, n)
	stores := make([]*kvcache.Store, n)
	nodes := make([]kvcache.Cache, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("10.0.0.%d:11311", i+1) // address-shaped stable ids
		stores[i] = kvcache.New(0)
		nodes[i] = stores[i]
	}
	m, err := NewManager(ids, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return m, ids, stores
}

// TestRemoveNodeRemapsOnlyItsShare is the regression test for the
// index-based vnode hashing bug: removing one node must remap only the keys
// that node owned (~1/N of them), and every key owned by a survivor must
// keep its owner. Under the old "node-<index>-vn-<v>" scheme, removing node
// k renumbered all successors and remapped roughly (N-k-1)/N of the
// keyspace on nodes that never moved. Half the keys carry placement tags,
// eight to a tag, and a tag's keys move together.
func TestRemoveNodeRemapsOnlyItsShare(t *testing.T) {
	const nodes = 4
	const keys = 16000
	m, ids, _ := newTestManager(t, nodes)

	before := make(map[string]string, keys)
	ownedByVictim := 0
	victim := ids[1]
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("key-%d", i)
		if i%2 == 1 {
			k = fmt.Sprintf("cg:obj%d:{%d}", i%16, i/16)
		}
		before[k] = m.OwnerID(k)
		if before[k] == victim {
			ownedByVictim++
		}
	}
	if err := m.RemoveNode(victim); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for k, owner := range before {
		now := m.OwnerID(k)
		if owner == victim {
			if now == victim {
				t.Fatalf("%s still routed to the removed node", k)
			}
			moved++
			continue
		}
		if now != owner {
			t.Fatalf("%s moved %s -> %s although its owner never left", k, owner, now)
		}
	}
	if moved != ownedByVictim {
		t.Fatalf("moved %d keys, victim owned %d", moved, ownedByVictim)
	}
	frac := float64(moved) / float64(keys)
	// The victim's share should be ~1/4; allow generous balance slack.
	if frac < 0.10 || frac > 0.45 {
		t.Fatalf("remap fraction = %.3f, want ~%.2f", frac, 1.0/nodes)
	}
	for tag := 0; tag < keys/16; tag++ {
		first := fmt.Sprintf("cg:obj1:{%d}", tag)
		for obj := 3; obj < 16; obj += 2 {
			k := fmt.Sprintf("cg:obj%d:{%d}", obj, tag)
			if before[k] != before[first] || m.OwnerID(k) != m.OwnerID(first) {
				t.Fatalf("%s went %s -> %s, apart from %s (%s -> %s)",
					k, before[k], m.OwnerID(k), first, before[first], m.OwnerID(first))
			}
		}
	}
}

// TestRejoinRestoresOwnership: adding a node back under the same identity
// reproduces the exact pre-leave assignment — stable ids make rejoin
// deterministic, so a revived node reclaims precisely its old keys.
func TestRejoinRestoresOwnership(t *testing.T) {
	const keys = 2000
	m, ids, stores := newTestManager(t, 4)
	before := make(map[string]string, keys)
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("key-%d", i)
		before[k] = m.OwnerID(k)
	}
	if err := m.RemoveNode(ids[2]); err != nil {
		t.Fatal(err)
	}
	if err := m.AddNode(ids[2], stores[2]); err != nil {
		t.Fatal(err)
	}
	for k, owner := range before {
		if now := m.OwnerID(k); now != owner {
			t.Fatalf("%s owner after rejoin = %s, want %s", k, now, owner)
		}
	}
}

func TestManagerMembershipErrors(t *testing.T) {
	m, ids, stores := newTestManager(t, 2)
	if err := m.AddNode(ids[0], stores[0]); err == nil {
		t.Fatal("duplicate AddNode accepted")
	}
	if err := m.AddNode("fresh", nil); err == nil {
		t.Fatal("nil cache accepted")
	}
	if err := m.RemoveNode("unknown"); err == nil {
		t.Fatal("RemoveNode of unknown id accepted")
	}
	if err := m.RemoveNode(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := m.RemoveNode(ids[1]); err == nil {
		t.Fatal("removed the last node")
	}
	if n := m.NumNodes(); n != 1 {
		t.Fatalf("NumNodes = %d, want 1", n)
	}
	if got := m.NodeIDs(); len(got) != 1 || got[0] != ids[1] {
		t.Fatalf("NodeIDs = %v", got)
	}
	if _, ok := m.Node(ids[1]); !ok {
		t.Fatal("surviving node not found by id")
	}
	if _, ok := m.Node(ids[0]); ok {
		t.Fatal("removed node still registered")
	}
}

func TestManagerServesCacheInterface(t *testing.T) {
	m, _, _ := newTestManager(t, 3)
	m.Set("k", []byte("v1"), 0)
	if v, ok := m.Get("k"); !ok || string(v) != "v1" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	v, tok, ok := m.Gets("k")
	if !ok || string(v) != "v1" {
		t.Fatalf("Gets = %q, %v", v, ok)
	}
	if r := m.Cas("k", []byte("v2"), 0, tok); r != kvcache.CasStored {
		t.Fatalf("Cas = %v", r)
	}
	if !m.Add("other", []byte("x"), 0) {
		t.Fatal("Add = false")
	}
	m.Set("n", []byte("5"), 0)
	if n, ok := m.Incr("n", 2); !ok || n != 7 {
		t.Fatalf("Incr = %d, %v", n, ok)
	}
	if !m.Delete("n") {
		t.Fatal("Delete = false")
	}
	res := m.ApplyBatch([]kvcache.BatchOp{
		{Kind: kvcache.BatchSet, Key: "b1", Value: []byte("x")},
		{Kind: kvcache.BatchDelete, Key: "k"},
	})
	if !res[0].Found || !res[1].Found {
		t.Fatalf("batch = %+v", res)
	}
	m.FlushAll()
	if _, ok := m.Get("b1"); ok {
		t.Fatal("FlushAll left entries")
	}
}

// TestManagerConcurrentTrafficDuringMembershipChange churns membership while
// client goroutines hammer the ring. Correctness bar: no panics, no races
// (run under -race), and keys written after the churn settles are all
// readable. Values written before or during a membership change may be lost
// to remapping — that is the consistent-hashing deal, not a bug.
func TestManagerConcurrentTrafficDuringMembershipChange(t *testing.T) {
	m, ids, stores := newTestManager(t, 4)
	spare := kvcache.New(0)

	stop := make(chan struct{})
	var traffic sync.WaitGroup
	for g := 0; g < 4; g++ {
		traffic.Add(1)
		go func(g int) {
			defer traffic.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("g%d-%d", g, i%256)
				switch i % 4 {
				case 0:
					m.Set(k, []byte("v"), 0)
				case 1:
					m.Get(k)
				case 2:
					m.ApplyBatch([]kvcache.BatchOp{
						{Kind: kvcache.BatchSet, Key: k, Value: []byte("b")},
						{Kind: kvcache.BatchDelete, Key: fmt.Sprintf("g%d-%d", g, (i+7)%256)},
					})
				default:
					m.Delete(k)
				}
				i++
			}
		}(g)
	}

	for round := 0; round < 20; round++ {
		if err := m.RemoveNode(ids[3]); err != nil {
			t.Error(err)
			break
		}
		if err := m.AddNode("spare", spare); err != nil {
			t.Error(err)
			break
		}
		if err := m.RemoveNode("spare"); err != nil {
			t.Error(err)
			break
		}
		if err := m.AddNode(ids[3], stores[3]); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	traffic.Wait()

	if n := m.NumNodes(); n != 4 {
		t.Fatalf("NumNodes after churn = %d, want 4", n)
	}
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("settled-%d", i)
		m.Set(k, []byte("v"), 0)
		if _, ok := m.Get(k); !ok {
			t.Fatalf("%s unreadable after churn settled", k)
		}
	}
}
