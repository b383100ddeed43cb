package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cachegenie/internal/cacheproto"
	"cachegenie/internal/kvcache"
)

func newReplicatedRing(t *testing.T, n, replicas int) (*Ring, []*kvcache.Store) {
	t.Helper()
	stores := make([]*kvcache.Store, n)
	nodes := make([]kvcache.Cache, n)
	for i := range stores {
		stores[i] = kvcache.New(0)
		nodes[i] = stores[i]
	}
	r, err := NewRing(nodes, WithReplicas(replicas))
	if err != nil {
		t.Fatal(err)
	}
	return r, stores
}

// TestReplicasForDistinct: the replica set is always R distinct nodes (R
// clamped to N), preference-first, with the preferred replica equal to the
// single-owner NodeFor — even where one node's vnodes cluster consecutively
// on the ring, the walk collapses them instead of listing a node twice.
func TestReplicasForDistinct(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5} {
		for _, req := range []int{1, 2, 3, n + 3} {
			r, _ := newReplicatedRing(t, n, req)
			want := req
			if want < 1 {
				want = 1
			}
			if want > n {
				want = n
			}
			if r.Replicas() != want {
				t.Fatalf("n=%d req=%d: Replicas() = %d, want %d", n, req, r.Replicas(), want)
			}
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("key-%d", i)
				set := r.ReplicasFor(k)
				if len(set) != want {
					t.Fatalf("n=%d req=%d: ReplicasFor(%s) = %v, want %d nodes", n, req, k, set, want)
				}
				if set[0] != r.NodeFor(k) {
					t.Fatalf("preferred replica %d != NodeFor %d", set[0], r.NodeFor(k))
				}
				seen := map[int]bool{}
				for _, ni := range set {
					if ni < 0 || ni >= n {
						t.Fatalf("replica index %d out of range", ni)
					}
					if seen[ni] {
						t.Fatalf("ReplicasFor(%s) = %v has duplicate node %d", k, set, ni)
					}
					seen[ni] = true
				}
			}
		}
	}
}

// TestReplicatedWritesReachAllReplicas: sets, deletes and increments fan out
// to exactly the key's replica set — every replica holds the value, no
// non-replica does.
func TestReplicatedWritesReachAllReplicas(t *testing.T) {
	r, stores := newReplicatedRing(t, 3, 2)
	const keys = 200
	for i := 0; i < keys; i++ {
		r.Set(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("v%d", i)), 0)
	}
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("key-%d", i)
		owners := map[int]bool{}
		for _, ni := range r.ReplicasFor(k) {
			owners[ni] = true
		}
		for ni, s := range stores {
			v, ok := s.GetQuiet(k)
			if ok != owners[ni] {
				t.Fatalf("%s: present=%v on node %d, replicas %v", k, ok, ni, r.ReplicasFor(k))
			}
			if ok && string(v) != fmt.Sprintf("v%d", i) {
				t.Fatalf("%s on node %d = %q", k, ni, v)
			}
		}
	}

	// Incr reaches every replica and reports the preferred result.
	r.Set("ctr", []byte("5"), 0)
	if n, ok := r.Incr("ctr", 3); !ok || n != 8 {
		t.Fatalf("Incr = %d, %v", n, ok)
	}
	for _, ni := range r.ReplicasFor("ctr") {
		if v, ok := stores[ni].GetQuiet("ctr"); !ok || string(v) != "8" {
			t.Fatalf("ctr on replica %d = %q, %v", ni, v, ok)
		}
	}

	// Delete removes every copy and reports presence.
	if !r.Delete("key-0") {
		t.Fatal("Delete = false for a present key")
	}
	for ni, s := range stores {
		if _, ok := s.GetQuiet("key-0"); ok {
			t.Fatalf("key-0 survived delete on node %d", ni)
		}
	}
	if r.Delete("key-0") {
		t.Fatal("second Delete = true")
	}

	// Add fans out too.
	if !r.Add("added", []byte("a"), 0) {
		t.Fatal("Add = false")
	}
	for _, ni := range r.ReplicasFor("added") {
		if _, ok := stores[ni].GetQuiet("added"); !ok {
			t.Fatalf("added missing on replica %d", ni)
		}
	}
	if r.Add("added", []byte("b"), 0) {
		t.Fatal("second Add = true")
	}
}

// TestInvalidationDeleteReachesAllReplicas is the regression test for the
// trigger-maintenance contract under replication: a delete riding a batch —
// the invalidation bus's flush path — must remove every replica's copy, not
// just the preferred one.
func TestInvalidationDeleteReachesAllReplicas(t *testing.T) {
	r, stores := newReplicatedRing(t, 4, 3)
	var ops []kvcache.BatchOp
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("inv-%d", i)
		r.Set(k, []byte("v"), 0)
		ops = append(ops, kvcache.BatchOp{Kind: kvcache.BatchDelete, Key: k})
	}
	res := r.ApplyBatch(ops)
	for i, br := range res {
		if !br.Found {
			t.Fatalf("delete %d reported not found", i)
		}
	}
	for ni, s := range stores {
		if s.Len() != 0 {
			t.Fatalf("node %d still holds %d entries after replicated invalidation", ni, s.Len())
		}
	}
}

// TestReplicatedApplyBatchOrdering: per-key op order is preserved on every
// replica (same final state everywhere) and results come back in input
// order from the preferred replica.
func TestReplicatedApplyBatchOrdering(t *testing.T) {
	r, stores := newReplicatedRing(t, 3, 2)
	var ops []kvcache.BatchOp
	const keys = 16
	for round := 0; round < 8; round++ {
		for i := 0; i < keys; i++ {
			k := fmt.Sprintf("ord-%d", i)
			ops = append(ops,
				kvcache.BatchOp{Kind: kvcache.BatchSet, Key: k, Value: []byte(fmt.Sprintf("%d", round*10))},
				kvcache.BatchOp{Kind: kvcache.BatchIncr, Key: k, Delta: 1},
			)
		}
	}
	res := r.ApplyBatch(ops)
	if len(res) != len(ops) {
		t.Fatalf("results = %d, want %d", len(res), len(ops))
	}
	for oi, op := range ops {
		if op.Kind == kvcache.BatchIncr && !res[oi].Found {
			t.Fatalf("incr %d lost its preceding set", oi)
		}
	}
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("ord-%d", i)
		want := "71" // last round: set 70 then incr
		for _, ni := range r.ReplicasFor(k) {
			v, ok := stores[ni].GetQuiet(k)
			if !ok || string(v) != want {
				t.Fatalf("%s on replica %d = %q/%v, want %q", k, ni, v, ok, want)
			}
		}
	}
}

// flakyNode wraps a store with a switchable health report, standing in for
// a pool whose breaker opened.
type flakyNode struct {
	kvcache.Cache
	healthy atomic.Bool
}

func (f *flakyNode) Healthy() bool { return f.healthy.Load() }

// batchLog is a flakyNode that records every batch it is sent, one "kind key"
// string per op.
type batchLog struct {
	flakyNode
	mu      sync.Mutex
	batches [][]string
}

func (n *batchLog) ApplyBatch(ops []kvcache.BatchOp) []kvcache.BatchResult {
	batch := make([]string, len(ops))
	for i, op := range ops {
		batch[i] = op.Kind.String() + " " + op.Key
	}
	n.mu.Lock()
	n.batches = append(n.batches, batch)
	n.mu.Unlock()
	return n.Cache.ApplyBatch(ops)
}

// newLoggedPair builds a ring over two healthy batchLog nodes.
func newLoggedPair(t *testing.T, opts ...Option) (*Ring, []*batchLog, []*kvcache.Store) {
	t.Helper()
	stores := []*kvcache.Store{kvcache.New(0), kvcache.New(0)}
	nodes := []*batchLog{{flakyNode: flakyNode{Cache: stores[0]}}, {flakyNode: flakyNode{Cache: stores[1]}}}
	nodes[0].healthy.Store(true)
	nodes[1].healthy.Store(true)
	r, err := NewRing([]kvcache.Cache{nodes[0], nodes[1]}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return r, nodes, stores
}

// take returns the batches received since the last call.
func (n *batchLog) take() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := fmt.Sprint(n.batches)
	n.batches = nil
	return out
}

// TestReplicatedBatchGetsCasRouting: at R = 2 a batch's gets and cas ops
// reach only the key's first healthy replica — a token means nothing anywhere
// else — a stored cas lands on the other replica as a plain set in a
// follow-up round, every other op still fans out to both, and with the
// preferred replica down both the read and the swap go to the survivor.
func TestReplicatedBatchGetsCasRouting(t *testing.T) {
	r, nodes, stores := newLoggedPair(t, WithReplicas(2))
	// One key preferring each node.
	var keys [2]string
	for i := 0; keys[0] == "" || keys[1] == ""; i++ {
		k := fmt.Sprintf("routed-%d", i)
		keys[r.NodeFor(k)] = k
	}
	a, b := keys[0], keys[1]
	r.Set(a, []byte("a1"), 0)
	r.Set(b, []byte("b1"), 0)
	r.Set("ctr", []byte("0"), 0)
	nodes[0].take() // the setup writes arrive as one-op batches
	nodes[1].take()

	read := r.ApplyBatch([]kvcache.BatchOp{{Kind: kvcache.BatchGets, Key: a}, {Kind: kvcache.BatchGets, Key: b}})
	if string(read[0].Data) != "a1" || string(read[1].Data) != "b1" {
		t.Fatalf("batched gets = %+v", read)
	}
	if got, want := nodes[0].take(), fmt.Sprintf("[[gets %s]]", a); got != want {
		t.Fatalf("node 0 received %s, want %s", got, want)
	}
	if got, want := nodes[1].take(), fmt.Sprintf("[[gets %s]]", b); got != want {
		t.Fatalf("node 1 received %s, want %s", got, want)
	}

	res := r.ApplyBatch([]kvcache.BatchOp{
		{Kind: kvcache.BatchCas, Key: a, Value: []byte("a2"), Cas: read[0].Cas},
		{Kind: kvcache.BatchCas, Key: b, Value: []byte("b2"), Cas: read[1].Cas + 1000}, // stale: must not propagate
		{Kind: kvcache.BatchIncr, Key: "ctr", Delta: 1},
	})
	if !res[0].Found || res[1].CasResult != kvcache.CasConflict || !res[2].Found {
		t.Fatalf("cas batch results = %+v", res)
	}
	if got, want := nodes[0].take(), fmt.Sprintf("[[cas %s incr ctr]]", a); got != want {
		t.Fatalf("node 0 received %s, want %s", got, want)
	}
	if got, want := nodes[1].take(), fmt.Sprintf("[[cas %s incr ctr] [set %s]]", b, a); got != want {
		t.Fatalf("node 1 received %s, want %s", got, want)
	}
	for ni, s := range stores {
		if v, _ := s.GetQuiet(a); string(v) != "a2" {
			t.Fatalf("%s on node %d = %q, want the swapped value", a, ni, v)
		}
		if v, _ := s.GetQuiet(b); string(v) != "b1" {
			t.Fatalf("%s on node %d = %q, want the conflicting cas refused", b, ni, v)
		}
	}

	// Preferred replica of a goes down: both batches route to the survivor.
	nodes[0].healthy.Store(false)
	read = r.ApplyBatch([]kvcache.BatchOp{{Kind: kvcache.BatchGets, Key: a}})
	if string(read[0].Data) != "a2" {
		t.Fatalf("gets with the preferred replica down = %+v", read)
	}
	res = r.ApplyBatch([]kvcache.BatchOp{{Kind: kvcache.BatchCas, Key: a, Value: []byte("a3"), Cas: read[0].Cas}})
	if !res[0].Found {
		t.Fatalf("cas with the survivor's token = %+v", res)
	}
	if got, want := nodes[1].take(), fmt.Sprintf("[[gets %s] [cas %s]]", a, a); got != want {
		t.Fatalf("survivor received %s, want %s", got, want)
	}
	if got, want := nodes[0].take(), fmt.Sprintf("[[set %s]]", a); got != want {
		t.Fatalf("downed replica received %s, want only the propagated %s", got, want)
	}
}

// TestBreakerAwareFailoverAndReadRepair drives the read path through both
// failover shapes: an unhealthy preferred replica is skipped before any
// lookup (no repair attempted at it while its breaker is open), and a
// healthy-but-cold preferred replica is repopulated from the failover hit.
func TestBreakerAwareFailoverAndReadRepair(t *testing.T) {
	stores := []*kvcache.Store{kvcache.New(0), kvcache.New(0)}
	flaky := []*flakyNode{{Cache: stores[0]}, {Cache: stores[1]}}
	flaky[0].healthy.Store(true)
	flaky[1].healthy.Store(true)
	r, err := NewRing([]kvcache.Cache{flaky[0], flaky[1]}, WithReplicas(2))
	if err != nil {
		t.Fatal(err)
	}

	// A key whose preferred replica is node 0 keeps the scenario readable.
	key := ""
	for i := 0; ; i++ {
		k := fmt.Sprintf("failover-%d", i)
		if r.NodeFor(k) == 0 {
			key = k
			break
		}
	}
	r.Set(key, []byte("v1"), 0)

	// Open breaker on the preferred replica: the read must skip it without
	// touching it and serve from the second replica — and must not try to
	// repair a node whose breaker is open.
	flaky[0].healthy.Store(false)
	stores[0].Delete(key) // simulate the node's copy being gone with it
	if v, ok := r.Get(key); !ok || string(v) != "v1" {
		t.Fatalf("failover Get = %q, %v", v, ok)
	}
	st := r.ReplicaStats()
	if st.FailoverReads != 1 || st.SkippedUnhealthy == 0 {
		t.Fatalf("stats after skip-failover = %+v", st)
	}
	if st.ReadRepairs != 0 {
		t.Fatalf("read-repaired an open-breaker node: %+v", st)
	}
	if _, ok := stores[0].GetQuiet(key); ok {
		t.Fatal("value appeared on the unhealthy node")
	}

	// Gets routes to the first healthy replica so a Cas with its token
	// lands on the same node.
	v, tok, ok := r.Gets(key)
	if !ok || string(v) != "v1" {
		t.Fatalf("Gets under open breaker = %q, %v", v, ok)
	}
	if res := r.Cas(key, []byte("v2"), 0, tok); res != kvcache.CasStored {
		t.Fatalf("Cas with failover token = %v", res)
	}

	// Preferred replica healthy again but cold (revived): the next failover
	// hit read-repairs it. (The Cas propagation above re-Set the key on
	// node 0 — clear it again to model the cold restart.)
	stores[0].Delete(key)
	flaky[0].healthy.Store(true)
	if v, ok := r.Get(key); !ok || string(v) != "v2" {
		t.Fatalf("Get after recovery = %q, %v", v, ok)
	}
	st = r.ReplicaStats()
	if st.FailoverReads != 2 || st.ReadRepairs != 1 {
		t.Fatalf("stats after read-repair = %+v", st)
	}
	if v, ok := stores[0].GetQuiet(key); !ok || string(v) != "v2" {
		t.Fatalf("preferred replica not repaired: %q, %v", v, ok)
	}

	// With the repaired copy in place the read is a plain preferred-replica
	// hit again.
	if v, ok := r.Get(key); !ok || string(v) != "v2" {
		t.Fatalf("Get after repair = %q, %v", v, ok)
	}
	if got := r.ReplicaStats().FailoverReads; got != 2 {
		t.Fatalf("FailoverReads grew to %d on a healthy read", got)
	}
}

// TestReplicatedFailoverKilledNodeRace runs concurrent replicated traffic
// through real cacheproto pools while one of the two nodes is killed:
// no panics or races (run under -race), every key stays readable via its
// surviving replica, and the ring records failover reads.
func TestReplicatedFailoverKilledNodeRace(t *testing.T) {
	stores := make([]*kvcache.Store, 2)
	servers := make([]*cacheproto.Server, 2)
	pools := make([]*cacheproto.Pool, 2)
	nodes := make([]kvcache.Cache, 2)
	ids := make([]string, 2)
	for i := range stores {
		stores[i] = kvcache.New(0)
		servers[i] = cacheproto.NewServer(stores[i])
		addr, err := servers[i].Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		pools[i] = cacheproto.NewPoolWithConfig(cacheproto.PoolConfig{
			Addr:          addr,
			FailThreshold: 2,
			ProbeInterval: 10 * time.Millisecond,
			OpTimeout:     2 * time.Second,
		})
		nodes[i] = pools[i]
		ids[i] = addr
	}
	defer func() {
		for i := range pools {
			_ = pools[i].Close()
			_ = servers[i].Close()
		}
	}()
	r, err := NewRingIDs(ids, nodes, WithReplicas(2))
	if err != nil {
		t.Fatal(err)
	}

	const keys = 64
	for i := 0; i < keys; i++ {
		r.Set(fmt.Sprintf("race-%d", i), []byte(fmt.Sprintf("v%d", i)), 0)
	}
	if err := servers[0].Close(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("race-%d", (g*53+i)%keys)
				switch i % 3 {
				case 0:
					r.Get(k)
				case 1:
					r.Set(k, []byte("w"), 0)
				default:
					r.ApplyBatch([]kvcache.BatchOp{{Kind: kvcache.BatchSet, Key: k, Value: []byte("b")}})
				}
			}
		}(g)
	}
	wg.Wait()

	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("race-%d", i)
		if _, ok := r.Get(k); !ok {
			t.Fatalf("%s unreadable with one of two replicas dead", k)
		}
	}
	st := r.ReplicaStats()
	if st.FailoverReads == 0 {
		t.Fatalf("no failover reads recorded: %+v", st)
	}
}

// TestBatchGetRouting: a batched get reads the one replica Get would try
// first. At R = 1 that is the owner; at R = 2 the preferred replica, or the
// survivor when the preferred one reports unhealthy; and what that replica
// answers stands — a miss there is a miss even though the other replica holds
// the key, and nothing is repaired.
func TestBatchGetRouting(t *testing.T) {
	for _, replicas := range []int{1, 2} {
		t.Run(fmt.Sprintf("R=%d", replicas), func(t *testing.T) {
			r, nodes, stores := newLoggedPair(t, WithReplicas(replicas))
			var keys [2]string // one key preferring each node
			for i := 0; keys[0] == "" || keys[1] == ""; i++ {
				k := fmt.Sprintf("routed-%d", i)
				keys[r.NodeFor(k)] = k
			}
			a, b := keys[0], keys[1]
			r.Set(a, []byte("a1"), 0)
			r.Set(b, []byte("b1"), 0)
			nodes[0].take() // at R = 2 the setup writes arrive as one-op batches
			nodes[1].take()

			wave := []kvcache.BatchOp{{Kind: kvcache.BatchGet, Key: a}, {Kind: kvcache.BatchGet, Key: b}, {Kind: kvcache.BatchGet, Key: "absent"}}
			res := r.ApplyBatch(wave)
			if string(res[0].Data) != "a1" || string(res[1].Data) != "b1" || res[2].Found || res[0].Cas != 0 {
				t.Fatalf("batched gets = %+v", res)
			}
			got := nodes[0].take() + nodes[1].take()
			absentOn := [2]string{"", ""}
			absentOn[r.NodeFor("absent")] = " get absent"
			if want := fmt.Sprintf("[[get %s%s]][[get %s%s]]", a, absentOn[0], b, absentOn[1]); got != want {
				t.Fatalf("nodes received %s, want %s", got, want)
			}
			if replicas == 1 {
				return
			}

			// The preferred replica of a lost the key: a miss, no failover, no repair.
			stores[0].Delete(a)
			if res := r.ApplyBatch(wave[:2]); res[0].Found || !res[1].Found {
				t.Fatalf("with %s gone from its preferred replica: %+v", a, res)
			}
			if _, ok := stores[0].GetQuiet(a); ok {
				t.Fatal("a batched miss repaired the preferred replica")
			}
			if st := r.ReplicaStats(); st.FailoverReads != 0 || st.ReadRepairs != 0 {
				t.Fatalf("replica stats after a batched miss: %+v", st)
			}
			nodes[0].take()
			nodes[1].take()

			// The preferred replica reports unhealthy: the survivor is read.
			nodes[0].healthy.Store(false)
			if res := r.ApplyBatch(wave[:2]); string(res[0].Data) != "a1" || string(res[1].Data) != "b1" {
				t.Fatalf("with node 0 unhealthy: %+v", res)
			}
			if got, want := nodes[0].take()+nodes[1].take(), fmt.Sprintf("[][[get %s get %s]]", a, b); got != want {
				t.Fatalf("nodes received %s, want %s", got, want)
			}
		})
	}
}

// TestPerOpMatchesBatchReplicaPolicy: at R = 2 a per-op call and the same op
// sent as a one-op ApplyBatch to a twin ring over identical stores answer
// alike, leave the stores alike and count alike — with the key's preferred
// replica healthy and with its breaker open. An op routed past the open
// breaker counts the replica it skipped.
func TestPerOpMatchesBatchReplicaPolicy(t *testing.T) {
	// perOp runs op through the Ring method of its kind and prints what the
	// method returns; batched prints a one-op batch's result the same way.
	perOp := func(r *Ring, op kvcache.BatchOp) string {
		switch op.Kind {
		case kvcache.BatchGets:
			v, tok, ok := r.Gets(op.Key)
			return fmt.Sprintf("%q %d %v", v, tok, ok)
		case kvcache.BatchSet:
			r.Set(op.Key, op.Value, op.TTL)
			return ""
		case kvcache.BatchAdd:
			return fmt.Sprint(r.Add(op.Key, op.Value, op.TTL))
		case kvcache.BatchCas:
			return fmt.Sprint(r.Cas(op.Key, op.Value, op.TTL, op.Cas))
		case kvcache.BatchDelete:
			return fmt.Sprint(r.Delete(op.Key))
		}
		n, ok := r.Incr(op.Key, op.Delta)
		return fmt.Sprint(n, ok)
	}
	batched := func(r *Ring, op kvcache.BatchOp) string {
		res := r.ApplyBatch([]kvcache.BatchOp{op})[0]
		switch op.Kind {
		case kvcache.BatchGets:
			return fmt.Sprintf("%q %d %v", res.Data, res.Cas, res.Found)
		case kvcache.BatchSet:
			return ""
		case kvcache.BatchAdd, kvcache.BatchDelete:
			return fmt.Sprint(res.Found)
		case kvcache.BatchCas:
			return fmt.Sprint(res.CasResult)
		}
		return fmt.Sprint(res.Value, res.Found)
	}
	for _, tc := range []struct {
		kind kvcache.BatchOpKind
		cold bool // the key is missing from its preferred replica
	}{
		{kind: kvcache.BatchGets}, {kind: kvcache.BatchSet}, {kind: kvcache.BatchAdd, cold: true},
		{kind: kvcache.BatchCas}, {kind: kvcache.BatchDelete}, {kind: kvcache.BatchIncr, cold: true},
	} {
		for _, open := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/open=%v", tc.kind, open), func(t *testing.T) {
				var rings [2]*Ring
				var stores [2][]*kvcache.Store
				key := ""
				for i := range rings {
					r, nodes, st := newLoggedPair(t, WithReplicas(2))
					for j := 0; key == ""; j++ {
						if k := fmt.Sprintf("twin-%d", j); r.NodeFor(k) == 0 {
							key = k
						}
					}
					st[0].Set(key, []byte("5"), 0)
					st[1].Set(key, []byte("5"), 0)
					if tc.cold {
						st[0].Delete(key)
					}
					nodes[0].healthy.Store(!open)
					rings[i], stores[i] = r, st
				}
				decider := 0
				if open {
					decider = 1
				}
				_, tok, _ := stores[0][decider].Gets(key)
				op := kvcache.BatchOp{Kind: tc.kind, Key: key, Value: []byte("7"), Delta: 2, Cas: tok}
				if got, want := perOp(rings[0], op), batched(rings[1], op); got != want {
					t.Fatalf("per-op call returned %s, one-op batch %s", got, want)
				}
				for n := range stores[0] {
					v0, ok0 := stores[0][n].GetQuiet(key)
					v1, ok1 := stores[1][n].GetQuiet(key)
					if string(v0) != string(v1) || ok0 != ok1 {
						t.Fatalf("node %d holds %q/%v after the per-op call, %q/%v after the batch", n, v0, ok0, v1, ok1)
					}
				}
				if got, want := rings[0].ReplicaStats(), rings[1].ReplicaStats(); got != want {
					t.Fatalf("replica stats: per-op %+v, batch %+v", got, want)
				}
				if got := rings[1].ReplicaStats().SkippedUnhealthy; got != int64(decider) {
					t.Fatalf("batched %s skipped %d replicas, want %d", tc.kind, got, decider)
				}
			})
		}
	}
}

// countingNode counts Gets so the tests can see where reads actually land.
type countingNode struct {
	kvcache.Cache
	gets atomic.Int64
}

func (c *countingNode) Get(key string) ([]byte, bool) {
	c.gets.Add(1)
	return c.Cache.Get(key)
}

// TestColdKeysKeepPreferredRouting: with every replica healthy and holding
// the key, a read lands on the preferred replica and never on another, so
// CAS-coherence-sensitive traffic sees one node per key.
func TestColdKeysKeepPreferredRouting(t *testing.T) {
	counted := make([]*countingNode, 4)
	nodes := make([]kvcache.Cache, len(counted))
	for i := range nodes {
		counted[i] = &countingNode{Cache: kvcache.New(0)}
		nodes[i] = counted[i]
	}
	r, err := NewRing(nodes, WithReplicas(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("key-%d", i)
		r.Set(key, []byte("v"), 0)
		set := r.ReplicasFor(key)
		before := counted[set[1]].gets.Load()
		if _, ok := r.Get(key); !ok {
			t.Fatalf("miss on %s", key)
		}
		if got := counted[set[1]].gets.Load() - before; got != 0 {
			t.Fatalf("key %s read the non-preferred replica %d times", key, got)
		}
	}
	if st := r.ReplicaStats(); st.FailoverReads != 0 {
		t.Fatalf("FailoverReads = %d for reads of keys every replica holds, want 0", st.FailoverReads)
	}
}

// TestReplicaStatsSurviveRebuild: Manager membership changes carry the
// replica counters into the rebuilt ring, and the rebuilt ring keeps
// counting into them.
func TestReplicaStatsSurviveRebuild(t *testing.T) {
	stores := make([]*kvcache.Store, 3)
	nodes := make([]kvcache.Cache, len(stores))
	ids := make([]string, len(stores))
	for i := range nodes {
		stores[i] = kvcache.New(0)
		nodes[i] = stores[i]
		ids[i] = fmt.Sprintf("n%d", i)
	}
	m, err := NewManager(ids, nodes, WithReplicas(2))
	if err != nil {
		t.Fatal(err)
	}
	// failover knocks key out of its preferred replica and reads it: one
	// failover read, repaired onto the preferred replica.
	failover := func(key string) {
		t.Helper()
		m.Set(key, []byte("v"), 0)
		pref, _ := m.Node(m.Ring().OwnerID(key))
		pref.Delete(key)
		if v, ok := m.Get(key); !ok || string(v) != "v" {
			t.Fatalf("failover read of %s = %q, %v", key, v, ok)
		}
	}
	failover("k")
	before := m.ReplicaStats()
	if before.FailoverReads != 1 || before.ReadRepairs != 1 {
		t.Fatalf("stats before rebuild = %+v, want one failover read and one repair", before)
	}
	if err := m.AddNode("n3", kvcache.New(0)); err != nil {
		t.Fatal(err)
	}
	if after := m.ReplicaStats(); after != before {
		t.Fatalf("replica counters changed across rebuild: %+v -> %+v", before, after)
	}
	failover("k2")
	if final := m.ReplicaStats(); final.FailoverReads != 2 || final.ReadRepairs != 2 {
		t.Fatalf("stats after a failover on the rebuilt ring = %+v, want 2 and 2", final)
	}
}
