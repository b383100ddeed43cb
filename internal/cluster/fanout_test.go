package cluster

import (
	"fmt"
	"testing"
	"time"

	"cachegenie/internal/kvcache"
)

// slowNode is an in-process store that sleeps one round trip per batch and
// per FlushAll, modelling a remote node.
type slowNode struct {
	*kvcache.Store
	rtt time.Duration
}

func (n slowNode) ApplyBatch(ops []kvcache.BatchOp) []kvcache.BatchResult {
	time.Sleep(n.rtt)
	return n.Store.ApplyBatch(ops)
}

func (n slowNode) FlushAll() {
	time.Sleep(n.rtt)
	n.Store.FlushAll()
}

// latencyRing builds a ring of n slow nodes.
func latencyRing(tb testing.TB, n int, rtt time.Duration, opts ...Option) (*Ring, []kvcache.BatchOp) {
	tb.Helper()
	nodes := make([]kvcache.Cache, n)
	for i := range nodes {
		nodes[i] = slowNode{kvcache.New(0), rtt}
	}
	r, err := NewRing(nodes, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	// Enough keys that every node owns a slice of the batch.
	ops := make([]kvcache.BatchOp, 64)
	for i := range ops {
		ops[i] = kvcache.BatchOp{Kind: kvcache.BatchSet, Key: fmt.Sprintf("key-%d", i), Value: []byte("v")}
	}
	owners := map[int]bool{}
	for _, op := range ops {
		owners[r.NodeFor(op.Key)] = true
	}
	if len(owners) != n {
		tb.Fatalf("batch covers %d/%d nodes; enlarge it", len(owners), n)
	}
	return r, ops
}

// TestApplyBatchFanOutParallel is the remote-tier latency contract: a batch
// spanning k slow nodes must cost ~max-node round trip (the
// sub-batches run concurrently), not the sum of all k — for every k, two
// included: the two-node ring is the one every geniebench workload runs, and
// at R=2 on it every mutation goes to both nodes. With nodes at 40ms each,
// sequential fan-out costs >= k*40ms; parallel costs ~40ms. The thresholds
// (60ms for two nodes, 100ms for four) leave a scheduling margin while still
// ruling the sequential shape out. Read waves (BatchGet) are held to the same
// contract as mutations.
func TestApplyBatchFanOutParallel(t *testing.T) {
	const rtt = 40 * time.Millisecond
	cases := []struct {
		name     string
		nodes    int
		replicas int
		limit    time.Duration
	}{
		{"4 nodes", 4, 1, 100 * time.Millisecond},
		{"2 nodes", 2, 1, 60 * time.Millisecond},
		{"2 nodes R=2", 2, 2, 60 * time.Millisecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, ops := latencyRing(t, tc.nodes, rtt, WithReplicas(tc.replicas))
			gets := make([]kvcache.BatchOp, len(ops))
			for i, op := range ops {
				gets[i] = kvcache.BatchOp{Kind: kvcache.BatchGet, Key: op.Key}
			}
			// The sets first: the gets read what they stored. A get goes to its
			// key's preferred replica, so at R=2 the reads still span both nodes.
			for _, batch := range []struct {
				kind string
				ops  []kvcache.BatchOp
			}{{"sets", ops}, {"gets", gets}} {
				start := time.Now()
				res := r.ApplyBatch(batch.ops)
				elapsed := time.Since(start)
				for i, b := range res {
					if !b.Found {
						t.Fatalf("%s: op %d not applied", batch.kind, i)
					}
				}
				if sum := time.Duration(tc.nodes) * rtt; elapsed >= sum {
					t.Fatalf("%s took %v, the sequential sum (%v): fan-out is serialized", batch.kind, elapsed, sum)
				}
				if elapsed >= tc.limit {
					t.Fatalf("%s took %v, want ~%v (max-node, not sum-of-node)", batch.kind, elapsed, rtt)
				}
			}
		})
	}
}

// TestPartitionKeepsBatchOrderPerNode pins newPartition's layout: node by
// node, each node's ops in batch order, op indices taken from opOf when given.
func TestPartitionKeepsBatchOrderPerNode(t *testing.T) {
	p := newPartition(3, []int{2, 0, 2, 1, 0, 2}, nil, nil)
	if want := []int{1, 4, 3, 0, 2, 5}; fmt.Sprint(p.idx) != fmt.Sprint(want) {
		t.Errorf("idx = %v, want %v", p.idx, want)
	}
	if want := []int{0, 2, 3, 6}; fmt.Sprint(p.start) != fmt.Sprint(want) {
		t.Errorf("start = %v, want %v", p.start, want)
	}
	p = newPartition(3, []int{1, 1, 1}, []int{7, 3, 9}, make([]int, 9))
	if fmt.Sprint(p.idx) != "[7 3 9]" || fmt.Sprint(p.start) != "[0 0 3 3]" {
		t.Errorf("idx %v start %v, want [7 3 9] [0 0 3 3]", p.idx, p.start)
	}
}

// answerNode is a node whose batches cost the ring nothing to answer: it
// hands back one preallocated result per op.
type answerNode struct {
	kvcache.Cache // nil; only ApplyBatch is called
	res           []kvcache.BatchResult
}

func (a *answerNode) ApplyBatch(ops []kvcache.BatchOp) []kvcache.BatchResult {
	return a.res[:len(ops)]
}

// TestApplyBatchAllocs is the ceiling on what Ring.ApplyBatch itself
// allocates for a six-get batch over two nodes: the owner list with the
// partition behind it, the fan-out state, the sub-batch array, the result
// slice and the one goroutine's start — no per-node maps or slices. A batch
// one node owns costs the ring nothing.
func TestApplyBatchAllocs(t *testing.T) {
	nodes := []kvcache.Cache{
		&answerNode{res: make([]kvcache.BatchResult, 8)},
		&answerNode{res: make([]kvcache.BatchResult, 8)},
	}
	r, err := NewRing(nodes)
	if err != nil {
		t.Fatal(err)
	}
	var ops, single []kvcache.BatchOp
	owned := [2]int{}
	for i := 0; len(ops) < 6 || len(single) < 6; i++ {
		key := fmt.Sprintf("k%d", i)
		n := r.NodeFor(key)
		if len(ops) < 6 && owned[n] < 3 {
			owned[n]++
			ops = append(ops, kvcache.BatchOp{Kind: kvcache.BatchGet, Key: key})
		}
		if n == 0 && len(single) < 6 {
			single = append(single, kvcache.BatchOp{Kind: kvcache.BatchGet, Key: key})
		}
	}
	if n := testing.AllocsPerRun(200, func() { r.ApplyBatch(ops) }); n > 5 {
		t.Errorf("two-node batch: %.0f allocs, want <= 5", n)
	}
	if n := testing.AllocsPerRun(200, func() { r.ApplyBatch(single) }); n != 0 {
		t.Errorf("single-owner batch: %.0f allocs, want 0", n)
	}
}

// TestFlushAllFanOutParallel pins the same property for FlushAll.
func TestFlushAllFanOutParallel(t *testing.T) {
	const nodes = 4
	const rtt = 40 * time.Millisecond
	r, _ := latencyRing(t, nodes, rtt)
	start := time.Now()
	r.FlushAll()
	if elapsed := time.Since(start); elapsed >= 100*time.Millisecond {
		t.Fatalf("FlushAll took %v, want ~%v", elapsed, rtt)
	}
}

// BenchmarkRingApplyBatchFanOut measures a 64-op batch over 4 nodes, each
// charging a real 5ms round trip. Sequential fan-out would floor at 20ms/op
// batch; the parallel fan-out floors at ~5ms — the reported fanout-speedup
// metric is sum-of-node over observed (≈4 when fully parallel, ≈1 when
// serialized).
func BenchmarkRingApplyBatchFanOut(b *testing.B) {
	const nodes = 4
	const rtt = 5 * time.Millisecond
	r, ops := latencyRing(b, nodes, rtt)
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		r.ApplyBatch(ops)
	}
	perBatch := time.Since(start) / time.Duration(b.N)
	b.ReportMetric(float64(perBatch.Microseconds())/1000, "ms/batch")
	if perBatch > 0 {
		b.ReportMetric(float64(nodes*rtt)/float64(perBatch), "fanout-speedup")
	}
}
