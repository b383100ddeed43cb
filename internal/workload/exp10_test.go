package workload

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cachegenie/internal/cacheproto"
)

func buildExp10TestStack(t *testing.T, replicas int) *Stack {
	t.Helper()
	st, err := BuildStackForExp10(tinyOpts(), replicas)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	return st
}

func TestStackKillAndReviveNode(t *testing.T) {
	st := buildExp10TestStack(t, 1)
	addr := st.Pools[1].Addr()

	// Healthy: the node answers over the wire.
	if _, err := st.Pools[1].ServerStats(); err != nil {
		t.Fatalf("healthy node unreachable: %v", err)
	}
	st.Stores[1].Set("warm", []byte("v"), 0)

	if err := st.KillNode(1); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Pools[1].ServerStats(); err == nil {
		t.Fatal("killed node still reachable")
	}
	if err := st.ReviveNode(1); err != nil {
		t.Fatal(err)
	}
	// Use a fresh pool for the liveness check: the original one may be mid
	// breaker-recovery, which is its own test below.
	probe := cacheproto.NewPool(addr, 1)
	defer probe.Close()
	if _, err := probe.ServerStats(); err != nil {
		t.Fatalf("revived node unreachable: %v", err)
	}
	// The revived node came back cold.
	if _, ok := st.Stores[1].Get("warm"); ok {
		t.Fatal("revived node kept pre-crash entries")
	}

	if err := st.KillNode(99); err == nil {
		t.Fatal("KillNode out of range accepted")
	}
	if err := st.ReviveNode(-1); err == nil {
		t.Fatal("ReviveNode out of range accepted")
	}
}

func TestCacheTierStatsCountsUnreachableNodes(t *testing.T) {
	st := buildExp10TestStack(t, 1)
	if got := st.CacheTierStats().UnreachableNodes; got != 0 {
		t.Fatalf("healthy tier reports %d unreachable nodes", got)
	}
	if err := st.KillNode(2); err != nil {
		t.Fatal(err)
	}
	ts := st.CacheTierStats()
	if ts.UnreachableNodes != 1 {
		t.Fatalf("unreachable = %d, want 1", ts.UnreachableNodes)
	}
	// The loopback stores keep aggregating even while the wire is down.
	st.Stores[0].Set("x", []byte("v"), 0)
	if st.CacheTierStats().Sets == 0 {
		t.Fatal("store-side counters lost")
	}
	if err := st.ReviveNode(2); err != nil {
		t.Fatal(err)
	}
	// The pool on node 2 may need its breaker to close before the probe
	// succeeds again; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st.CacheTierStats().UnreachableNodes == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("node still unreachable after revive: %+v", st.CacheTierStats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplicatedStackFansOutWrites: a Replicas=2 loopback stack stores
// every cache entry on both of its replicas — checked at the store ends, so
// the fan-out is proven on the wire path, not just in-process.
func TestReplicatedStackFansOutWrites(t *testing.T) {
	st := buildExp10TestStack(t, 2)
	if st.Ring == nil || st.Ring.Replicas() != 2 {
		t.Fatalf("stack ring replicas = %v", st.Ring)
	}
	ring := st.Ring.Ring()
	key := "exp10-fanout-probe"
	st.Cache.Set(key, []byte("v"), 0)
	reps := ring.ReplicasFor(key)
	if len(reps) != 2 || reps[0] == reps[1] {
		t.Fatalf("ReplicasFor = %v", reps)
	}
	held := 0
	for i, store := range st.Stores {
		if _, ok := store.GetQuiet(key); ok {
			held++
			inSet := false
			for _, ni := range reps {
				if ring.NodeID(ni) == st.Pools[i].Addr() {
					inSet = true
				}
			}
			if !inSet {
				t.Fatalf("key held on non-replica node %d", i)
			}
		}
	}
	if held != 2 {
		t.Fatalf("key held on %d nodes, want 2", held)
	}
}

// TestExp10ReplicatedFailoverTimeline is the acceptance run. At R=1 the
// dead node's key share degrades to misses and the breaker trips and fails
// them fast; with R=2 the hit rate rides through the node kill (>= 0.90,
// vs the ~0.80 R=1 collapse); and the staleness scan after
// FlushInvalidations finds no divergent or orphaned replicas.
func TestExp10ReplicatedFailoverTimeline(t *testing.T) {
	if testing.Short() {
		t.Skip("six full workload phases over TCP")
	}
	res, err := Exp10(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	r1, ok := res.Timeline(1)
	if !ok {
		t.Fatal("no R=1 timeline")
	}
	r2, ok := res.Timeline(Exp10Replicas)
	if !ok {
		t.Fatal("no R=2 timeline")
	}
	for _, tl := range res.Timelines {
		for _, p := range []Exp10Phase{tl.Healthy, tl.Degraded, tl.Recovered} {
			if p.Throughput <= 0 {
				t.Fatalf("R=%d phase %s has no throughput: %+v", tl.Replicas, p.Name, p)
			}
		}
		if tl.DivergentKeys != 0 || tl.OrphanKeys != 0 {
			t.Fatalf("R=%d staleness scan dirty: %d divergent, %d orphaned of %d",
				tl.Replicas, tl.DivergentKeys, tl.OrphanKeys, tl.ScannedKeys)
		}
		if tl.ScannedKeys == 0 {
			t.Fatalf("R=%d staleness scan saw no keys", tl.Replicas)
		}
	}
	if r1.BreakerTrips < 1 || r1.FailFastOps <= 0 {
		t.Fatalf("R=1 dead-node breaker: %d trips, %d fail-fast ops; want >= 1 and > 0",
			r1.BreakerTrips, r1.FailFastOps)
	}
	if r2.Degraded.HitRate < 0.90 {
		t.Fatalf("R=2 degraded hit rate = %.3f, want >= 0.90", r2.Degraded.HitRate)
	}
	if r2.Degraded.HitRate <= r1.Degraded.HitRate {
		t.Fatalf("R=2 degraded hit %.3f not above R=1's %.3f",
			r2.Degraded.HitRate, r1.Degraded.HitRate)
	}
	if r2.Replica.FailoverReads == 0 {
		t.Fatal("R=2 timeline recorded no failover reads")
	}
	if r2.Handoff.Copied == 0 {
		t.Fatal("rejoin handoff copied nothing — the revived node started cold")
	}
}

func TestExp10RejectsExternalAddrs(t *testing.T) {
	opt := tinyOpts()
	opt.CacheAddrs = []string{"127.0.0.1:1"}
	if _, err := BuildStackForExp10(opt, 2); err == nil {
		t.Fatal("exp10 accepted external cache addrs it cannot kill")
	}
}

func TestWriteExp10JSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_exp10.json")
	res := Exp10Result{Timelines: []Exp10Timeline{
		{
			Replicas: 1,
			Healthy:  Exp10Phase{Name: "healthy", Throughput: 100, HitRate: 0.94},
			Degraded: Exp10Phase{Name: "degraded", Throughput: 70, HitRate: 0.80},
		},
		{
			Replicas:    2,
			Healthy:     Exp10Phase{Name: "healthy", Throughput: 98, HitRate: 0.94},
			Degraded:    Exp10Phase{Name: "degraded", Throughput: 90, HitRate: 0.93},
			ScannedKeys: 1234,
		},
	}}
	res.Timelines[1].Replica.FailoverReads = 42
	if err := WriteExp10JSON(path, res); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"exp10-replicated-failover"`, `"replicas": 1`, `"replicas": 2`,
		`"failover_reads": 42`, `"scanned_keys": 1234`, `"divergent_keys": 0`,
	} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("artifact missing %s:\n%s", want, data)
		}
	}
}
