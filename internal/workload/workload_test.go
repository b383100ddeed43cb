package workload

import (
	"math"
	"math/rand"
	"testing"

	"cachegenie/internal/social"
)

func TestZipfBounds(t *testing.T) {
	z := NewZipf(100, 2.0)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		r := z.Sample(rng)
		if r < 1 || r > 100 {
			t.Fatalf("sample %d out of range", r)
		}
	}
}

func TestZipfSkewByParameter(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	frac := func(a float64) float64 {
		z := NewZipf(1000, a)
		hits := 0
		const n = 20000
		for i := 0; i < n; i++ {
			if z.Sample(rng) == 1 {
				hits++
			}
		}
		return float64(hits) / n
	}
	skewed := frac(2.0)
	flat := frac(1.1)
	// With a=2.0, rank 1 has probability 1/zeta(2) ~= 0.61; with a=1.1 far
	// less. The paper's Experiment 3 varies exactly this.
	if skewed < 0.5 {
		t.Fatalf("a=2.0 rank-1 mass = %.3f, want > 0.5", skewed)
	}
	if flat > skewed/2 {
		t.Fatalf("a=1.1 rank-1 mass %.3f not much flatter than a=2.0 %.3f", flat, skewed)
	}
}

func TestZipfMatchesAnalyticDistribution(t *testing.T) {
	const n = 50
	const a = 2.0
	z := NewZipf(n, a)
	rng := rand.New(rand.NewSource(3))
	counts := make([]int, n+1)
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[z.Sample(rng)]++
	}
	var zeta float64
	for i := 1; i <= n; i++ {
		zeta += math.Pow(float64(i), -a)
	}
	for _, rank := range []int{1, 2, 5, 10} {
		want := math.Pow(float64(rank), -a) / zeta
		got := float64(counts[rank]) / draws
		if math.Abs(got-want) > 0.02 {
			t.Errorf("rank %d: got %.4f, want %.4f", rank, got, want)
		}
	}
}

func smallSeed() social.SeedConfig {
	return social.SeedConfig{
		Users: 40, UniqueBookmarks: 20, MaxBookmarksPer: 3,
		MaxFriendsPer: 3, MaxInvitesPer: 2, MaxWallPosts: 4,
	}
}

func TestBuildStackAllModes(t *testing.T) {
	for _, mode := range []Mode{ModeNoCache, ModeInvalidate, ModeUpdate} {
		t.Run(mode.String(), func(t *testing.T) {
			st, err := BuildStack(StackConfig{Mode: mode, Seed: smallSeed(), RngSeed: 5})
			if err != nil {
				t.Fatal(err)
			}
			if (st.Genie == nil) != (mode == ModeNoCache) {
				t.Fatalf("mode %s genie presence wrong", mode)
			}
			if st.App.NumUsers != 40 {
				t.Fatalf("users = %d", st.App.NumUsers)
			}
		})
	}
}

func TestBuildStackMultiNodeCache(t *testing.T) {
	st, err := BuildStack(StackConfig{
		Mode: ModeUpdate, Seed: smallSeed(), CacheNodes: 3, CacheBytes: 3 << 20, RngSeed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Stores) != 3 {
		t.Fatalf("stores = %d", len(st.Stores))
	}
	// Drive a little traffic and confirm keys spread over nodes.
	rep, err := Run(st, RunConfig{Clients: 2, Sessions: 3, PagesPerSession: 5, WritePct: 20, ZipfA: 1.3, RngSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors > 0 {
		t.Fatalf("errors = %d", rep.Errors)
	}
	nodesWithKeys := 0
	for _, s := range st.Stores {
		if s.Len() > 0 {
			nodesWithKeys++
		}
	}
	if nodesWithKeys < 2 {
		t.Fatalf("keys on %d nodes, want spread", nodesWithKeys)
	}
}

func TestRunProducesReport(t *testing.T) {
	st, err := BuildStack(StackConfig{Mode: ModeUpdate, Seed: smallSeed(), RngSeed: 8})
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{Clients: 4, Sessions: 5, PagesPerSession: 6, WritePct: 20, ZipfA: 2.0, WarmupSessions: 4, RngSeed: 9}
	rep, err := Run(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantPages := 4 * 5 * (6 + 2) // clients x sessions x (pages + login/logout)
	if rep.Pages != wantPages {
		t.Fatalf("pages = %d, want %d", rep.Pages, wantPages)
	}
	if rep.Errors != 0 {
		t.Fatalf("errors = %d", rep.Errors)
	}
	if rep.Throughput <= 0 {
		t.Fatal("throughput not computed")
	}
	for _, p := range []social.PageType{social.PageLogin, social.PageLogout} {
		if rep.ByPage[p].Count != 4*5 {
			t.Fatalf("%s count = %d", p, rep.ByPage[p].Count)
		}
	}
}

func TestRunReadOnlyWorkloadHasNoWrites(t *testing.T) {
	st, err := BuildStack(StackConfig{Mode: ModeUpdate, Seed: smallSeed(), RngSeed: 10})
	if err != nil {
		t.Fatal(err)
	}
	before := st.DB.Stats()
	_, err = Run(st, RunConfig{Clients: 2, Sessions: 4, PagesPerSession: 6, WritePct: 0, ZipfA: 2.0, RngSeed: 11})
	if err != nil {
		t.Fatal(err)
	}
	after := st.DB.Stats()
	// Login/Logout still write last_login; the mix itself must add no
	// inserts beyond those updates.
	if after.Inserts != before.Inserts {
		t.Fatalf("read-only run inserted rows: %d -> %d", before.Inserts, after.Inserts)
	}
}

func TestCachedModesBeatNoCacheWithInjectedLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("latency-injected comparison")
	}
	// With the paper-calibrated latency model (scaled down 50x so this test
	// stays fast) and enough clients to saturate the database, the cached
	// stack must outperform NoCache — the headline result's direction. The
	// full magnitude sweep lives in the benchmark harness (Experiment 1).
	run := func(mode Mode) float64 {
		st, err := BuildStack(StackConfig{
			Mode: mode, Seed: smallSeed(), RngSeed: 12,
			LatencyScale: 50, CacheBytes: 0, BufferPoolPages: 128,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(st, RunConfig{
			Clients: 15, Sessions: 4, PagesPerSession: 8, WritePct: 20,
			// a=1.3 concentrates the workload (see UserSampler), giving the
			// cached stack a decisive margin that stays stable under
			// machine-load noise.
			ZipfA: 1.3, WarmupSessions: 30, RngSeed: 13,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Errors > 0 {
			t.Fatalf("%s errors = %d", mode, rep.Errors)
		}
		return rep.Throughput
	}
	nc := run(ModeNoCache)
	upd := run(ModeUpdate)
	if upd <= nc {
		t.Fatalf("Update (%.1f pages/s) did not beat NoCache (%.1f pages/s)", upd, nc)
	}
}
