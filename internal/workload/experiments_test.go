package workload

import (
	"testing"

	"cachegenie/internal/social"
)

// tinyOpts makes experiment functions run in well under a second each.
func tinyOpts() ExpOptions {
	return ExpOptions{
		Quick:        true,
		LatencyScale: 1000, // near-zero injected latency
		Seed: social.SeedConfig{
			Users: 30, UniqueBookmarks: 15, MaxBookmarksPer: 3,
			MaxFriendsPer: 3, MaxInvitesPer: 2, MaxWallPosts: 4,
		},
	}
}

func TestEffortMatchesPaperAccounting(t *testing.T) {
	rep, err := Effort()
	if err != nil {
		t.Fatal(err)
	}
	if rep.CachedObjects != 14 {
		t.Fatalf("cached objects = %d, want 14 (paper §5.2)", rep.CachedObjects)
	}
	if rep.Triggers != 45 {
		t.Fatalf("triggers = %d, want 45 (paper: 48 for its class mix)", rep.Triggers)
	}
	// The paper reports ~1720 generated lines; the generator should land
	// within ±30%.
	if rep.GeneratedLines < 1200 || rep.GeneratedLines > 2300 {
		t.Fatalf("generated lines = %d, want ~1720 +/- 30%%", rep.GeneratedLines)
	}
	if rep.AppLinesChanged != 14 {
		t.Fatalf("app lines changed = %d", rep.AppLinesChanged)
	}
}

func TestMicroLookupRatioDirection(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based")
	}
	res, err := MicroLookup(ExpOptions{LatencyScale: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.DBLookup <= res.CacheLookup {
		t.Fatalf("db lookup %v not slower than cache lookup %v", res.DBLookup, res.CacheLookup)
	}
	// Magnitude claims live in the benchmark harness (run on an idle
	// machine); under concurrent test load only the direction is stable.
	if res.Ratio < 1.2 {
		t.Fatalf("ratio = %.1f; db lookup should be clearly slower", res.Ratio)
	}
}

func TestMicroTriggerLadderDirection(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based")
	}
	res, err := MicroTrigger(ExpOptions{LatencyScale: 20})
	if err != nil {
		t.Fatal(err)
	}
	// The connect trigger must be clearly slower than the plain insert —
	// the paper's dominant trigger cost.
	if res.ConnectTrigger < res.PlainInsert+res.PlainInsert/4 {
		t.Fatalf("connect trigger %v vs plain %v: connection cost invisible",
			res.ConnectTrigger, res.PlainInsert)
	}
	if res.PerCacheOp <= 0 {
		t.Fatal("per-op cost not measured")
	}
}

func TestRunModeSmoke(t *testing.T) {
	opt := tinyOpts()
	rep, err := RunMode(opt, ModeUpdate, 3, 20, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors > 0 || rep.Pages == 0 {
		t.Fatalf("rep = %+v", rep)
	}
	if rep.MeanLatency() <= 0 {
		t.Fatal("mean latency not computed")
	}
}

func TestExp5TriggerToggleWorks(t *testing.T) {
	if testing.Short() {
		t.Skip("four full stack runs")
	}
	opt := tinyOpts()
	res, err := Exp5(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("results = %d", len(res))
	}
	for _, r := range res {
		if r.WithTriggers <= 0 || r.WithoutTriggers <= 0 {
			t.Fatalf("%+v", r)
		}
	}
}

func TestExp4EvictionsAppearAtSmallSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("four full stack runs")
	}
	opt := tinyOpts()
	pts, err := Exp4(opt, []int64{8 << 10, 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var small, large Exp4Point
	for _, p := range pts {
		if p.Mode != ModeUpdate {
			continue
		}
		if p.CacheBytes == 8<<10 {
			small = p
		} else {
			large = p
		}
	}
	if small.Evictions == 0 {
		t.Fatal("tiny cache saw no evictions")
	}
	if large.HitRate < small.HitRate {
		t.Fatalf("hit rate did not improve with cache size: %.2f -> %.2f",
			small.HitRate, large.HitRate)
	}
}

func TestAblationTemplateHitRateLower(t *testing.T) {
	if testing.Short() {
		t.Skip("two full stack runs")
	}
	res, err := AblationTemplateInvalidation(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	// CacheGenie invalidates only affected keys; the template baseline
	// wipes whole templates. Its hit rate must be strictly lower.
	if res.TemplateHitRate >= res.GenieHitRate {
		t.Fatalf("template hit rate %.3f >= genie hit rate %.3f",
			res.TemplateHitRate, res.GenieHitRate)
	}
}

func TestBuildStackForBenchKnobs(t *testing.T) {
	opt := tinyOpts()
	st, err := BuildStackForBench(opt, ModeUpdate, true, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Stores) != 2 {
		t.Fatalf("stores = %d", len(st.Stores))
	}
	if !st.Config.ReuseTriggerConnections {
		t.Fatal("reuse knob not applied")
	}
	rep, err := Run(st, RunConfig{Clients: 2, Sessions: 2, PagesPerSession: 4, WritePct: 20, ZipfA: 2.0, RngSeed: 5})
	if err != nil || rep.Errors > 0 {
		t.Fatalf("rep=%+v err=%v", rep, err)
	}
}

func TestAsyncStackRunsCleanly(t *testing.T) {
	opt := tinyOpts()
	st, err := BuildStack(StackConfig{
		Mode: ModeUpdate, Seed: opt.Seed, RngSeed: 42, LatencyScale: opt.LatencyScale,
		BufferPoolPages: expPoolPages, AsyncInvalidation: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(st, RunConfig{Clients: 3, Sessions: 3, PagesPerSession: 6, WritePct: 40, ZipfA: 2.0, WarmupSessions: 3, RngSeed: 17})
	if err != nil || rep.Errors > 0 {
		t.Fatalf("rep=%+v err=%v", rep, err)
	}
	bs := st.Genie.InvStats()
	if bs.Enqueued == 0 || bs.Applied+bs.Coalesced != bs.Enqueued {
		t.Fatalf("bus stats = %+v", bs)
	}
	if rep.ByPage[social.PageCreateBM].P99 < rep.ByPage[social.PageCreateBM].P50 {
		t.Fatalf("percentiles inverted: %+v", rep.ByPage[social.PageCreateBM])
	}
	st.Genie.Close()
}
