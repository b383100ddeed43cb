package bench

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"cachegenie/internal/kvcache"
	"cachegenie/internal/social"
	"cachegenie/internal/sqldb"
)

// small is the dataset the tests run: ~1/20 of the benchmark's users, so a
// stack builds in tens of milliseconds.
var small = social.SeedConfig{
	Users: 100, UniqueBookmarks: 100, MaxBookmarksPer: 8,
	MaxFriendsPer: 10, MaxInvitesPer: 6, MaxWallPosts: 12,
}

func smallOptions(t *testing.T, w Workload) Options {
	t.Helper()
	w.WarmupSessions, w.Sessions = 5, 20
	return Options{Workload: w, Seed: 7, Seconds: RunSeconds, TmpDir: t.TempDir(), Data: small}
}

func mustBuild(t *testing.T, o Options, tr *tracer) *stack {
	t.Helper()
	st, err := buildStack(o, tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.close)
	return st
}

// The committed BENCHMARK.json is what the metric and workload tables
// generate, and it stays inside the benchmark contract's limits.
func TestManifestMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got Manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if want := CurrentManifest(); !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json is stale; regenerate with `geniebench -manifest`\n got %+v\nwant %+v", got, want)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name, unit, better string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("bad or repeated name %q", name)
		}
		seen[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: bad unit %q", name, unit)
		}
		if better != "" && better != lower && better != higher {
			t.Errorf("%s: bad direction %q", name, better)
		}
	}
	if n := len(got.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range got.Workloads {
		check(w.Name, "", "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range got.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		hasSetup = hasSetup || m.Name == "setup_s" && m.Unit == "s" && m.Better == lower
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	if n := len(got.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range got.PerLayer {
		check(m.Name, m.Unit, m.Better)
	}
	if got.RunSeconds < 1 || got.RunSeconds > 60 {
		t.Errorf("run_seconds %d", got.RunSeconds)
	}
}

// Every workload runs both passes at small scale, emits exactly the declared
// metrics with their units, fails no page and passes its audit.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	for _, w := range Workloads {
		t.Run(w.Name, func(t *testing.T) {
			o := smallOptions(t, w)
			passes := []struct {
				name string
				run  func(Options) (Result, error)
				defs []MetricDef
			}{
				{"end-to-end", RunEndToEnd, EndToEnd},
				{"traced", RunTraced, PerLayer},
			}
			for _, p := range passes {
				res, err := p.run(o)
				if err != nil {
					t.Fatalf("%s: %v", p.name, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("%s: correct=%v attempted=%d failed=%d notes=%v",
						p.name, res.Correct, res.Attempted, res.Failed, res.Notes)
				}
				if len(res.Metrics) != len(p.defs) {
					t.Errorf("%s: %d metrics, %d declared", p.name, len(res.Metrics), len(p.defs))
				}
				for _, d := range p.defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("%s: %s = %+v (present %v), want unit %q", p.name, d.Name, m, ok, d.Unit)
					}
				}
				if p.name == "end-to-end" {
					for name, m := range res.Metrics {
						if m.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v; must never be 0", name, m.Value)
						}
					}
					continue
				}
				v := func(name string) float64 { return res.Metrics[name].Value }
				if got := v("trace.budget_residual_ratio"); got > 0.05 {
					t.Errorf("budget residual %v", got)
				}
				// The separation predictions each workload exists for.
				if !w.Async && v("invbus.enqueued") != 0 {
					t.Errorf("invbus.enqueued = %v off the async workload", v("invbus.enqueued"))
				}
				if w.Async && v("invbus.enqueued") == 0 {
					t.Error("async workload published nothing to the bus")
				}
				if w.Replicas == 0 && (v("cacheproto.roundtrips_per_page") != 0 || v("cacheproto.self_us_per_page") != 0) {
					t.Error("in-process workload crossed the wire")
				}
				if w.Replicas > 0 && v("cacheproto.roundtrips_per_page") == 0 {
					t.Error("TCP workload made no round trips")
				}
				if (v("wal.fsyncs_per_commit") != 0) != w.Durable {
					t.Errorf("wal.fsyncs_per_commit = %v, durable = %v", v("wal.fsyncs_per_commit"), w.Durable)
				}
				if w.Durable && v("wal.replayed_txns") == 0 {
					t.Error("crash recovery replayed nothing")
				}
			}
		})
	}
}

// layerCounts drops the process-level entries (allocation, GC, CPU), which
// move whenever the harness itself runs.
func layerCounts(c counters) counters {
	out := counters{}
	for k, v := range c {
		if !strings.HasPrefix(k, "mem.") && !strings.HasPrefix(k, "cpu.") {
			out[k] = v
		}
	}
	return out
}

// A window in which no page runs reports zero for every layer count, though
// seeding and warm-up left large cumulative values behind.
func TestZeroPageWindowReportsZero(t *testing.T) {
	for _, w := range Workloads {
		st := mustBuild(t, smallOptions(t, w), nil)
		if st.snapshot().c["db.inserts"] == 0 {
			t.Fatalf("%s: seeding left no cumulative inserts; the test would prove nothing", w.Name)
		}
		m := measure(st, pass{clients: Clients})
		if m.w.pages != 0 {
			t.Fatalf("%s: %d pages ran in a window of no sessions", w.Name, m.w.pages)
		}
		for k, v := range layerCounts(m.d) {
			if v != 0 {
				t.Errorf("%s: %s = %d over an empty window", w.Name, k, v)
			}
		}
	}
}

// One client over a fixed page list reproduces every layer count exactly on
// a second stack built from the same seed.
func TestSingleClientCountsAreDeterministic(t *testing.T) {
	for _, name := range []string{"pinax_default", "miss_evict"} {
		w, _ := WorkloadByName(name)
		run := func() counters {
			// No warm-up: two warm-up clients interleave differently each
			// time and would leave different row orders behind.
			o := smallOptions(t, w)
			o.Workload.WarmupSessions = 0
			st := mustBuild(t, o, nil)
			return layerCounts(measure(st, pass{clients: 1, sessions: 20}).d)
		}
		a, b := run(), run()
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: counts differ between identical runs:\n%v\n%v", name, a, b)
		}
		if a["conn.queries"] == 0 || a["genie.hits"] == 0 {
			t.Errorf("%s: nothing was counted: %v", name, a)
		}
	}
}

// The decorators change no count: the same single-client page list makes
// the same round trips and sends the same statements with and without them.
func TestDecoratorsAreTransparent(t *testing.T) {
	w, _ := WorkloadByName("pinax_default")
	run := func(tr *tracer) counters {
		o := smallOptions(t, w)
		o.Workload.WarmupSessions = 0
		st := mustBuild(t, o, tr)
		if tr != nil {
			tr.on.Store(true)
		}
		return measure(st, pass{clients: 1, sessions: 20}).d
	}
	plain, traced := run(nil), run(newTracer())
	for _, k := range []string{"pool.checkouts", "conn.queries", "conn.execs", "store.sets", "genie.hits", "genie.misses"} {
		if plain[k] != traced[k] || plain[k] == 0 {
			t.Errorf("%s: %d without decorators, %d with", k, plain[k], traced[k])
		}
	}
}

// batchRecorder is a cache node that batches natively and reports health.
type batchRecorder struct {
	kvcache.Cache
	batches int
	healthy bool
}

func (b *batchRecorder) ApplyBatch(ops []kvcache.BatchOp) []kvcache.BatchResult {
	b.batches++
	return make([]kvcache.BatchResult, len(ops))
}

func (b *batchRecorder) Healthy() bool { return b.healthy }

// The cache decorator forwards the optional interfaces the ring and the bus
// probe for, so neither silently falls back to per-op writes or stops
// skipping unhealthy nodes.
func TestTracedCacheForwardsOptionalInterfaces(t *testing.T) {
	inner := &batchRecorder{Cache: kvcache.New(0)}
	tr := newTracer()
	tr.on.Store(true)
	c := &tracedCache{inner: inner, tr: tr, layer: layerNode}
	ops := []kvcache.BatchOp{{Kind: kvcache.BatchSet, Key: "a"}, {Kind: kvcache.BatchDelete, Key: "b"}}
	if res := kvcache.ApplyBatchOn(c, ops); len(res) != 2 || inner.batches != 1 {
		t.Errorf("batch of 2 reached the node as %d native batches", inner.batches)
	}
	if c.Healthy() {
		t.Error("an unhealthy node looks healthy through the decorator")
	}
	inner.healthy = true
	if !c.Healthy() {
		t.Error("a healthy node looks unhealthy through the decorator")
	}
	if c.Unwrap() != kvcache.Cache(inner) {
		t.Error("Unwrap does not return the decorated cache")
	}
	spans := tr.take()
	if len(spans) != 1 || spans[0].Op != opBatch || spans[0].N != 2 {
		t.Errorf("spans = %+v, want one batch span of 2 ops", spans)
	}
	// A plain store has no HealthReporter: healthy, the ring's own default.
	if !(&tracedCache{inner: kvcache.New(0), tr: tr}).Healthy() {
		t.Error("a store without health reporting must read healthy")
	}
}

// Overwriting one cached value behind the Genie's back is an audit
// violation, and the result says the run is not correct.
func TestAuditCatchesCorruptedEntry(t *testing.T) {
	w, _ := WorkloadByName("pinax_default")
	st := mustBuild(t, smallOptions(t, w), nil)
	win := runWindow(st, pass{clients: 1, sessions: 10, keep: true})
	co := st.app.Objects["bookmark_count_of_user"]
	var key string
	for uid := int64(1); uid <= int64(small.Users); uid++ {
		k := co.MakeKey(sqldb.I64(uid))
		if _, ok := st.genie.Cache().Get(k); ok {
			key = k
			break
		}
	}
	if key == "" {
		t.Fatal("no bookmark count was cached by the run")
	}
	st.genie.Cache().Set(key, []byte("12345"), 0)
	rep, err := st.audit()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations < 1 {
		t.Fatalf("audit missed a corrupted %s (checked %d entries)", key, rep.Checked)
	}
	if res := finish(nil, 1, win, rep); res.Correct {
		t.Error("a single-client run with an audit violation reports correct")
	}
	rep.Violations = raceTolerance + 1
	if res := finish(nil, Clients, win, rep); res.Correct {
		t.Error("a run with more violations than the populate race explains reports correct")
	}
}

func TestAuditRejectsUnknownKeyField(t *testing.T) {
	w, _ := WorkloadByName("miss_evict")
	st := mustBuild(t, smallOptions(t, w), nil)
	spec := st.app.Objects["user_by_id"].Spec()
	spec.WhereFields = []string{"shoe_size"}
	if _, _, err := keyDomain(spec); err == nil {
		t.Error("a cached object keyed by an unknown field escaped the audit")
	}
}

// analyze recovers the span tree from times alone: self time is a span minus
// what its children cover, background spans never reach a page, and on a
// sequential page path the layer self times sum to the page time.
func TestAnalyzeSelfTimes(t *testing.T) {
	spans := []span{
		{Layer: layerPage, Start: 0, End: 100},
		{Layer: layerCore, Start: 10, End: 40},
		{Layer: layerCache, Op: opGet, Start: 15, End: 35},
		{Layer: layerNode, Op: opGet, Node: 0, Start: 16, End: 30},
		// A write statement whose trigger touches the cache.
		{Layer: layerDB, Op: opExec, Start: 50, End: 90},
		{Layer: layerCache, Op: opCas, Start: 60, End: 80},
		{Layer: layerNode, Op: opCas, Node: 1, Start: 62, End: 78},
		// A bus worker's batch overlapping the page: background.
		{Layer: layerCache, Op: opBatch, Background: true, N: 3, Start: 5, End: 95},
		{Layer: layerNode, Op: opBatch, Background: true, N: 3, Node: 0, Start: 6, End: 94},
		// Cache traffic outside any page (the audit): ignored.
		{Layer: layerCache, Op: opGet, Start: 200, End: 210},
	}
	b := analyze(spans)
	want := [numLayers]int64{
		layerPage:  100 - 30 - 40,
		layerCore:  30 - 20,
		layerDB:    40 - 20,
		layerCache: (20 - 14) + (20 - 16),
		layerNode:  14 + 16,
	}
	if b.SelfNs != want {
		t.Errorf("self = %v, want %v", b.SelfNs, want)
	}
	if sum(b.SelfNs[:]) != b.PageNs || b.PageNs != 100 || b.Pages != 1 {
		t.Errorf("self times sum to %d, page time %d over %d pages", sum(b.SelfNs[:]), b.PageNs, b.Pages)
	}
	if b.TriggerCacheNs != 20 || b.BackgroundNs != 90 {
		t.Errorf("trigger cache %d ns, background %d ns", b.TriggerCacheNs, b.BackgroundNs)
	}
	if b.Batches != 1 || b.BatchOps != 3 {
		t.Errorf("batches %d carrying %d ops", b.Batches, b.BatchOps)
	}
	if !reflect.DeepEqual(b.PerNode, []int64{2, 1}) {
		t.Errorf("per-node ops %v", b.PerNode)
	}
}

// Parallel replica fan-out: the parent is charged for the union of its
// overlapping children, each child keeps its own duration, and the residual
// shows the double-counted overlap instead of hiding it.
func TestAnalyzeParallelChildren(t *testing.T) {
	b := analyze([]span{
		{Layer: layerPage, Start: 0, End: 50},
		{Layer: layerCache, Op: opSet, Start: 10, End: 40},
		{Layer: layerNode, Op: opSet, Node: 0, Start: 12, End: 30},
		{Layer: layerNode, Op: opSet, Node: 1, Start: 14, End: 38},
	})
	if got := b.SelfNs[layerCache]; got != 30-(38-12) {
		t.Errorf("parent self %d, want its duration minus the 26 ns its children cover together", got)
	}
	if got := b.SelfNs[layerNode]; got != 18+24 {
		t.Errorf("node self %d, want both children in full", got)
	}
	if over := sum(b.SelfNs[:]) - b.PageNs; over != 30-14 {
		t.Errorf("residual %d, want the 16 ns the two children overlap", over)
	}
}

// Spread reproduces Python's statistics.quantiles(v, n=4).
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := Spread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("Spread = %v, want %v", got, want)
	}
	// quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
	if got, want := Spread([]float64{5, 3}), (5.5-2.5)/4.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Spread of two = %v, want %v", got, want)
	}
	if Spread([]float64{4}) != 0 {
		t.Error("one value has no spread")
	}
}

func TestCompareVerdicts(t *testing.T) {
	file := func(lat, tput []float64) File {
		var runs []Result
		for i := range lat {
			runs = append(runs, Result{Metrics: map[string]Metric{
				"latency": {Value: lat[i], Unit: "us"}, "tput": {Value: tput[i], Unit: "1/s"},
			}})
		}
		return File{Workloads: []WorkloadRuns{{Workload: "w", EndToEnd: runs}}}
	}
	defs := []MetricDef{{"latency", "us", lower, 0.10}, {"tput", "1/s", higher, 0.10}}
	steady := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		name  string
		b     File
		worse bool
		want  []string
	}{
		{"same", file(steady, steady), false, []string{VerdictOK, VerdictOK}},
		{"better", file([]float64{80, 81, 79, 80, 80}, []float64{120, 121, 119, 120, 120}), false, []string{VerdictOK, VerdictOK}},
		{"slower", file([]float64{120, 121, 119, 120, 120}, steady), true, []string{VerdictWorse, VerdictOK}},
		{"less throughput", file(steady, []float64{80, 81, 79, 80, 80}), true, []string{VerdictOK, VerdictWorse}},
		{"noisy", file([]float64{60, 140, 100, 180, 120}, steady), false, []string{VerdictUnresolved, VerdictOK}},
	}
	for _, c := range cases {
		var out bytes.Buffer
		if got := Compare(&out, file(steady, steady), c.b, defs); got != c.worse {
			t.Errorf("%s: worse = %v\n%s", c.name, got, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")[1:]
		for i, want := range c.want {
			if fields := strings.Fields(lines[i]); fields[len(fields)-1] != want {
				t.Errorf("%s: row %d verdict %q, want %q", c.name, i, fields[len(fields)-1], want)
			}
		}
	}
}
