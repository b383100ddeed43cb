package workload

import (
	"sync"
	"testing"
	"time"

	"cachegenie/internal/kvcache"
	"cachegenie/internal/obs"
	"cachegenie/internal/sqldb"
)

func TestPaperScaledRatios(t *testing.T) {
	m1 := PaperScaled(1)
	// The paper's measured anchors.
	if m1.CacheRoundTrip != 200*time.Microsecond {
		t.Fatalf("CacheRoundTrip = %v", m1.CacheRoundTrip)
	}
	if m1.CacheConnect != 5400*time.Microsecond {
		t.Fatalf("CacheConnect = %v", m1.CacheConnect)
	}
	// DB CPU per statement must land in the paper's 10-25x band relative
	// to a cache round trip (§5.3).
	ratio := float64(m1.DBCPU) / float64(m1.CacheRoundTrip)
	if ratio < 10 || ratio > 25 {
		t.Fatalf("DBCPU/CacheRoundTrip = %.1f, want in [10, 25]", ratio)
	}
	// Scaling divides everything uniformly.
	m10 := PaperScaled(10)
	if m10.DBCPU != m1.DBCPU/10 || m10.DiskAccess != m1.DiskAccess/10 {
		t.Fatalf("scale-10 model = %+v", m10)
	}
	// Degenerate scales clamp to 1.
	if m := PaperScaled(0); m.DBCPU != m1.DBCPU {
		t.Fatal("scale 0 not clamped")
	}
}

// TestLatencyCacheBatchChargesOneRoundTrip: a batch costs one round trip
// however many ops it carries, and a connection only when it is trigger
// maintenance (edit, incr, delete) and connections are not reused.
func TestLatencyCacheBatchChargesOneRoundTrip(t *testing.T) {
	m := Model{CacheRoundTrip: time.Microsecond, CacheConnect: time.Microsecond}
	batch := func(kind kvcache.BatchOpKind) []kvcache.BatchOp {
		ops := make([]kvcache.BatchOp, 50)
		for i := range ops {
			ops[i] = kvcache.BatchOp{Kind: kind, Key: "k", Value: []byte("1")}
		}
		return ops
	}
	lc := newLatencyCache(kvcache.New(0), m, false)
	lc.ApplyBatch(batch(kvcache.BatchSet))
	if rt, c := lc.roundTrips.Load(), lc.connects.Load(); rt != 1 || c != 0 {
		t.Fatalf("50 sets: %d round trips, %d connects; want 1 and 0", rt, c)
	}
	lc.ApplyBatch(batch(kvcache.BatchGet))
	lc.ApplyBatch(batch(kvcache.BatchGets))
	lc.ApplyBatch(batch(kvcache.BatchCas))
	if c := lc.connects.Load(); c != 0 {
		t.Fatalf("a read wave or a gets or cas batch paid %d connects", c)
	}
	for _, k := range []kvcache.BatchOpKind{kvcache.BatchEdit, kvcache.BatchIncr, kvcache.BatchDelete} {
		lc.ApplyBatch(batch(k))
	}
	if rt, c := lc.roundTrips.Load(), lc.connects.Load(); rt != 7 || c != 3 {
		t.Fatalf("after 7 batches: %d round trips, %d connects; want 7 and 3", rt, c)
	}
	reused := newLatencyCache(kvcache.New(0), m, true)
	reused.ApplyBatch(batch(kvcache.BatchDelete))
	if c := reused.connects.Load(); c != 0 {
		t.Fatalf("reused connections still paid %d connects", c)
	}
}

// TestSimChargesMatchStackCounts runs one client over a synchronous,
// in-process stack and checks the model charges what the paper's deployment
// would have paid: one trigger connection per statement write-set flush
// (none when connections are reused), and one database round trip and CPU
// slice per statement.
func TestSimChargesMatchStackCounts(t *testing.T) {
	for _, reuse := range []bool{false, true} {
		opt := tinyOpts()
		reg := obs.NewRegistry()
		st, err := BuildStack(StackConfig{
			Mode: ModeUpdate, Seed: opt.Seed, RngSeed: 42, LatencyScale: opt.LatencyScale,
			BufferPoolPages: expPoolPages, ReuseTriggerConnections: reuse, Obs: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(st, RunConfig{Clients: 1, Sessions: 4, PagesPerSession: 8, WritePct: 50, ZipfA: 2.0, RngSeed: 3})
		st.Close()
		if err != nil || rep.Errors > 0 {
			t.Fatalf("rep=%+v err=%v", rep, err)
		}
		var flushes int64
		reg.VisitHistograms(func(name, _ string, h *obs.Histogram) {
			if name == "cachegenie_genie_writeset_flush_ops" {
				flushes = int64(h.Snapshot().Count)
			}
		})
		want := flushes
		if reuse {
			want = 0
		}
		if flushes == 0 {
			t.Fatal("no write-set flushes: the run wrote nothing")
		}
		if got := st.latency.connects.Load(); got != want {
			t.Errorf("reuse=%v: %d connects for %d write-set flushes, want %d", reuse, got, flushes, want)
		}
		ds := st.DB.Stats()
		if got, stmts := st.dbCost.cpu.held.Load(), ds.Selects+ds.Inserts+ds.Updates+ds.Deletes; got != stmts {
			t.Errorf("reuse=%v: %d statement charges for %d statements", reuse, got, stmts)
		}
		if peak := st.dbCost.cpu.peak.Load(); peak != 1 {
			t.Errorf("reuse=%v: one client's statements overlapped on the CPU (peak %d)", reuse, peak)
		}
	}
}

// TestDBCostGateWidths: the database box serves at most dbCPUWidth
// statements' CPU and diskWidth disk accesses at once; the rest queue, and
// every one is still charged.
func TestDBCostGateWidths(t *testing.T) {
	c := newDBCost(Model{DBCPU: 2 * time.Millisecond, DiskAccess: 2 * time.Millisecond})
	const n = 12
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(2)
		go func() { defer wg.Done(); c.charge(sqldb.CostStatement) }()
		go func() { defer wg.Done(); c.charge(sqldb.CostDiskAccess) }()
	}
	wg.Wait()
	if got := c.cpu.held.Load(); got != n {
		t.Fatalf("CPU charges = %d, want %d", got, n)
	}
	if got := c.disk.held.Load(); got != n {
		t.Fatalf("disk charges = %d, want %d", got, n)
	}
	if p := c.cpu.peak.Load(); p < 1 || p > dbCPUWidth {
		t.Fatalf("CPU served %d statements at once, want at most %d", p, dbCPUWidth)
	}
	if p := c.disk.peak.Load(); p < 1 || p > diskWidth {
		t.Fatalf("disk served %d accesses at once, want at most %d", p, diskWidth)
	}
}
