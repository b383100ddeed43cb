package workload

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"cachegenie/internal/core"
	"cachegenie/internal/kvcache"
	"cachegenie/internal/obs"
	"cachegenie/internal/orm"
	"cachegenie/internal/social"
	"cachegenie/internal/sqldb"
	"cachegenie/internal/templateinv"
)

// ExpOptions scales the experiment harness. Zero value = defaults.
type ExpOptions struct {
	// LatencyScale divides the paper-calibrated latency model (default 50;
	// 1 reproduces paper-absolute latencies but runs ~50x longer).
	LatencyScale int
	// Quick shrinks sweeps and session counts (used by `go test -bench`).
	Quick bool
	// Seed overrides the dataset size.
	Seed social.SeedConfig
	// Out receives progress lines (nil = silent).
	Out io.Writer
	// Async routes trigger cache maintenance through the invalidation bus
	// for every stack the harness builds; BatchWindow sets the bus's
	// window.
	Async       bool
	BatchWindow time.Duration
	// Transport selects how every stack the harness builds reaches its
	// cache.
	Transport CacheTransport
	// CacheAddrs points remote-transport stacks at externally launched
	// geniecache nodes instead of self-launched loopback ones.
	CacheAddrs []string
	// Replicas sets the cache ring's replication factor for every stack the
	// harness builds (0/1 = single-owner routing; Experiment 10 sweeps
	// R = 1 vs 2 itself and ignores this).
	Replicas int
	// Metrics, when non-nil, is the obs registry every stack the harness
	// builds registers its subsystems into; genieload points its
	// -metrics-addr endpoint and live ticker at it.
	Metrics *obs.Registry
	// ZipfS > 0 switches every run the harness drives to the direct
	// rank-frequency popularity sampler (RunConfig.ZipfS); FlashCrowdPct
	// redirects that share of page loads to one viral page
	// (RunConfig.FlashCrowdPct). Experiment 13 sweeps these itself.
	ZipfS         float64
	FlashCrowdPct int
	// HotKeySpread / L1Entries / SingleFlight arm the hot-key mitigations
	// on every stack the harness builds (StackConfig fields of the same
	// names). Experiment 13 toggles them itself and ignores these.
	HotKeySpread bool
	L1Entries    int
	SingleFlight bool
}

func (o ExpOptions) scale() int {
	if o.LatencyScale <= 0 {
		return 50
	}
	return o.LatencyScale
}

func (o ExpOptions) seed() social.SeedConfig {
	if o.Seed.Users > 0 {
		return o.Seed
	}
	if o.Quick {
		return social.SeedConfig{
			Users: 100, UniqueBookmarks: 40, MaxBookmarksPer: 4,
			MaxFriendsPer: 4, MaxInvitesPer: 3, MaxWallPosts: 6,
		}
	}
	return social.SeedConfig{
		Users: 300, UniqueBookmarks: 100, MaxBookmarksPer: 6,
		MaxFriendsPer: 8, MaxInvitesPer: 5, MaxWallPosts: 10,
	}
}

func (o ExpOptions) logf(format string, args ...any) {
	if o.Out != nil {
		fmt.Fprintf(o.Out, format+"\n", args...)
	}
}

func (o ExpOptions) sessions() int {
	if o.Quick {
		return 3
	}
	return 6
}

// expPoolPages sizes the DB buffer pool so that the dataset does not fully
// fit, keeping the cached configurations disk-bound on writes (paper §5.4).
const expPoolPages = 128

func (o ExpOptions) buildStack(mode Mode, cacheBytes int64, poolPages int) (*Stack, error) {
	if poolPages == 0 {
		poolPages = expPoolPages
	}
	return BuildStack(StackConfig{
		Mode:              mode,
		Seed:              o.seed(),
		RngSeed:           42,
		LatencyScale:      o.scale(),
		CacheBytes:        cacheBytes,
		Replicas:          o.Replicas,
		BufferPoolPages:   poolPages,
		AsyncInvalidation: o.Async,
		BatchWindow:       o.BatchWindow,
		Transport:         o.Transport,
		CacheAddrs:        o.CacheAddrs,
		HotKeySpread:      o.HotKeySpread,
		L1Entries:         o.L1Entries,
		SingleFlight:      o.SingleFlight,
		Obs:               o.Metrics,
	})
}

func (o ExpOptions) runCfg(clients, writePct int, zipfA float64) RunConfig {
	return RunConfig{
		Clients:         clients,
		Sessions:        o.sessions(),
		PagesPerSession: 10,
		WritePct:        writePct,
		ZipfA:           zipfA,
		ZipfS:           o.ZipfS,
		FlashCrowdPct:   o.FlashCrowdPct,
		WarmupSessions:  clients * 2,
		RngSeed:         7,
	}
}

// ---------- §5.3 microbenchmarks ----------

// MicroLookupResult compares a primary-key database lookup against a cache
// get (paper: the DB takes 10-25x longer).
type MicroLookupResult struct {
	DBLookup    time.Duration
	CacheLookup time.Duration
	Ratio       float64
}

// MicroLookup reproduces the §5.3 lookup microbenchmark.
func MicroLookup(opt ExpOptions) (MicroLookupResult, error) {
	model := PaperScaled(opt.scale())
	db, err := sqldb.Open(sqldb.Config{Cost: newDBCost(model).charge, BufferPoolPages: 1024})
	if err != nil {
		return MicroLookupResult{}, err
	}
	if _, err := db.Exec("CREATE TABLE kv (k INT NOT NULL, v TEXT)"); err != nil {
		return MicroLookupResult{}, err
	}
	if _, err := db.Exec("CREATE INDEX idx_kv_k ON kv (k)"); err != nil {
		return MicroLookupResult{}, err
	}
	const rows = 2000
	for i := 0; i < rows; i++ {
		if _, err := db.Exec("INSERT INTO kv (k, v) VALUES ($1, $2)",
			sqldb.I64(int64(i)), sqldb.Str(fmt.Sprintf("value-%d", i))); err != nil {
			return MicroLookupResult{}, err
		}
	}
	cache := newLatencyCache(kvcache.New(0), model, false)
	cache.Set("kv:1", []byte("value-1"), 0)

	// Each side is timed as the fastest of three passes: a modelled lookup is
	// mostly timer rounding, and the fastest pass is the one the rest of the
	// machine disturbed least.
	const iters, passes = 300, 3
	perLookup := func(lookup func(i int) error) (time.Duration, error) {
		best := time.Duration(math.MaxInt64)
		for pass := 0; pass < passes; pass++ {
			start := time.Now()
			for i := 0; i < iters; i++ {
				if err := lookup(i); err != nil {
					return 0, err
				}
			}
			best = min(best, time.Since(start)/iters)
		}
		return best, nil
	}
	dbPer, err := perLookup(func(i int) error {
		_, err := db.Query("SELECT v FROM kv WHERE k = $1", sqldb.I64(int64(i%rows)))
		return err
	})
	if err != nil {
		return MicroLookupResult{}, err
	}
	cachePer, _ := perLookup(func(int) error {
		cache.Get("kv:1")
		return nil
	})
	res := MicroLookupResult{DBLookup: dbPer, CacheLookup: cachePer}
	if cachePer > 0 {
		res.Ratio = float64(dbPer) / float64(cachePer)
	}
	return res, nil
}

// MicroTriggerResult reproduces the §5.3 trigger-overhead microbenchmark:
// plain INSERT 6.3ms, no-op trigger 6.5ms, trigger opening a remote cache
// connection 11.9ms, +0.2ms per cache operation from within the trigger.
type MicroTriggerResult struct {
	PlainInsert      time.Duration
	NoopTrigger      time.Duration
	ConnectTrigger   time.Duration
	PerCacheOp       time.Duration
	NoopOverheadPct  float64
	TotalOverheadPct float64
}

// MicroTrigger measures INSERT latency under increasing trigger cost.
func MicroTrigger(opt ExpOptions) (MicroTriggerResult, error) {
	model := PaperScaled(opt.scale())
	mk := func() (*sqldb.DB, error) {
		db, err := sqldb.Open(sqldb.Config{Cost: newDBCost(model).charge, BufferPoolPages: 1024})
		if err != nil {
			return nil, err
		}
		_, err = db.Exec("CREATE TABLE t (v TEXT)")
		return db, err
	}
	timeInserts := func(db *sqldb.DB) (time.Duration, error) {
		const iters = 200
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := db.Exec("INSERT INTO t (v) VALUES ($1)", sqldb.Str("x")); err != nil {
				return 0, err
			}
		}
		return time.Since(start) / iters, nil
	}

	var res MicroTriggerResult
	db, err := mk()
	if err != nil {
		return res, err
	}
	if res.PlainInsert, err = timeInserts(db); err != nil {
		return res, err
	}

	db, err = mk()
	if err != nil {
		return res, err
	}
	if err := db.CreateTrigger(sqldb.Trigger{
		Name: "noop", Table: "t", Op: sqldb.TrigInsert,
		Fn: func(q sqldb.Queryer, ev sqldb.TriggerEvent) error { return nil },
	}); err != nil {
		return res, err
	}
	if res.NoopTrigger, err = timeInserts(db); err != nil {
		return res, err
	}

	db, err = mk()
	if err != nil {
		return res, err
	}
	cache := newLatencyCache(kvcache.New(0), model, false)
	if err := db.CreateTrigger(sqldb.Trigger{
		Name: "connect", Table: "t", Op: sqldb.TrigInsert,
		Fn: func(q sqldb.Queryer, ev sqldb.TriggerEvent) error {
			time.Sleep(model.CacheConnect) // open remote cache connection
			cache.Set("k", []byte("v"), 0) // one cache op
			return nil
		},
	}); err != nil {
		return res, err
	}
	if res.ConnectTrigger, err = timeInserts(db); err != nil {
		return res, err
	}

	// Per-op cost: a cache op from within the trigger costs the same as a
	// client one — one round trip.
	start := time.Now()
	const ops = 500
	for i := 0; i < ops; i++ {
		cache.Set("k", []byte("v"), 0)
	}
	res.PerCacheOp = time.Since(start) / ops
	if res.PlainInsert > 0 {
		res.NoopOverheadPct = 100 * float64(res.NoopTrigger-res.PlainInsert) / float64(res.PlainInsert)
		res.TotalOverheadPct = 100 * float64(res.ConnectTrigger-res.PlainInsert) / float64(res.PlainInsert)
	}
	return res, nil
}

// ---------- Experiment 1 (Fig 2a/2b, Table 2) ----------

// Exp1Point is one (mode, clients) measurement.
type Exp1Point struct {
	Mode       Mode
	Clients    int
	Throughput float64
	MeanLat    time.Duration
	Errors     int
}

// Exp1Clients is the default client sweep (paper: 1-40).
func Exp1Clients(quick bool) []int {
	if quick {
		return []int{4, 15, 30}
	}
	return []int{1, 5, 10, 15, 20, 30, 40}
}

// Exp1 sweeps client counts for the three systems (Fig 2a throughput and
// Fig 2b latency).
func Exp1(opt ExpOptions, clients []int) ([]Exp1Point, error) {
	if clients == nil {
		clients = Exp1Clients(opt.Quick)
	}
	var out []Exp1Point
	for _, mode := range []Mode{ModeNoCache, ModeInvalidate, ModeUpdate} {
		for _, c := range clients {
			st, err := opt.buildStack(mode, 0, 0)
			if err != nil {
				return nil, err
			}
			rep, err := Run(st, opt.runCfg(c, 20, 2.0))
			st.Close()
			if err != nil {
				return nil, err
			}
			mean := overallMean(rep)
			p := Exp1Point{Mode: mode, Clients: c, Throughput: rep.Throughput, MeanLat: mean, Errors: rep.Errors}
			out = append(out, p)
			opt.logf("exp1  %-10s clients=%-3d %9.1f pages/s  mean=%v", mode, c, p.Throughput, p.MeanLat.Round(time.Microsecond))
		}
	}
	return out, nil
}

func overallMean(rep Report) time.Duration {
	var total time.Duration
	n := 0
	for _, st := range rep.ByPage {
		total += st.Mean * time.Duration(st.Count)
		n += st.Count
	}
	if n == 0 {
		return 0
	}
	return total / time.Duration(n)
}

// Exp1PageRow is one Table 2 row: per-page-type latency per mode.
type Exp1PageRow struct {
	Page   social.PageType
	ByMode map[Mode]time.Duration
}

// Exp1PageTable reproduces Table 2 (average latency by page type at the
// paper's 15-client operating point).
func Exp1PageTable(opt ExpOptions) ([]Exp1PageRow, error) {
	byMode := map[Mode]map[social.PageType]PageStats{}
	for _, mode := range []Mode{ModeUpdate, ModeInvalidate, ModeNoCache} {
		st, err := opt.buildStack(mode, 0, 0)
		if err != nil {
			return nil, err
		}
		rep, err := Run(st, opt.runCfg(15, 20, 2.0))
		st.Close()
		if err != nil {
			return nil, err
		}
		byMode[mode] = rep.ByPage
	}
	var rows []Exp1PageRow
	for _, p := range social.PageTypes() {
		row := Exp1PageRow{Page: p, ByMode: map[Mode]time.Duration{}}
		for mode, pages := range byMode {
			row.ByMode[mode] = pages[p].Mean
		}
		rows = append(rows, row)
		opt.logf("table2 %-10s update=%-12v inval=%-12v nocache=%v",
			p, row.ByMode[ModeUpdate].Round(time.Microsecond),
			row.ByMode[ModeInvalidate].Round(time.Microsecond),
			row.ByMode[ModeNoCache].Round(time.Microsecond))
	}
	return rows, nil
}

// ---------- Experiment 2 (Fig 3a): read/write mix ----------

// Exp2Point is one (mode, read%) measurement.
type Exp2Point struct {
	Mode       Mode
	ReadPct    int
	Throughput float64
}

// Exp2ReadPcts is the default mix sweep (paper: 0-100%).
func Exp2ReadPcts(quick bool) []int {
	if quick {
		return []int{0, 80, 100}
	}
	return []int{0, 20, 40, 60, 80, 90, 100}
}

// Exp2 varies the read fraction (Fig 3a).
func Exp2(opt ExpOptions, readPcts []int) ([]Exp2Point, error) {
	if readPcts == nil {
		readPcts = Exp2ReadPcts(opt.Quick)
	}
	var out []Exp2Point
	for _, mode := range []Mode{ModeNoCache, ModeInvalidate, ModeUpdate} {
		for _, rp := range readPcts {
			st, err := opt.buildStack(mode, 0, 0)
			if err != nil {
				return nil, err
			}
			rep, err := Run(st, opt.runCfg(15, 100-rp, 2.0))
			st.Close()
			if err != nil {
				return nil, err
			}
			out = append(out, Exp2Point{Mode: mode, ReadPct: rp, Throughput: rep.Throughput})
			opt.logf("exp2  %-10s read%%=%-3d %9.1f pages/s", mode, rp, rep.Throughput)
		}
	}
	return out, nil
}

// ---------- Experiment 3 (Fig 3b): user-distribution skew ----------

// Exp3Point is one (mode, zipfA) measurement.
type Exp3Point struct {
	Mode       Mode
	ZipfA      float64
	Throughput float64
}

// Exp3ZipfAs is the default skew sweep (paper: 1.1-2.0).
func Exp3ZipfAs(quick bool) []float64 {
	if quick {
		return []float64{1.2, 2.0}
	}
	return []float64{1.1, 1.2, 1.4, 1.6, 1.8, 2.0}
}

// Exp3 varies the zipf parameter (Fig 3b).
func Exp3(opt ExpOptions, zipfAs []float64) ([]Exp3Point, error) {
	if zipfAs == nil {
		zipfAs = Exp3ZipfAs(opt.Quick)
	}
	var out []Exp3Point
	for _, mode := range []Mode{ModeNoCache, ModeInvalidate, ModeUpdate} {
		for _, a := range zipfAs {
			st, err := opt.buildStack(mode, 0, 0)
			if err != nil {
				return nil, err
			}
			rep, err := Run(st, opt.runCfg(15, 20, a))
			st.Close()
			if err != nil {
				return nil, err
			}
			out = append(out, Exp3Point{Mode: mode, ZipfA: a, Throughput: rep.Throughput})
			opt.logf("exp3  %-10s a=%.1f %9.1f pages/s", mode, a, rep.Throughput)
		}
	}
	return out, nil
}

// ---------- Experiment 4 (Fig 3c): cache size ----------

// Exp4Point is one (mode, cacheBytes) measurement.
type Exp4Point struct {
	Mode       Mode
	CacheBytes int64
	Throughput float64
	HitRate    float64
	Evictions  int64
}

// Exp4CacheSizes is the default size sweep. The paper sweeps 64-512 MB
// against a 10 GB database; scaled to our dataset.
func Exp4CacheSizes(quick bool) []int64 {
	if quick {
		return []int64{32 << 10, 256 << 10}
	}
	return []int64{16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10}
}

// Exp4 varies the cache capacity (Fig 3c; NoCache is flat by definition and
// measured once as the reference line).
func Exp4(opt ExpOptions, sizes []int64) ([]Exp4Point, error) {
	if sizes == nil {
		sizes = Exp4CacheSizes(opt.Quick)
	}
	var out []Exp4Point
	for _, mode := range []Mode{ModeInvalidate, ModeUpdate} {
		for _, size := range sizes {
			st, err := opt.buildStack(mode, size, 0)
			if err != nil {
				return nil, err
			}
			rep, err := Run(st, opt.runCfg(15, 20, 2.0))
			if err != nil {
				st.Close()
				return nil, err
			}
			// Hit rate from the Genie's read path: the raw cache counters
			// also see trigger probes (a Gets on an uncached key is a miss),
			// which would understate the application-visible hit rate.
			gs := st.Genie.Stats()
			hitRate := 0.0
			if total := gs.Hits + gs.Misses; total > 0 {
				hitRate = float64(gs.Hits) / float64(total)
			}
			evictions := st.CacheStats().Evictions
			st.Close()
			out = append(out, Exp4Point{
				Mode: mode, CacheBytes: size, Throughput: rep.Throughput,
				HitRate: hitRate, Evictions: evictions,
			})
			opt.logf("exp4  %-10s cache=%-8d %9.1f pages/s  hit=%.2f evictions=%d",
				mode, size, rep.Throughput, hitRate, evictions)
		}
	}
	return out, nil
}

// Exp4Colocated reproduces the §5.4 variant where memcached shares the
// database machine: the DB's buffer pool shrinks by the cache's share of
// memory. Returns throughput for (separate, colocated) per cached mode.
type Exp4ColocatedResult struct {
	Mode                Mode
	SeparateThroughput  float64
	ColocatedThroughput float64
}

// Exp4Colocated runs the colocated-cache comparison.
func Exp4Colocated(opt ExpOptions) ([]Exp4ColocatedResult, error) {
	var out []Exp4ColocatedResult
	for _, mode := range []Mode{ModeInvalidate, ModeUpdate} {
		sep, err := opt.buildStack(mode, 256<<10, expPoolPages)
		if err != nil {
			return nil, err
		}
		repSep, err := Run(sep, opt.runCfg(15, 20, 2.0))
		sep.Close()
		if err != nil {
			return nil, err
		}
		// Colocated: the cache's memory comes out of the buffer pool. The
		// shrink must leave the pool well below the hot set to be visible
		// at this dataset scale (the paper gives most of the box's memory
		// to memcached).
		colo, err := opt.buildStack(mode, 256<<10, expPoolPages/16)
		if err != nil {
			return nil, err
		}
		repColo, err := Run(colo, opt.runCfg(15, 20, 2.0))
		colo.Close()
		if err != nil {
			return nil, err
		}
		out = append(out, Exp4ColocatedResult{
			Mode: mode, SeparateThroughput: repSep.Throughput, ColocatedThroughput: repColo.Throughput,
		})
		opt.logf("exp4b %-10s separate=%9.1f colocated=%9.1f pages/s",
			mode, repSep.Throughput, repColo.Throughput)
	}
	return out, nil
}

// ---------- Experiment 5: trigger overhead under load ----------

// Exp5Result compares the real system against the "ideal" system with
// triggers removed (paper: triggers cost 22-28% of throughput).
type Exp5Result struct {
	Mode            Mode
	WithTriggers    float64
	WithoutTriggers float64
	OverheadPct     float64
}

// Exp5 measures trigger overhead on the loaded system.
func Exp5(opt ExpOptions) ([]Exp5Result, error) {
	var out []Exp5Result
	for _, mode := range []Mode{ModeInvalidate, ModeUpdate} {
		withSt, err := opt.buildStack(mode, 0, 0)
		if err != nil {
			return nil, err
		}
		repWith, err := Run(withSt, opt.runCfg(15, 20, 2.0))
		withSt.Close()
		if err != nil {
			return nil, err
		}
		// The ideal system: same stack, triggers disabled. Cached reads may
		// return stale data, but as in the paper this still estimates the
		// upper-bound performance of free cache maintenance.
		idealSt, err := opt.buildStack(mode, 0, 0)
		if err != nil {
			return nil, err
		}
		idealSt.DB.SetTriggersEnabled(false)
		repIdeal, err := Run(idealSt, opt.runCfg(15, 20, 2.0))
		idealSt.Close()
		if err != nil {
			return nil, err
		}
		r := Exp5Result{Mode: mode, WithTriggers: repWith.Throughput, WithoutTriggers: repIdeal.Throughput}
		if r.WithoutTriggers > 0 {
			r.OverheadPct = 100 * (r.WithoutTriggers - r.WithTriggers) / r.WithoutTriggers
		}
		out = append(out, r)
		opt.logf("exp5  %-10s with=%9.1f ideal=%9.1f overhead=%.0f%%",
			mode, r.WithTriggers, r.WithoutTriggers, r.OverheadPct)
	}
	return out, nil
}

// ---------- §5.2 programmer effort ----------

// EffortReport reproduces the paper's porting-effort accounting.
type EffortReport struct {
	CachedObjects   int
	Triggers        int
	GeneratedLines  int
	AppLinesChanged int
}

// Effort builds the cached-object set and counts generated artifacts.
func Effort() (EffortReport, error) {
	st, err := BuildStack(StackConfig{
		Mode: ModeUpdate,
		Seed: social.SeedConfig{Users: 5, UniqueBookmarks: 5, MaxBookmarksPer: 1, MaxFriendsPer: 1, MaxInvitesPer: 1, MaxWallPosts: 1},
	})
	if err != nil {
		return EffortReport{}, err
	}
	rep := EffortReport{
		// Porting the app is exactly the CachedObjectSpecs declarations:
		// one cacheable(...) call per object (paper: ~20 lines changed).
		AppLinesChanged: len(social.CachedObjectSpecs(core.UpdateInPlace)),
	}
	for _, co := range st.Genie.Objects() {
		rep.CachedObjects++
		rep.Triggers += len(co.Triggers())
		rep.GeneratedLines += co.TriggerSourceLines()
	}
	return rep, nil
}

// ---------- Ablation: template-based invalidation baseline ----------

// AblationTemplateResult contrasts CacheGenie's key-granular invalidation
// with GlobeCBC-style template-wide invalidation under the same workload.
type AblationTemplateResult struct {
	GenieHitRate       float64
	TemplateHitRate    float64
	GenieThroughput    float64
	TemplateThroughput float64
}

// AblationTemplateInvalidation runs the same session workload over
// CacheGenie (invalidate strategy) and the template-invalidation baseline.
func AblationTemplateInvalidation(opt ExpOptions) (AblationTemplateResult, error) {
	var res AblationTemplateResult

	genieSt, err := opt.buildStack(ModeInvalidate, 0, 0)
	if err != nil {
		return res, err
	}
	repG, err := Run(genieSt, opt.runCfg(8, 20, 2.0))
	if err != nil {
		genieSt.Close()
		return res, err
	}
	gs := genieSt.Genie.Stats()
	genieSt.Close()
	if total := gs.Hits + gs.Misses; total > 0 {
		res.GenieHitRate = float64(gs.Hits) / float64(total)
	}
	res.GenieThroughput = repG.Throughput

	// Baseline: same engine + app, reads cached by exact query text with
	// template-wide invalidation, no CacheGenie.
	model := PaperScaled(opt.scale())
	db, err := sqldb.Open(sqldb.Config{
		BufferPoolPages: expPoolPages, Cost: newDBCost(model).charge,
		LockTimeout: 10 * time.Second,
	})
	if err != nil {
		return res, err
	}
	tcache := kvcache.New(0)
	logical := newLatencyCache(tcache, model, false)
	tconn := templateinv.New(db, logical, 0)
	reg := orm.NewRegistry(tconn)
	if err := social.RegisterModels(reg); err != nil {
		return res, err
	}
	if err := reg.CreateTables(); err != nil {
		return res, err
	}
	app, err := social.NewApp(reg, nil, core.Invalidate)
	if err != nil {
		return res, err
	}
	if err := app.Seed(opt.seed(), rand.New(rand.NewSource(43))); err != nil {
		return res, err
	}
	baselineStack := &Stack{Config: StackConfig{Mode: ModeInvalidate}, DB: db, Reg: reg, App: app, Stores: []*kvcache.Store{tcache}, Cache: logical}
	repT, err := Run(baselineStack, opt.runCfg(8, 20, 2.0))
	if err != nil {
		return res, err
	}
	ts := tconn.Stats()
	if total := ts.Hits + ts.Misses; total > 0 {
		res.TemplateHitRate = float64(ts.Hits) / float64(total)
	}
	res.TemplateThroughput = repT.Throughput
	opt.logf("ablation template-inv: genie hit=%.2f (%.1f pages/s)  template hit=%.2f (%.1f pages/s)",
		res.GenieHitRate, res.GenieThroughput, res.TemplateHitRate, res.TemplateThroughput)
	return res, nil
}

// RunMode builds a fresh stack for mode and runs one workload
// configuration — the shared primitive behind the benchmark harness.
func RunMode(opt ExpOptions, mode Mode, clients, writePct int, zipfA float64) (Report, error) {
	st, err := opt.buildStack(mode, 0, 0)
	if err != nil {
		return Report{}, err
	}
	defer st.Close()
	return Run(st, opt.runCfg(clients, writePct, zipfA))
}

// BuildStackForBench exposes the trigger-connection-reuse and cache-cluster
// knobs to the benchmark harness.
func BuildStackForBench(opt ExpOptions, mode Mode, reuseTriggerConns bool, cacheNodes int) (*Stack, error) {
	return BuildStack(StackConfig{
		Mode:                    mode,
		Seed:                    opt.seed(),
		RngSeed:                 42,
		LatencyScale:            opt.scale(),
		BufferPoolPages:         expPoolPages,
		CacheNodes:              cacheNodes,
		Replicas:                opt.Replicas,
		ReuseTriggerConnections: reuseTriggerConns,
		Obs:                     opt.Metrics,
	})
}
