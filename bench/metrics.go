package bench

import (
	"fmt"
	"math"
	"slices"

	"cachegenie/internal/social"
)

// MetricDef declares one metric: BENCHMARK.json is generated from these
// tables (geniebench -manifest), and every run is checked against them.
type MetricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// EndToEnd are the metrics a user of the system would see, the same names
// on every workload. Bound is the share of the parent's median by which the
// metric may get worse before a change counts as a regression.
//
// Every time-based metric carries the largest bound the benchmark contract
// allows. The reference sandbox drifts: two sets of ten runs of the same
// commit, a quarter of an hour apart, differed by up to 23 % in pages_per_s
// and 19 % in setup_s, and the quartile spread inside one set has reached 18 %,
// all of it slow host drift (neighbouring runs agree within 2 %). A tighter
// bound would reject unchanged code. The count-based metrics keep tighter
// bounds: allocs_per_page three times its spread over ten seeds (allocations
// follow the list sizes a seed's page order grows: 5 %) — it is here, not in
// the process. layer group, to give CPU cost one figure the host cannot move.
// db_stmts_per_page repeats to 1 % on three workloads, but on the async one
// bus lag against page rate decides how many reads miss, and a 17 % slower
// host moved it 8 %.
//
// write_page_p95_us is not here but in the page. layer group: its spread
// over ten seeds (0.13-0.22) left no room under the largest allowed bound.
//
// failed_page_share and audit_violations are not here: they are zero on a
// healthy run, and a relative bound on zero means nothing. They are the
// "failed" and "correct" fields of every result instead, and any non-zero
// value fails the run.
var EndToEnd = []MetricDef{
	{"setup_s", "s", lower, 0.25},
	{"pages_per_s", "1/s", higher, 0.25},
	{"read_page_p50_us", "us", lower, 0.25},
	{"read_page_p95_us", "us", lower, 0.25},
	{"write_page_p50_us", "us", lower, 0.25},
	{"cpu_us_per_page", "us", lower, 0.25},
	{"allocs_per_page", "1/page", lower, 0.15},
	{"db_stmts_per_page", "1/page", lower, 0.20},
	{"live_heap_mb", "MB", lower, 0.05},
}

// PerLayer are single-layer metrics from the traced pass, prefixed by the
// module they size. They carry no bound; bench/README.md records which
// end-to-end metric each group should move, on which workload.
var PerLayer = []MetricDef{
	{Name: "page.read_p99_us", Unit: "us", Better: lower},
	{Name: "page.read_p999_us", Unit: "us", Better: lower},
	{Name: "page.write_p95_us", Unit: "us", Better: lower},
	{Name: "page.write_p99_us", Unit: "us", Better: lower},
	{Name: "page.count_login", Unit: "count", Better: higher},
	{Name: "page.count_logout", Unit: "count", Better: higher},
	{Name: "page.count_lookupbm", Unit: "count", Better: higher},
	{Name: "page.count_lookupfbm", Unit: "count", Better: higher},
	{Name: "page.count_createbm", Unit: "count", Better: higher},
	{Name: "page.count_acceptfr", Unit: "count", Better: higher},

	{Name: "orm.self_us_per_page", Unit: "us/page", Better: lower},
	{Name: "orm.queries_per_page", Unit: "1/page", Better: lower},

	{Name: "core.read_self_us_per_page", Unit: "us/page", Better: lower},
	{Name: "core.hit_ratio", Unit: "ratio", Better: higher},
	{Name: "core.db_loads_per_page", Unit: "1/page", Better: lower},
	{Name: "core.trigger_ops_per_write_stmt", Unit: "1/stmt", Better: lower},
	{Name: "core.trigger_cache_us_per_write_stmt", Unit: "us/stmt", Better: lower},
	{Name: "core.cas_retries", Unit: "count", Better: lower},
	{Name: "core.recomputes", Unit: "count", Better: lower},
	{Name: "core.populate_refused", Unit: "count", Better: lower},

	{Name: "invbus.enqueued", Unit: "count", Better: lower},
	{Name: "invbus.coalesced_ratio", Unit: "ratio", Better: higher},
	{Name: "invbus.ops_per_flush", Unit: "1/flush", Better: higher},
	{Name: "invbus.max_lag_ms", Unit: "ms", Better: lower},
	{Name: "invbus.queue_full_stalls", Unit: "count", Better: lower},
	{Name: "invbus.stall_ms", Unit: "ms", Better: lower},
	{Name: "invbus.drain_ms", Unit: "ms", Better: lower},
	{Name: "invbus.apply_us_per_write_stmt", Unit: "us/stmt", Better: lower},

	{Name: "cluster.self_us_per_page", Unit: "us/page", Better: lower},
	{Name: "cluster.self_us_per_op", Unit: "us/op", Better: lower},
	{Name: "cluster.node_ops_per_logical_op", Unit: "ratio", Better: lower},
	{Name: "cluster.imbalance", Unit: "ratio", Better: lower},
	{Name: "cluster.failover_reads", Unit: "count", Better: lower},
	{Name: "cluster.read_repairs", Unit: "count", Better: lower},

	{Name: "cacheproto.self_us_per_page", Unit: "us/page", Better: lower},
	{Name: "cacheproto.roundtrips_per_page", Unit: "1/page", Better: lower},
	{Name: "cacheproto.get_rtt_p50_us", Unit: "us", Better: lower},
	{Name: "cacheproto.get_rtt_p99_us", Unit: "us", Better: lower},
	{Name: "cacheproto.cas_rtt_p50_us", Unit: "us", Better: lower},
	{Name: "cacheproto.batch_rtt_p50_us", Unit: "us", Better: lower},
	{Name: "cacheproto.ops_per_batch", Unit: "1/batch", Better: higher},
	{Name: "cacheproto.wire_overhead_us", Unit: "us", Better: lower},
	{Name: "cacheproto.dials", Unit: "count", Better: lower},
	{Name: "cacheproto.pool_waits", Unit: "count", Better: lower},
	{Name: "cacheproto.failfast", Unit: "count", Better: lower},
	{Name: "cacheproto.l1_hit_ratio", Unit: "ratio", Better: higher},

	{Name: "kvcache.self_us_per_page", Unit: "us/page", Better: lower},
	{Name: "kvcache.hit_ratio", Unit: "ratio", Better: higher},
	{Name: "kvcache.evictions_per_page", Unit: "1/page", Better: lower},
	{Name: "kvcache.cas_conflicts", Unit: "count", Better: lower},
	{Name: "kvcache.items", Unit: "count", Better: lower},
	{Name: "kvcache.bytes_used_mb", Unit: "MB", Better: lower},
	{Name: "kvcache.bytes_per_item", Unit: "B", Better: lower},
	{Name: "kvcache.get_ns", Unit: "ns", Better: lower},
	{Name: "kvcache.set_ns", Unit: "ns", Better: lower},

	{Name: "sqlparse.parse_us_per_stmt", Unit: "us/stmt", Better: lower},
	{Name: "sqlparse.distinct_stmts", Unit: "count", Better: lower},
	{Name: "sqlparse.share_of_db_time", Unit: "ratio", Better: lower},

	{Name: "sqldb.query_p50_us", Unit: "us", Better: lower},
	{Name: "sqldb.query_p99_us", Unit: "us", Better: lower},
	{Name: "sqldb.exec_p50_us", Unit: "us", Better: lower},
	{Name: "sqldb.exec_p99_us", Unit: "us", Better: lower},
	{Name: "sqldb.self_us_per_page", Unit: "us/page", Better: lower},
	{Name: "sqldb.triggers_fired_per_write_stmt", Unit: "1/stmt", Better: lower},
	{Name: "sqldb.lock_timeout_retries", Unit: "count", Better: lower},
	{Name: "sqldb.txns_aborted", Unit: "count", Better: lower},

	{Name: "storage.bufferpool_hit_ratio", Unit: "ratio", Better: higher},
	{Name: "storage.page_reads_per_page", Unit: "1/page", Better: lower},

	{Name: "wal.fsyncs_per_commit", Unit: "ratio", Better: lower},
	{Name: "wal.bytes_per_commit", Unit: "B", Better: lower},
	{Name: "wal.fsync_p50_us", Unit: "us", Better: lower},
	{Name: "wal.recovery_ms", Unit: "ms", Better: lower},
	{Name: "wal.replayed_txns", Unit: "count", Better: lower},

	{Name: "process.gc_cycles", Unit: "count", Better: lower},
	{Name: "process.gc_pause_ms_total", Unit: "ms", Better: lower},

	{Name: "trace.overhead_ratio", Unit: "ratio", Better: lower},
	{Name: "trace.budget_residual_ratio", Unit: "ratio", Better: lower},
}

// withUnits attaches units to computed values and checks that exactly the
// declared names were produced.
func withUnits(defs []MetricDef, vals map[string]float64) (map[string]Metric, error) {
	out := make(map[string]Metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is declared but was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s measured as %v", d.Name, v)
		}
		out[d.Name] = Metric{Value: v, Unit: d.Unit}
	}
	if len(vals) != len(defs) {
		for name := range vals {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s was measured but is not declared", name)
			}
		}
	}
	return out, nil
}

// div is a/b, or 0 when the denominator is (a layer that did no work).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// us converts nanoseconds to microseconds.
func us(ns float64) float64 { return ns / 1e3 }

// sortedQuantileUs sorts ns samples in place and returns a quantile in µs.
func sortedQuantileUs(ns []int64, q float64) float64 {
	slices.Sort(ns)
	return us(quantile(ns, q))
}

// Median of a small sample; sorts a copy.
func Median(vals []float64) float64 {
	s := slices.Clone(vals)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// endToEndValues computes the end-to-end metrics of one measured window.
func endToEndValues(m measured, setupSeconds float64) map[string]float64 {
	pages := float64(m.w.pages)
	return map[string]float64{
		"setup_s":           setupSeconds,
		"pages_per_s":       div(pages, m.w.wall.Seconds()),
		"read_page_p50_us":  us(quantile(m.w.read, 0.50)),
		"read_page_p95_us":  us(quantile(m.w.read, 0.95)),
		"write_page_p50_us": us(quantile(m.w.write, 0.50)),
		"cpu_us_per_page":   div(us(float64(m.d["cpu.ns"])), pages),
		"allocs_per_page":   div(float64(m.d["mem.mallocs"]), pages),
		"db_stmts_per_page": div(float64(m.d["conn.queries"]+m.d["conn.execs"]), pages),
		"live_heap_mb":      float64(m.heapAlloc) / (1 << 20),
	}
}

// perLayerValues computes the per-layer metrics of one traced pass: counts
// from the window's counter deltas, times from the span budget, and what
// lies below a seam from the probes.
func perLayerValues(st *stack, m measured, b budget, p probes, rep auditReport) map[string]float64 {
	d := func(k string) float64 { return float64(m.d[k]) }
	pages := float64(m.w.pages)
	tracedPages := float64(b.Pages)
	writeStmts := d("conn.execs")
	ring := st.ring != nil

	v := map[string]float64{
		"page.read_p99_us":     us(quantile(m.w.read, 0.99)),
		"page.read_p999_us":    us(quantile(m.w.read, 0.999)),
		"page.write_p95_us":    us(quantile(m.w.write, 0.95)),
		"page.write_p99_us":    us(quantile(m.w.write, 0.99)),
		"page.count_login":     float64(m.w.counts[social.PageLogin]),
		"page.count_logout":    float64(m.w.counts[social.PageLogout]),
		"page.count_lookupbm":  float64(m.w.counts[social.PageLookupBM]),
		"page.count_lookupfbm": float64(m.w.counts[social.PageLookupFBM]),
		"page.count_createbm":  float64(m.w.counts[social.PageCreateBM]),
		"page.count_acceptfr":  float64(m.w.counts[social.PageAcceptFR]),

		"orm.self_us_per_page": div(us(float64(b.SelfNs[layerPage])), tracedPages),
		"orm.queries_per_page": div(d("orm.offered"), pages),

		"core.read_self_us_per_page":           div(us(float64(b.SelfNs[layerCore])), tracedPages),
		"core.hit_ratio":                       div(d("genie.hits"), d("genie.hits")+d("genie.misses")),
		"core.db_loads_per_page":               div(d("genie.misses"), pages),
		"core.trigger_ops_per_write_stmt":      div(d("genie.trigger_updates")+d("genie.trigger_deletes")+d("genie.trigger_skips"), writeStmts),
		"core.trigger_cache_us_per_write_stmt": div(us(float64(b.TriggerCacheNs)), float64(len(b.DBExec))),
		"core.cas_retries":                     d("genie.cas_retries"),
		"core.recomputes":                      d("genie.recomputes"),
		"core.populate_refused":                d("genie.populate_refused"),

		"invbus.enqueued":                d("bus.enqueued"),
		"invbus.coalesced_ratio":         div(d("bus.coalesced"), d("bus.enqueued")),
		"invbus.ops_per_flush":           div(d("bus.applied")+d("bus.coalesced"), d("bus.flushes")),
		"invbus.max_lag_ms":              float64(st.genie.InvStats().MaxLag.Microseconds()) / 1e3,
		"invbus.queue_full_stalls":       d("bus.queue_full_stalls"),
		"invbus.stall_ms":                d("bus.stall_ns") / 1e6,
		"invbus.drain_ms":                float64(m.drain.Microseconds()) / 1e3,
		"invbus.apply_us_per_write_stmt": div(us(float64(b.BackgroundNs)), float64(len(b.DBExec))),

		"cluster.self_us_per_page":        0,
		"cluster.self_us_per_op":          0,
		"cluster.node_ops_per_logical_op": div(float64(b.NodeOps), float64(b.CacheOps)),
		"cluster.imbalance":               imbalance(b.PerNode),
		"cluster.failover_reads":          d("ring.failover_reads"),
		"cluster.read_repairs":            d("ring.read_repairs"),

		"cacheproto.self_us_per_page":    div(us(float64(b.SelfNs[layerNode])), tracedPages),
		"cacheproto.roundtrips_per_page": div(d("pool.checkouts"), pages),
		"cacheproto.get_rtt_p50_us":      sortedQuantileUs(b.NodeGet, 0.50),
		"cacheproto.get_rtt_p99_us":      sortedQuantileUs(b.NodeGet, 0.99),
		"cacheproto.cas_rtt_p50_us":      sortedQuantileUs(b.NodeCas, 0.50),
		"cacheproto.batch_rtt_p50_us":    sortedQuantileUs(b.NodeBatch, 0.50),
		"cacheproto.ops_per_batch":       0,
		"cacheproto.wire_overhead_us":    p.wireOverheadUs,
		"cacheproto.dials":               d("pool.dials"),
		"cacheproto.pool_waits":          d("pool.waits"),
		"cacheproto.failfast":            d("pool.failfast"),
		"cacheproto.l1_hit_ratio":        div(d("l1.hits"), d("l1.hits")+d("l1.misses")),

		"kvcache.self_us_per_page":   0,
		"kvcache.hit_ratio":          div(d("store.hits"), d("store.hits")+d("store.misses")),
		"kvcache.evictions_per_page": div(d("store.evictions"), pages),
		"kvcache.cas_conflicts":      d("store.cas_conflicts"),
		"kvcache.get_ns":             p.storeGetNs,
		"kvcache.set_ns":             p.storeSetNs,

		"sqlparse.parse_us_per_stmt": p.parseUsPerStmt,
		"sqlparse.distinct_stmts":    float64(p.distinctStmts),
		"sqlparse.share_of_db_time":  div(p.parseUsPerStmt*float64(len(b.DBQuery)+len(b.DBExec)), us(float64(b.DBNs))),

		"sqldb.query_p50_us":                  sortedQuantileUs(b.DBQuery, 0.50),
		"sqldb.query_p99_us":                  sortedQuantileUs(b.DBQuery, 0.99),
		"sqldb.exec_p50_us":                   sortedQuantileUs(b.DBExec, 0.50),
		"sqldb.exec_p99_us":                   sortedQuantileUs(b.DBExec, 0.99),
		"sqldb.self_us_per_page":              div(us(float64(b.SelfNs[layerDB])), tracedPages),
		"sqldb.triggers_fired_per_write_stmt": div(d("db.triggers_fired"), writeStmts),
		"sqldb.lock_timeout_retries":          float64(m.w.retries),
		"sqldb.txns_aborted":                  d("db.txns_aborted"),
		"storage.bufferpool_hit_ratio":        div(d("bufferpool.hits"), d("bufferpool.hits")+d("bufferpool.misses")),
		"storage.page_reads_per_page":         div(d("bufferpool.misses"), pages),
		"wal.fsyncs_per_commit":               div(d("wal.fsyncs"), d("wal.commits")),
		"wal.bytes_per_commit":                div(d("wal.bytes"), d("wal.commits")),
		"wal.fsync_p50_us":                    us(float64(m.fsync.Quantile(0.5))),
		"wal.recovery_ms":                     float64(rep.Recovery.DurationNanos) / 1e6,
		"wal.replayed_txns":                   float64(rep.Recovery.ReplayedTxns),
		"process.gc_cycles":                   d("mem.gc_cycles"),
		"process.gc_pause_ms_total":           d("mem.gc_pause_ns") / 1e6,
		"trace.overhead_ratio":                div(div(float64(m.w.tracedNs), float64(m.w.tracedPages)), div(float64(m.w.plainNs), float64(m.w.plainPages))),
		"trace.budget_residual_ratio":         div(math.Abs(float64(sum(b.SelfNs[:])-b.PageNs)), float64(b.PageNs)),
	}
	// The logical cache is the ring where there is one and the in-process
	// store otherwise; its spans belong to that layer.
	logicalSelf := div(us(float64(b.SelfNs[layerCache])), tracedPages)
	if ring {
		v["cluster.self_us_per_page"] = logicalSelf
		v["cluster.self_us_per_op"] = div(us(float64(b.SelfNs[layerCache])), float64(b.Spans[layerCache]))
		v["cacheproto.ops_per_batch"] = div(float64(b.BatchOps), float64(b.Batches))
	} else {
		v["kvcache.self_us_per_page"] = logicalSelf
	}
	var items, bytesUsed int64
	for _, s := range st.stores {
		x := s.Stats()
		items += x.Items
		bytesUsed += x.BytesUsed
	}
	v["kvcache.items"] = float64(items)
	v["kvcache.bytes_used_mb"] = float64(bytesUsed) / (1 << 20)
	v["kvcache.bytes_per_item"] = div(float64(bytesUsed), float64(items))
	return v
}

func sum(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}

// imbalance is max/mean of per-node op counts (0 without a ring).
func imbalance(perNode []int64) float64 {
	if len(perNode) == 0 {
		return 0
	}
	return div(float64(slices.Max(perNode))*float64(len(perNode)), float64(sum(perNode)))
}
