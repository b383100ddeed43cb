package cacheproto

import (
	"errors"
	"net"
	"time"

	"cachegenie/internal/obs"
)

// opKind indexes the per-operation instrumentation arrays shared by the
// server and the client pool. Fixed arrays keyed by a small enum keep the
// hot path free of map lookups and allocations; the registry only ever sees
// the same histogram objects by pointer.
type opKind uint8

// Operation kinds. opOther catches commands without their own series
// (stats, keys, flush_all, quit, unknown).
const (
	opGet opKind = iota
	opGets
	opSet
	opAdd
	opCas
	opDelete
	opIncr
	opMop
	opOther
	opKindCount
)

var opNames = [opKindCount]string{
	"get", "gets", "set", "add", "cas", "delete", "incr", "mop", "other",
}

// classifyCmd maps a command's bytes to its opKind without allocating (the
// string conversions in a switch are compiler-recognized).
func classifyCmd(cmd []byte) opKind {
	switch string(cmd) {
	case "get":
		return opGet
	case "gets":
		return opGets
	case "set":
		return opSet
	case "add":
		return opAdd
	case "cas":
		return opCas
	case "delete":
		return opDelete
	case "incr":
		return opIncr
	case "mop":
		return opMop
	}
	return opOther
}

// Metric names. The server and pool series deliberately share the op label
// vocabulary so one dashboard query shape covers both sides of the wire.
const (
	// ServerOpLatencyName / PoolOpLatencyName are the per-op latency
	// histogram families; consumers (genieload's live ticker) match on them
	// to merge per-interval distributions across nodes.
	ServerOpLatencyName = "cachegenie_server_op_latency_seconds"
	PoolOpLatencyName   = "cachegenie_pool_op_latency_seconds"
	// PoolBreakerGaugeName is the per-node breaker-state gauge (0 closed,
	// 1 open, 2 half-open); obs.BreakerHealth keys /healthz off it.
	PoolBreakerGaugeName = "cachegenie_pool_breaker_state"
)

// ServerMetrics is a Server's always-on instrumentation: one latency
// histogram per op kind, plus error and connection accounting. It exists
// (and records) whether or not a registry is attached, so the hot path
// never branches on "is observability enabled" — recording is a handful of
// atomic ops, a measured 0 allocs/op property.
type ServerMetrics struct {
	OpNanos     [opKindCount]obs.Histogram
	Errors      obs.Counter // commands answered with an error line
	ConnsOpened obs.Counter
	ActiveConns obs.Gauge
}

// Register attaches the metrics to reg under a node label ("" omits it).
// Re-registering (a revived node's fresh server) rebinds the series to this
// instance.
func (m *ServerMetrics) Register(reg *obs.Registry, node string) {
	if m == nil || reg == nil {
		return
	}
	for k := opKind(0); k < opKindCount; k++ {
		reg.RegisterHistogram(ServerOpLatencyName, opLabels(node, opNames[k]),
			"server-side command latency by op type", &m.OpNanos[k])
	}
	reg.CounterFunc("cachegenie_server_errors_total", nodeLabels(node),
		"commands answered with a protocol error line", m.Errors.Load)
	reg.CounterFunc("cachegenie_server_conns_opened_total", nodeLabels(node),
		"connections accepted", m.ConnsOpened.Load)
	reg.GaugeFunc("cachegenie_server_active_conns", nodeLabels(node),
		"connections currently open", m.ActiveConns.Load)
}

// PoolMetrics is a Pool's always-on instrumentation: client-observed
// latency per op kind (includes checkout, dial, and breaker fail-fast
// time — the latency an application actually experiences), plus error and
// timeout counters.
type PoolMetrics struct {
	OpNanos  [opKindCount]obs.Histogram
	Errors   obs.Counter // operations that failed (dial, I/O, protocol)
	Timeouts obs.Counter // the subset of Errors that were deadline expiries
}

// done records one completed pool op: latency always (fail-fast included —
// that nanosecond-scale path is exactly what an open breaker buys, and it
// belongs in the client-observed distribution); error and timeout counters
// only when the op failed for a reason other than an open breaker, which is
// accounted separately as fail_fast.
func (p *Pool) done(k opKind, start time.Time, err error) {
	p.m.OpNanos[k].ObserveSince(start)
	if err == nil || err == errBreakerOpen {
		return
	}
	p.m.Errors.Inc()
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		p.m.Timeouts.Inc()
	}
}

// Register attaches the pool's metrics — histograms, error counters, and
// live views over the pool's existing breaker/connection state — to reg
// under a node label ("" omits it).
func (p *Pool) RegisterMetrics(reg *obs.Registry, node string) {
	if p == nil || reg == nil {
		return
	}
	m := p.m
	for k := opKind(0); k < opKindCount; k++ {
		reg.RegisterHistogram(PoolOpLatencyName, opLabels(node, opNames[k]),
			"client-observed cache op latency by op type", &m.OpNanos[k])
	}
	labels := nodeLabels(node)
	reg.CounterFunc("cachegenie_pool_op_errors_total", labels,
		"cache ops that failed (dial, I/O, or protocol error)", m.Errors.Load)
	reg.CounterFunc("cachegenie_pool_op_timeouts_total", labels,
		"cache ops that failed by exceeding the op deadline", m.Timeouts.Load)
	reg.GaugeFunc(PoolBreakerGaugeName, labels,
		"circuit breaker state: 0 closed, 1 open, 2 half-open",
		func() int64 { return int64(p.State()) })
	reg.GaugeFunc("cachegenie_pool_conns_in_use", labels,
		"connections checked out or dialing right now", func() int64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			return int64(p.total - len(p.idle))
		})
	reg.GaugeFunc("cachegenie_pool_conns_idle", labels,
		"connections parked for reuse", func() int64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			return int64(len(p.idle))
		})
	reg.CounterFunc("cachegenie_pool_dials_total", labels,
		"connections opened", p.dials.Load)
	reg.CounterFunc("cachegenie_pool_dial_fails_total", labels,
		"dial attempts that failed", p.dialFails.Load)
	reg.CounterFunc("cachegenie_pool_discards_total", labels,
		"connections dropped after an error", p.discards.Load)
	reg.CounterFunc("cachegenie_pool_fail_fast_total", labels,
		"ops short-circuited by an open breaker", p.failFast.Load)
	reg.CounterFunc("cachegenie_pool_breaker_trips_total", labels,
		"closed-to-open breaker transitions", p.trips.Load)
	if l := p.l1; l != nil {
		reg.CounterFunc("cachegenie_l1_hits_total", labels,
			"near-cache lookups served locally without a round trip", l.hits.Load)
		reg.CounterFunc("cachegenie_l1_misses_total", labels,
			"near-cache lookups that fell through to the server", l.misses.Load)
		reg.CounterFunc("cachegenie_l1_stores_total", labels,
			"near-cache entries written after a server hit", l.stores.Load)
		reg.CounterFunc("cachegenie_l1_evictions_total", labels,
			"near-cache entries dropped to stay within the size bound", l.evictions.Load)
		reg.CounterFunc("cachegenie_l1_invalidations_total", labels,
			"near-cache entries dropped by a write or delete on their key", l.invalidations.Load)
		reg.CounterFunc("cachegenie_l1_expired_total", labels,
			"near-cache lookups that found an entry past its lease", l.expired.Load)
		reg.GaugeFunc("cachegenie_l1_items", labels,
			"near-cache entries currently resident", func() int64 { return l.stats().Items })
	}
	reg.CounterFunc("cachegenie_pool_waits_total", labels,
		"checkouts that blocked on the connection cap", p.waits.Load)
	reg.CounterFunc("cachegenie_pool_probes_total", labels,
		"background probe attempts while the breaker was open", p.probes.Load)
}

func nodeLabels(node string) string {
	if node == "" {
		return ""
	}
	return `node="` + node + `"`
}

func opLabels(node, op string) string {
	if node == "" {
		return `op="` + op + `"`
	}
	return `node="` + node + `",op="` + op + `"`
}
