package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"cachegenie/internal/cacheproto"
	"cachegenie/internal/cluster"
	"cachegenie/internal/core"
	"cachegenie/internal/kvcache"
	"cachegenie/internal/obs"
	"cachegenie/internal/orm"
	"cachegenie/internal/social"
	"cachegenie/internal/sqldb"
)

// Mode selects the caching configuration under test (paper §5: NoCache,
// Invalidate, Update).
type Mode int

// Modes.
const (
	ModeNoCache Mode = iota
	ModeInvalidate
	ModeUpdate
)

var modeNames = map[Mode]string{
	ModeNoCache: "NoCache", ModeInvalidate: "Invalidate", ModeUpdate: "Update",
}

// String implements fmt.Stringer.
func (m Mode) String() string { return modeNames[m] }

// CacheTransport selects how the stack reaches its cache nodes.
type CacheTransport int

// Transports.
const (
	// TransportInProcess wires the cache nodes as in-process kvcache.Stores;
	// network cost, if any, comes from the injected latency model (Model).
	TransportInProcess CacheTransport = iota
	// TransportRemote runs one real cacheproto.Server per cache node on
	// loopback TCP (or connects to externally launched geniecache nodes via
	// CacheAddrs) and reaches them through connection-pooled cacheproto
	// clients, so every cache operation crosses a real mop/TCP round trip —
	// the paper's actual deployment shape. Call Stack.Close when done.
	TransportRemote
)

var transportNames = map[CacheTransport]string{
	TransportInProcess: "in-process", TransportRemote: "remote-tcp",
}

// String implements fmt.Stringer.
func (t CacheTransport) String() string { return transportNames[t] }

// ParseTransport maps a flag value ("inprocess", "remote") to a transport.
func ParseTransport(s string) (CacheTransport, error) {
	switch s {
	case "", "inprocess", "in-process", "local":
		return TransportInProcess, nil
	case "remote", "remote-tcp", "tcp":
		return TransportRemote, nil
	}
	return 0, fmt.Errorf("workload: unknown transport %q (want inprocess or remote)", s)
}

// StackConfig assembles one experimental system.
type StackConfig struct {
	Mode Mode
	// CacheBytes caps the cache (0 = unbounded). The paper's default is
	// 512 MB on a 10 GB database; scale accordingly.
	CacheBytes int64
	// CacheNodes > 1 spreads the cache over a consistent-hash ring of
	// cache nodes (each sized CacheBytes/CacheNodes).
	CacheNodes int
	// Replicas is the ring's replication factor R: every key lives on the
	// first R distinct nodes walking the ring, writes fan out to all of
	// them, and reads fail over (breaker-aware) down the replica list.
	// 0 or 1 = single-owner routing, the pre-Experiment-10 behaviour;
	// clamped to CacheNodes.
	Replicas int
	// Transport selects in-process stores (default) or real cacheproto
	// servers reached over TCP through pooled clients.
	Transport CacheTransport
	// CacheAddrs, with TransportRemote, connects to already-running
	// geniecache servers at these addresses instead of launching loopback
	// ones (CacheNodes and CacheBytes are then the servers' concern). The
	// stack flushes them during assembly so a previous run's entries cannot
	// leak into this one.
	CacheAddrs []string
	// ProbeInterval is the breaker's background probe cadence while open
	// (0 = cacheproto.DefaultProbeInterval).
	ProbeInterval time.Duration
	// LatencyScale enables the paper-calibrated injected latency model,
	// PaperScaled(LatencyScale) (0 disables; 1 = paper-absolute; the
	// experiments use ExpOptions.LatencyScale, default 50).
	LatencyScale int
	// BufferPoolPages sizes the DB buffer pool (0 = engine default). The
	// colocated-cache variant of Experiment 4 shrinks this.
	BufferPoolPages int
	// Seed configures the dataset; zero value uses social.DefaultSeed.
	Seed social.SeedConfig
	// RngSeed makes seeding deterministic.
	RngSeed int64
	// ReuseTriggerConnections enables the paper's proposed trigger
	// connection reuse optimization (ablation): the latency model charges no
	// CacheConnect.
	ReuseTriggerConnections bool
	// AsyncInvalidation routes trigger cache maintenance through the
	// asynchronous invalidation bus (internal/invbus) instead of flushing it
	// before each write statement returns; BatchWindow sets the bus's window
	// (0 = bus default).
	AsyncInvalidation bool
	BatchWindow       time.Duration
	// Obs, when non-nil, receives every subsystem's metrics registration:
	// per-node store/server/pool series, the cluster ring, the Genie and its
	// invalidation bus. Rebuilt components (a revived node's fresh server)
	// rebind their series in place.
	Obs *obs.Registry
}

// Stack is an assembled system under test.
type Stack struct {
	Config StackConfig
	DB     *sqldb.DB
	Reg    *orm.Registry
	Genie  *core.Genie // nil in NoCache mode
	App    *social.App
	// Stores are the raw cache nodes (for stats); Cache is the logical
	// cache the Genie uses (possibly latency-wrapped and/or a ring). With
	// TransportRemote the stores are the server-side ends of the loopback
	// nodes (empty when CacheAddrs points at external servers — CacheStats
	// then falls back to the wire-level stats command).
	Stores []*kvcache.Store
	Cache  kvcache.Cache
	// Ring is the live-membership consistent-hash ring (nil with a single
	// cache node). Node identities are server addresses with TransportRemote
	// and "node-<i>" in-process; Experiment 8 drives RemoveNode/AddNode on
	// it mid-run.
	Ring *cluster.Manager
	// Servers and Pools are populated by TransportRemote: the loopback
	// cacheproto servers (nil with CacheAddrs) and the pooled client per
	// node, in ring order.
	Servers []*cacheproto.Server
	Pools   []*cacheproto.Pool
	// Obs is the metrics registry every subsystem registered into (nil
	// unless StackConfig.Obs was set).
	Obs *obs.Registry
	// latency and dbCost charge the injected latency model (nil without
	// one); Cache is latency when it is set.
	latency *latencyCache
	dbCost  *dbCost
}

// NodeAddrs returns the remote nodes' addresses in ring order (empty for
// the in-process transport).
func (s *Stack) NodeAddrs() []string {
	addrs := make([]string, 0, len(s.Pools))
	for _, p := range s.Pools {
		addrs = append(addrs, p.Addr())
	}
	return addrs
}

// Close releases everything the stack owns goroutines or sockets for: the
// Genie's invalidation bus, the client pools, and the loopback cache
// servers. Safe for every transport and for repeated calls; in-process
// stacks only drain the bus.
func (s *Stack) Close() {
	if s.Genie != nil {
		s.Genie.Close()
	}
	for _, p := range s.Pools {
		_ = p.Close()
	}
	for _, srv := range s.Servers {
		_ = srv.Close()
	}
}

// BuildStack assembles and seeds a system under test.
func BuildStack(cfg StackConfig) (*Stack, error) {
	if cfg.CacheNodes <= 0 {
		cfg.CacheNodes = 1
	}
	if cfg.Seed.Users == 0 {
		cfg.Seed = social.DefaultSeed()
	}
	st := &Stack{Config: cfg}
	dbCfg := sqldb.Config{BufferPoolPages: cfg.BufferPoolPages, LockTimeout: 10 * time.Second}
	if cfg.LatencyScale > 0 {
		st.dbCost = newDBCost(PaperScaled(cfg.LatencyScale))
		dbCfg.Cost = st.dbCost.charge
	}
	db, err := sqldb.Open(dbCfg)
	if err != nil {
		return nil, err
	}
	reg := orm.NewRegistry(db)
	if err := social.RegisterModels(reg); err != nil {
		return nil, err
	}
	if err := reg.CreateTables(); err != nil {
		return nil, err
	}

	st.DB, st.Reg = db, reg
	perNode := cfg.CacheBytes
	if cfg.CacheNodes > 1 && perNode > 0 {
		perNode = cfg.CacheBytes / int64(cfg.CacheNodes)
	}
	newPool := func(addr string) *cacheproto.Pool {
		return cacheproto.NewPoolWithConfig(cacheproto.PoolConfig{Addr: addr, ProbeInterval: cfg.ProbeInterval})
	}
	newStore := func() *kvcache.Store {
		return kvcache.New(perNode)
	}
	var nodes []kvcache.Cache
	var nodeIDs []string
	switch {
	case cfg.Transport == TransportRemote && len(cfg.CacheAddrs) > 0:
		// Externally launched geniecache nodes (cmd/geniecache -nodes N).
		// Dial each once up front: an unreachable node used to surface as a
		// silent zero-hit run, not an error.
		if err := PreflightCacheAddrs(cfg.CacheAddrs, 0); err != nil {
			st.Close()
			return nil, fmt.Errorf("workload: cache tier preflight: %w", err)
		}
		for _, addr := range cfg.CacheAddrs {
			pool := newPool(addr)
			st.Pools = append(st.Pools, pool)
			nodes = append(nodes, pool)
			nodeIDs = append(nodeIDs, addr)
		}
	case cfg.Transport == TransportRemote:
		// Self-contained remote tier: one real cacheproto server per node on
		// loopback TCP, each reached through a pooled client.
		for i := 0; i < cfg.CacheNodes; i++ {
			store := newStore()
			srv := cacheproto.NewServer(store)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				st.Close()
				return nil, fmt.Errorf("workload: cache node %d: %w", i, err)
			}
			pool := newPool(addr)
			st.Stores = append(st.Stores, store)
			st.Servers = append(st.Servers, srv)
			st.Pools = append(st.Pools, pool)
			nodes = append(nodes, pool)
			nodeIDs = append(nodeIDs, addr)
		}
	default:
		for i := 0; i < cfg.CacheNodes; i++ {
			store := newStore()
			st.Stores = append(st.Stores, store)
			nodes = append(nodes, store)
			nodeIDs = append(nodeIDs, fmt.Sprintf("node-%d", i))
		}
	}
	var logical kvcache.Cache
	if len(nodes) == 1 {
		logical = nodes[0]
	} else {
		ring, err := cluster.NewManager(nodeIDs, nodes, cluster.WithReplicas(cfg.Replicas))
		if err != nil {
			st.Close()
			return nil, err
		}
		st.Ring = ring
		logical = ring
	}
	if len(cfg.CacheAddrs) > 0 {
		// External servers may hold a previous run's entries.
		logical.FlushAll()
	}
	if st.dbCost != nil {
		st.latency = newLatencyCache(logical, st.dbCost.m, cfg.ReuseTriggerConnections)
		logical = st.latency
	}
	st.Cache = logical

	strategy := core.UpdateInPlace
	if cfg.Mode == ModeInvalidate {
		strategy = core.Invalidate
	}
	if cfg.Mode != ModeNoCache {
		g, err := core.New(core.Config{
			Registry:          reg,
			DB:                db,
			Cache:             logical,
			AsyncInvalidation: cfg.AsyncInvalidation,
			BatchWindow:       cfg.BatchWindow,
		})
		if err != nil {
			st.Close()
			return nil, err
		}
		st.Genie = g
	}
	app, err := social.NewApp(reg, st.Genie, strategy)
	if err != nil {
		st.Close()
		return nil, err
	}
	st.App = app
	if err := app.Seed(cfg.Seed, rand.New(rand.NewSource(cfg.RngSeed+1))); err != nil {
		st.Close()
		return nil, fmt.Errorf("workload: seeding: %w", err)
	}
	st.Obs = cfg.Obs
	st.registerMetrics()
	return st, nil
}

// defaultPreflightTimeout bounds each preflight dial when the caller passes
// no timeout, as BuildStack does.
const defaultPreflightTimeout = 5 * time.Second

// PreflightCacheAddrs dials every cache node once and reports every
// unreachable one by address. BuildStack, genieload and geniedb call it
// before using an external -cache-addrs list, so a bad list fails loudly up
// front instead of surfacing as a silent zero-hit run.
func PreflightCacheAddrs(addrs []string, timeout time.Duration) error {
	if len(addrs) == 0 {
		return errors.New("workload: no cache addresses given")
	}
	if timeout <= 0 {
		timeout = defaultPreflightTimeout
	}
	var errs []error
	for _, addr := range addrs {
		c, err := cacheproto.DialTimeout(addr, timeout)
		if err != nil {
			errs = append(errs, fmt.Errorf("cache node %s unreachable: %w", addr, err))
			continue
		}
		_ = c.Close()
	}
	return errors.Join(errs...)
}

// registerMetrics attaches every subsystem to the stack's registry (no-op
// without one): stores, loopback servers, and client pools under per-node
// labels, plus the cluster ring and the Genie/invalidation-bus counters.
func (s *Stack) registerMetrics() {
	if s.Obs == nil {
		return
	}
	nodeID := func(i int) string {
		if i < len(s.Pools) {
			return s.Pools[i].Addr()
		}
		return fmt.Sprintf("node-%d", i)
	}
	for i, store := range s.Stores {
		store.RegisterMetrics(s.Obs, nodeID(i))
	}
	for i, srv := range s.Servers {
		if srv != nil {
			srv.Metrics().Register(s.Obs, nodeID(i))
		}
	}
	for _, p := range s.Pools {
		p.RegisterMetrics(s.Obs, p.Addr())
	}
	if s.Ring != nil {
		s.Ring.RegisterMetrics(s.Obs, "")
	}
	if s.Genie != nil {
		s.Genie.RegisterMetrics(s.Obs, "")
	}
}

// KillNode abruptly stops loopback cache node i: its listener closes and
// every open connection is torn down, exactly what a crashed geniecache
// process looks like from the client side. The node's pool stays in place —
// routing still targets the dead node until the breaker trips or the ring
// drops it. Only valid for self-launched TransportRemote stacks.
func (s *Stack) KillNode(i int) error {
	if i < 0 || i >= len(s.Servers) || s.Servers[i] == nil {
		return fmt.Errorf("workload: no loopback server for node %d", i)
	}
	return s.Servers[i].Close()
}

// ReviveNode restarts a killed loopback node on its original address. The
// node comes back cold (a restarted process has lost its memory), so hit
// rate on its key share rebuilds from scratch — the honest recovery shape.
func (s *Stack) ReviveNode(i int) error {
	if i < 0 || i >= len(s.Servers) || s.Servers[i] == nil {
		return fmt.Errorf("workload: no loopback server for node %d", i)
	}
	srv, err := cacheproto.RestartServer(s.Stores[i], s.Pools[i].Addr())
	if err != nil {
		return fmt.Errorf("workload: revive node %d: %w", i, err)
	}
	s.Servers[i] = srv
	if s.Obs != nil {
		// The fresh server takes over the dead one's series (upsert rebind),
		// the way a restarted process resumes its scrape target.
		srv.Metrics().Register(s.Obs, s.Pools[i].Addr())
	}
	return nil
}

// CacheTierStats is the aggregate cache-node statistics plus tier health.
type CacheTierStats struct {
	kvcache.Stats
	// UnreachableNodes counts nodes whose wire-level stats probe failed —
	// before this existed a dead node silently dropped out of the aggregate,
	// quietly undercounting hits, misses, and capacity.
	UnreachableNodes int
	// PoolStats is each remote node's client-pool health snapshot in ring
	// order (empty for the in-process transport): breaker state, trips,
	// fail-fast count — the *why* behind a node being skipped in a failure
	// drill's timeline.
	PoolStats []cacheproto.PoolStats
	// NodeWireStats is each remote node's full wire-level stats map in ring
	// order (nil entries for unreachable nodes; empty for the in-process
	// transport). The extended stats command carries detail the aggregate
	// kvcache.Stats projection cannot hold — per-op latency summaries
	// (op_get_p99_ns, ...), server-side error counts and connection gauges.
	NodeWireStats []map[string]int64
}

// HealthLine renders the per-node breaker picture as one compact log line
// fragment ("node1=open(trips=1,ff=1234)"), listing only nodes that have
// ever tripped or are currently not closed — a healthy tier renders as
// "all-closed". The exp10 timelines print it so a phase's hit-rate
// number carries its explanation.
func (t CacheTierStats) HealthLine() string {
	out := ""
	for i, ps := range t.PoolStats {
		if ps.State == cacheproto.BreakerClosed && ps.Trips == 0 {
			continue
		}
		if out != "" {
			out += " "
		}
		out += fmt.Sprintf("node%d=%s(trips=%d,ff=%d)", i, ps.State, ps.Trips, ps.FailFast)
	}
	if out == "" {
		return "all-closed"
	}
	return out
}

// CacheStats aggregates counters across the stack's cache nodes. With
// external remote nodes (no in-process stores) it falls back to the
// wire-level stats command, which carries the subset of counters the
// protocol exports; a node whose stats call fails contributes nothing here —
// use CacheTierStats to see how many nodes that was. Loopback-remote stacks
// aggregate the in-process store ends directly, with no wire traffic.
func (s *Stack) CacheStats() kvcache.Stats {
	var agg kvcache.Stats
	if len(s.Stores) == 0 && len(s.Pools) > 0 {
		agg, _, _ = s.wireStats()
		return agg
	}
	for _, st := range s.Stores {
		x := st.Stats()
		agg.Hits += x.Hits
		agg.Misses += x.Misses
		agg.Sets += x.Sets
		agg.Deletes += x.Deletes
		agg.Evictions += x.Evictions
		agg.Expired += x.Expired
		agg.CasConflicts += x.CasConflicts
		agg.Items += x.Items
		agg.BytesUsed += x.BytesUsed
		agg.BytesLimit += x.BytesLimit
	}
	return agg
}

// CacheTierStats is CacheStats plus reachability: with any remote transport
// every node is probed over the wire (one stats round trip each — only this
// method pays that cost) and failures are counted instead of being silently
// skipped. Counter aggregation still prefers the in-process store ends when
// available (loopback nodes), which keep counting even while their listener
// is down.
func (s *Stack) CacheTierStats() CacheTierStats {
	var agg CacheTierStats
	if len(s.Stores) == 0 && len(s.Pools) > 0 {
		agg.Stats, agg.NodeWireStats, agg.UnreachableNodes = s.wireStats()
		s.aggregatePools(&agg)
		return agg
	}
	agg.Stats = s.CacheStats()
	if len(s.Pools) > 0 {
		// The reachability probe fetches each node's full stats reply anyway;
		// keep the per-node maps instead of discarding them.
		_, agg.NodeWireStats, agg.UnreachableNodes = s.wireStats()
	}
	s.aggregatePools(&agg)
	return agg
}

// aggregatePools folds each remote node's PoolStats into the tier view.
func (s *Stack) aggregatePools(agg *CacheTierStats) {
	for _, p := range s.Pools {
		agg.PoolStats = append(agg.PoolStats, p.Stats())
	}
}

// wireStats aggregates the stats command across the pools, keeping each
// node's full stats map (nil for nodes whose call failed) and counting the
// failures.
func (s *Stack) wireStats() (agg kvcache.Stats, per []map[string]int64, unreachable int) {
	per = make([]map[string]int64, len(s.Pools))
	for i, p := range s.Pools {
		st, err := p.ServerStats()
		if err != nil {
			unreachable++
			continue
		}
		per[i] = st
		agg.Hits += st["get_hits"]
		agg.Misses += st["get_misses"]
		agg.Sets += st["cmd_set"]
		agg.Deletes += st["cmd_delete"]
		agg.Evictions += st["evictions"]
		agg.Expired += st["expired"]
		agg.CasConflicts += st["cas_conflicts"]
		agg.Items += st["curr_items"]
		agg.BytesUsed += st["bytes"]
		agg.BytesLimit += st["limit_maxbytes"]
	}
	return agg, per, unreachable
}
