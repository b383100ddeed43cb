package bench

import (
	"fmt"
	"math/rand"
	"os"
	"sync/atomic"
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

// cacheNodes is the size of the loopback cache tier.
const cacheNodes = 2

// datasetSeed fixes the seeded social graph: --seed varies the page stream
// only. Popularity is by rank, so a per-run dataset would hand the few users
// who take most of the traffic different friend and bookmark counts each
// time, and that would swamp what the metrics are meant to resolve.
const datasetSeed = 20111212

// busBatchWindow is the async workload's invalidation-bus coalescing window.
const busBatchWindow = 2 * time.Millisecond

// stack is one assembled system under test plus the handles the harness
// measures it through.
type stack struct {
	w     Workload
	data  social.SeedConfig
	db    *sqldb.DB
	conn  *conn
	reg   *orm.Registry
	genie *core.Genie
	app   *social.App
	// stores are the server-side (or in-process) kvcache stores; pools and
	// servers are empty without a TCP tier; ring is nil without one.
	stores  []*kvcache.Store
	servers []*cacheproto.Server
	pools   []*cacheproto.Pool
	ring    *cluster.Manager
	// metrics is the bench-owned registry the durable database registers
	// its WAL instrumentation on.
	metrics *obs.Registry
	dataDir string
	// tr and icept are set on traced stacks only.
	tr    *tracer
	icept *tracedInterceptor
	gens  []*pageGen
}

// buildStack assembles, seeds and warms one workload's stack. tr, when
// non-nil, installs the decorators (left switched off). Everything it does
// counts as set-up.
func buildStack(o Options, tr *tracer) (_ *stack, err error) {
	w, seed := o.Workload, o.Seed
	st := &stack{w: w, data: o.Data, tr: tr, metrics: obs.NewRegistry()}
	if st.data.Users == 0 {
		st.data = dataset
	}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	cfg := sqldb.Config{}
	if w.Durable {
		if st.dataDir, err = os.MkdirTemp(o.TmpDir, "geniebench-db-"); err != nil {
			return nil, err
		}
		cfg.DataDir = st.dataDir
	}
	if st.db, err = sqldb.Open(cfg); err != nil {
		return nil, err
	}
	st.db.RegisterMetrics(st.metrics)
	st.conn = &conn{target: st.db, tr: tr, acked: map[string][]int64{}}
	st.reg = orm.NewRegistry(st.conn)
	if err = social.RegisterModels(st.reg); err != nil {
		return nil, err
	}
	if err = st.reg.CreateTables(); err != nil {
		return nil, err
	}

	logical, err := st.buildCacheTier()
	if err != nil {
		return nil, err
	}
	st.genie, err = core.New(core.Config{
		Registry: st.reg, DB: st.db, Cache: logical,
		AsyncInvalidation: w.Async, BatchWindow: busBatchWindow,
	})
	if err != nil {
		return nil, err
	}
	if tr != nil {
		st.icept = &tracedInterceptor{inner: st.genie, tr: tr}
		st.reg.SetInterceptor(st.icept)
	}
	if st.app, err = social.NewApp(st.reg, st.genie, w.Strategy); err != nil {
		return nil, err
	}
	// Distinct, strictly increasing timestamps: wall-clock ties between two
	// clients would make top-K order ambiguous and the audit flaky.
	var tick atomic.Int64
	base := time.Date(2012, 1, 1, 0, 0, 0, 0, time.UTC)
	st.app.SetClock(func() time.Time { return base.Add(time.Duration(tick.Add(1)) * time.Millisecond) })

	// The cache is empty while seeding, so every trigger would be a round
	// trip that finds nothing; skipping them changes no state.
	st.db.SetTriggersEnabled(false)
	err = st.conn.seedInBatches(st.db, func() error {
		return st.app.Seed(st.data, rand.New(rand.NewSource(datasetSeed)))
	})
	st.db.SetTriggersEnabled(true)
	if err != nil {
		return nil, fmt.Errorf("seeding: %w", err)
	}
	st.conn.recordAcks = w.Durable // from here on: seeded rows are not the audit's concern

	users := newZipf(st.data.Users, w.ZipfS)
	for c := 0; c < Clients; c++ {
		st.gens = append(st.gens, newPageGen(w, users, seed, c))
	}
	warm := runWindow(st, pass{clients: Clients, sessions: w.WarmupSessions})
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d pages failed: %v", warm.failed, warm.pages, warm.firstErr)
	}
	st.genie.FlushInvalidations()
	return st, nil
}

// buildCacheTier creates the cache nodes and returns the logical cache the
// Genie talks to: a ring over pooled TCP clients, or one in-process store.
func (st *stack) buildCacheTier() (kvcache.Cache, error) {
	wrap := func(c kvcache.Cache, l layer, node int) kvcache.Cache {
		if st.tr == nil {
			return c
		}
		return &tracedCache{inner: c, tr: st.tr, layer: l, node: uint8(node), busWrites: st.w.Async}
	}
	if st.w.Replicas == 0 {
		store := kvcache.New(st.w.CacheBytes)
		st.stores = append(st.stores, store)
		return wrap(store, layerCache, 0), nil
	}
	var ids []string
	var nodes []kvcache.Cache
	for i := 0; i < cacheNodes; i++ {
		store := kvcache.New(0)
		srv := cacheproto.NewServer(store)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("cache node %d: %w", i, err)
		}
		pool := cacheproto.NewPoolWithConfig(cacheproto.PoolConfig{Addr: addr})
		st.stores = append(st.stores, store)
		st.servers = append(st.servers, srv)
		st.pools = append(st.pools, pool)
		ids = append(ids, fmt.Sprintf("node-%d", i))
		nodes = append(nodes, wrap(pool, layerNode, i))
	}
	ring, err := cluster.NewManager(ids, nodes, cluster.WithReplicas(st.w.Replicas))
	if err != nil {
		return nil, err
	}
	st.ring = ring
	return wrap(ring, layerCache, 0), nil
}

// close releases everything the stack owns goroutines, sockets or files
// for. The durable database is crashed rather than closed: nothing reads
// its directory again, so the clean-shutdown snapshot would be wasted work.
func (st *stack) close() {
	if st.genie != nil {
		st.genie.Close()
	}
	for _, p := range st.pools {
		_ = p.Close()
	}
	for _, s := range st.servers {
		_ = s.Close()
	}
	if st.db != nil {
		st.db.Crash()
	}
	if st.dataDir != "" {
		_ = os.RemoveAll(st.dataDir)
	}
}
