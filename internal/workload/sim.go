package workload

import (
	"sync/atomic"
	"time"

	"cachegenie/internal/kvcache"
	"cachegenie/internal/sqldb"
)

// Simulated time. The paper was measured on three machines joined by
// gigabit ethernet; its performance effects — memcached round trips of
// ~0.2 ms, a trigger's cache connection doubling INSERT latency, a database
// that is CPU-bound under NoCache and disk-bound under the cached
// configurations — are reproduced here by sleeping at the two seams the stack
// already has: a cache decorator in front of the logical cache (latencyCache)
// and the database's cost hook (sqldb.Config.Cost, implemented by dbCost).
// Nothing below those seams knows the model exists.

// dbCPUWidth is how many statements consume DBCPU at once: the database
// box's cores.
const dbCPUWidth = 4

// diskWidth is how many disk accesses the device serves at once.
const diskWidth = 2

// Model holds the injected delays. All fields may be zero; a zero field
// charges nothing.
type Model struct {
	// CacheRoundTrip is charged for every cache operation and every batch
	// sent to the cache, by the application and by triggers alike. The paper
	// measures ~0.2 ms per memcached operation.
	CacheRoundTrip time.Duration

	// CacheConnect is charged when trigger maintenance opens a fresh
	// connection to the cache. The paper measures that opening a remote
	// memcached connection from a trigger doubles INSERT latency
	// (6.5 ms -> 11.9 ms).
	CacheConnect time.Duration

	// DBRoundTrip is charged once per SQL statement sent to the database
	// (client <-> DB server network hop).
	DBRoundTrip time.Duration

	// DiskAccess is charged per page read or write that reaches the storage
	// device (a buffer-pool miss or write-back).
	DiskAccess time.Duration

	// DBCPU is charged per SQL statement, modelling query parse/plan/execute
	// CPU beyond what our executor spends natively. It scales the NoCache
	// configuration's CPU bottleneck to paper-like ratios.
	DBCPU time.Duration
}

// PaperScaled returns the paper's measured latencies divided by scale
// (scale=1 reproduces absolute paper numbers; the experiments default to 50
// so sweeps finish quickly while preserving every ratio).
func PaperScaled(scale int) Model {
	if scale < 1 {
		scale = 1
	}
	s := time.Duration(scale)
	return Model{
		CacheRoundTrip: 200 * time.Microsecond / s,
		CacheConnect:   5400 * time.Microsecond / s, // 11.9ms - 6.5ms per paper §5.3
		DBRoundTrip:    150 * time.Microsecond / s,
		DiskAccess:     5 * time.Millisecond / s,
		// The paper's microbenchmark puts a simple B+tree lookup at 10-25x
		// a 0.2ms memcached operation (§5.3), i.e. 2-5ms of query
		// computation; 3ms sits in that band.
		DBCPU: 3 * time.Millisecond / s,
	}
}

// latencyCache decorates a cache with the model's network costs: one
// CacheRoundTrip per operation and per batch, and one CacheConnect per batch
// of trigger maintenance unless connections are reused (the paper's proposed
// optimisation, §5.3). It counts what it charged.
type latencyCache struct {
	inner   kvcache.Cache
	rtt     time.Duration
	connect time.Duration // 0 when trigger connections are reused

	roundTrips atomic.Int64
	connects   atomic.Int64
}

func newLatencyCache(inner kvcache.Cache, m Model, reuseTriggerConns bool) *latencyCache {
	l := &latencyCache{inner: inner, rtt: m.CacheRoundTrip, connect: m.CacheConnect}
	if reuseTriggerConns {
		l.connect = 0
	}
	return l
}

var _ kvcache.Cache = (*latencyCache)(nil)

func (l *latencyCache) charge() {
	l.roundTrips.Add(1)
	time.Sleep(l.rtt)
}

// ApplyBatch charges one round trip for the whole batch — the amortisation
// batching exists for — plus a trigger connection when the batch is trigger
// maintenance.
func (l *latencyCache) ApplyBatch(ops []kvcache.BatchOp) []kvcache.BatchResult {
	if l.connect > 0 && triggerBatch(ops) {
		l.connects.Add(1)
		time.Sleep(l.connect)
	}
	l.charge()
	return l.inner.ApplyBatch(ops)
}

// triggerBatch reports whether ops opens a trigger's conversation with the
// cache. Only trigger maintenance batches edit, incr or delete ops: a
// statement's write-set flush sends one op per key of those kinds (or an add
// for a lone populate), and the invalidation bus flushes runs of them. Read
// waves batch gets, and a top-K recompute's set follows its flush, so neither
// pays a connection. So a synchronous statement pays one connection per
// flush; an async bus flush pays one per window it sends.
func triggerBatch(ops []kvcache.BatchOp) bool {
	for i := range ops {
		switch ops[i].Kind {
		case kvcache.BatchEdit, kvcache.BatchIncr, kvcache.BatchDelete:
			return true
		}
	}
	return false
}

// Get implements kvcache.Cache.
func (l *latencyCache) Get(key string) ([]byte, bool) {
	l.charge()
	return l.inner.Get(key)
}

// Gets implements kvcache.Cache.
func (l *latencyCache) Gets(key string) ([]byte, uint64, bool) {
	l.charge()
	return l.inner.Gets(key)
}

// Set implements kvcache.Cache.
func (l *latencyCache) Set(key string, value []byte, ttl time.Duration) {
	l.charge()
	l.inner.Set(key, value, ttl)
}

// Add implements kvcache.Cache.
func (l *latencyCache) Add(key string, value []byte, ttl time.Duration) bool {
	l.charge()
	return l.inner.Add(key, value, ttl)
}

// Cas implements kvcache.Cache.
func (l *latencyCache) Cas(key string, value []byte, ttl time.Duration, cas uint64) kvcache.CasResult {
	l.charge()
	return l.inner.Cas(key, value, ttl, cas)
}

// Delete implements kvcache.Cache.
func (l *latencyCache) Delete(key string) bool {
	l.charge()
	return l.inner.Delete(key)
}

// Incr implements kvcache.Cache.
func (l *latencyCache) Incr(key string, delta int64) (int64, bool) {
	l.charge()
	return l.inner.Incr(key, delta)
}

// FlushAll implements kvcache.Cache.
func (l *latencyCache) FlushAll() {
	l.charge()
	l.inner.FlushAll()
}

// dbCost is the database's cost hook (sqldb.Config.Cost). A statement pays
// the client↔database round trip, then its CPU on one of dbCPUWidth cores —
// concurrent statements contend for them, which is what makes NoCache
// CPU-bound under load (Experiment 1). A disk access waits for one of
// diskWidth device slots, which is what makes a shrunken buffer pool cost
// throughput (the colocated variant of Experiment 4). cpu.held counts the
// statements charged, disk.held the disk accesses.
type dbCost struct {
	m         Model
	cpu, disk gate
}

func newDBCost(m Model) *dbCost {
	c := &dbCost{m: m}
	c.cpu.slots = make(chan struct{}, dbCPUWidth)
	c.disk.slots = make(chan struct{}, diskWidth)
	return c
}

// charge implements sqldb.Config.Cost.
func (c *dbCost) charge(k sqldb.Cost) {
	switch k {
	case sqldb.CostStatement:
		time.Sleep(c.m.DBRoundTrip)
		c.cpu.hold(c.m.DBCPU)
	case sqldb.CostDiskAccess:
		c.disk.hold(c.m.DiskAccess)
	}
}

// gate is a resource that serves at most cap(slots) charges at once. It
// counts the charges and the most it ever served together.
type gate struct {
	slots            chan struct{}
	held, busy, peak atomic.Int64
}

// hold occupies one slot for d, queueing while every slot is taken.
func (g *gate) hold(d time.Duration) {
	g.held.Add(1)
	if d <= 0 {
		return
	}
	g.slots <- struct{}{}
	n := g.busy.Add(1)
	for p := g.peak.Load(); n > p && !g.peak.CompareAndSwap(p, n); p = g.peak.Load() {
	}
	time.Sleep(d)
	g.busy.Add(-1)
	<-g.slots
}
