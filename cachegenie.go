// Package cachegenie is a Go reproduction of CacheGenie (Gupta, Zeldovich,
// Madden — "A Trigger-Based Middleware Cache for ORMs", Middleware 2011): a
// caching middleware that gives ORM applications declarative caching
// abstractions and keeps the cache consistent automatically with database
// triggers.
//
// The package re-exports the user-facing API of the internal packages:
//
//   - the database engine (sqldb): a relational engine with a SQL subset,
//     B+tree indexes, a buffer pool over an in-memory block device,
//     transactions, and row-level AFTER triggers — the stack's PostgreSQL;
//   - the cache (kvcache): a memcached-semantics LRU store with CAS, plus a
//     TCP text protocol with a connection-pooled client (cacheproto) and a
//     consistent-hash cluster client with parallel batch fan-out (cluster);
//   - the ORM (orm): Django-flavoured models and QuerySets with the read
//     interception hook;
//   - the middleware itself (core): cache classes — FeatureQuery,
//     LinkQuery, CountQuery, TopKQuery — declared via Cacheable, with
//     invalidate / update-in-place / TTL consistency strategies;
//   - the GlobeCBC template-invalidation baseline (templateinv);
//   - the asynchronous invalidation bus (invbus), which takes cache
//     maintenance off the write path;
//   - the evaluation workload (social, workload) reproducing the paper's
//     Pinax experiments.
//
// # Invalidation bus
//
// The paper measures (§5.3) that the dominant trigger cost is the
// trigger→cache hop: opening a connection from a trigger roughly doubles
// INSERT latency, and each cache operation adds a synchronous round trip to
// the write path. Setting Config.AsyncInvalidation routes all trigger
// maintenance through internal/invbus instead: a write statement publishes
// the ops its triggers recorded and returns, and the bus's one worker applies
// every op published within a window with the same write-set flush a
// synchronous statement runs — per key, the ops travel as one (deletes of a
// key as one delete, increments as one sum, list edits as one edit the cache
// node replays), and the window reaches each cache node in one batch.
// Read-miss repopulation rides the same queue as a populate op, so it stays in
// order with pending trigger ops. Config.BatchWindow sets the window.
//
// The trade is bounded staleness: in async mode the cache may lag the
// database by roughly the batch window plus queueing delay, and top-K
// reserve exhaustion drops the key for re-read instead of recomputing
// inside the trigger's transaction. Prefer the default synchronous
// write-set flush (the paper's configuration) when readers require
// read-your-triggered-writes without an explicit Genie.FlushInvalidations.
//
// Quick start
//
//	db, _ := cachegenie.OpenDB(cachegenie.DBConfig{})
//	reg := cachegenie.NewRegistry(db)
//	reg.MustRegister(&cachegenie.ModelDef{
//		Name: "Profile", Table: "profiles",
//		Fields: []cachegenie.FieldDef{
//			{Name: "user_id", Type: cachegenie.TypeInt, NotNull: true},
//			{Name: "bio", Type: cachegenie.TypeText},
//		},
//		Indexes: [][]string{{"user_id"}},
//	})
//	_ = reg.CreateTables()
//
//	genie, _ := cachegenie.New(cachegenie.Config{
//		Registry: reg, DB: db, Cache: cachegenie.NewCache(64 << 20),
//	})
//	_, _ = genie.Cacheable(cachegenie.Spec{
//		Name: "user_profile", Class: cachegenie.FeatureQuery,
//		MainModel: "Profile", WhereFields: []string{"user_id"},
//	})
//
//	// Application code is unchanged: reads are served from the cache,
//	// writes go to the database and triggers keep the cache consistent.
//	profile, _ := reg.Objects("Profile").Filter("user_id", 42).Get()
//	_ = profile
package cachegenie

import (
	"cachegenie/internal/core"
	"cachegenie/internal/invbus"
	"cachegenie/internal/kvcache"
	"cachegenie/internal/orm"
	"cachegenie/internal/sqldb"
)

// Middleware API (internal/core).
type (
	// Genie is the CacheGenie middleware instance.
	Genie = core.Genie
	// Config wires a Genie into an application stack.
	Config = core.Config
	// Spec declares one cached object.
	Spec = core.Spec
	// Link configures a LinkQuery relationship chain.
	Link = core.Link
	// CachedObject is a declared cached object.
	CachedObject = core.CachedObject
	// Class identifies a cache class.
	Class = core.Class
	// Strategy is a cache-consistency strategy.
	Strategy = core.Strategy
)

// Cache classes (paper §3.1).
const (
	FeatureQuery = core.FeatureQuery
	LinkQuery    = core.LinkQuery
	CountQuery   = core.CountQuery
	TopKQuery    = core.TopKQuery
)

// Consistency strategies (paper §3.1).
const (
	UpdateInPlace = core.UpdateInPlace
	Invalidate    = core.Invalidate
	Expiry        = core.Expiry
)

// New creates a Genie and arms transparent interception on the registry.
func New(cfg Config) (*Genie, error) { return core.New(cfg) }

// ORM API (internal/orm).
type (
	// Registry holds models and dispatches reads through the interceptor.
	Registry = orm.Registry
	// ModelDef declares a model.
	ModelDef = orm.ModelDef
	// FieldDef declares one model field.
	FieldDef = orm.FieldDef
	// Fields is the write-side value bag for Insert/Update.
	Fields = orm.Fields
	// Object is one model instance: a read-only view of its query's row,
	// read through ID/Int/Str/Bool/Time/Get. Holding one keeps its result
	// list's decoded payload alive. It is no longer a map (field name ->
	// Value) as it was before the decode-in-place change; index it with Get.
	Object = orm.Object
	// QuerySet is the chainable query builder.
	QuerySet = orm.QuerySet
)

// NewRegistry creates an ORM registry over a database connection.
func NewRegistry(conn orm.Conn) *Registry { return orm.NewRegistry(conn) }

// Database engine API (internal/sqldb).
type (
	// DB is the relational database engine.
	DB = sqldb.DB
	// DBConfig configures the engine.
	DBConfig = sqldb.Config
	// Value is a typed SQL value.
	Value = sqldb.Value
	// Row is one table row.
	Row = sqldb.Row
	// Trigger is a row-level AFTER trigger.
	Trigger = sqldb.Trigger
)

// Column types.
const (
	TypeInt   = sqldb.TypeInt
	TypeFloat = sqldb.TypeFloat
	TypeText  = sqldb.TypeText
	TypeBool  = sqldb.TypeBool
	TypeTime  = sqldb.TypeTime
)

// OpenDB creates a database engine. With DBConfig.DataDir unset it is
// memory-only and the error is always nil; with DataDir set, Open recovers
// durable state (snapshot + WAL replay) first.
func OpenDB(cfg DBConfig) (*DB, error) { return sqldb.Open(cfg) }

// Cache API (internal/kvcache).
type (
	// CacheStore is the in-process memcached-semantics store.
	CacheStore = kvcache.Store
	// CacheInterface is the operation set CacheGenie needs from a cache.
	CacheInterface = kvcache.Cache
)

// NewCache creates an in-process cache with the given byte capacity
// (0 = unbounded).
func NewCache(capacityBytes int64) *CacheStore { return kvcache.New(capacityBytes) }

// InvBusStats counts invalidation bus activity (enqueued, applied,
// coalesced, flushes, max batch, max lag, queue-full stalls and stall time).
// The bus is armed through Config.AsyncInvalidation and inspected through
// Genie.InvStats.
type InvBusStats = invbus.Stats
