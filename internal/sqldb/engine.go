package sqldb

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cachegenie/internal/sqlparse"
	"cachegenie/internal/storage"
	"cachegenie/internal/wal"
)

// TriggerOp identifies the mutating operation a trigger fires on.
type TriggerOp int

// Trigger operations.
const (
	TrigInsert TriggerOp = iota + 1
	TrigUpdate
	TrigDelete
)

var trigOpNames = map[TriggerOp]string{
	TrigInsert: "INSERT", TrigUpdate: "UPDATE", TrigDelete: "DELETE",
}

// String implements fmt.Stringer.
func (op TriggerOp) String() string { return trigOpNames[op] }

// TriggerEvent carries the modified row(s) to a trigger function, mirroring
// the OLD/NEW row views PL/Python triggers receive in Postgres.
type TriggerEvent struct {
	Table  string
	Op     TriggerOp
	Schema *Schema
	Old    Row // set for UPDATE and DELETE
	New    Row // set for INSERT and UPDATE
}

// Queryer runs read queries. Triggers receive the enclosing transaction as a
// Queryer so re-entrant reads (e.g. a top-K recomputation) share its locks.
type Queryer interface {
	Query(sql string, args ...Value) (*ResultSet, error)
}

// TriggerFunc is the body of a trigger. An error aborts the statement that
// fired it, exactly like raising an exception inside a Postgres trigger.
type TriggerFunc func(q Queryer, ev TriggerEvent) error

// StatementHook is state a trigger keeps for the duration of one statement —
// typically external effects it wants to apply once for all the statement's
// rows instead of once per firing. EndStatement runs after the statement's
// last trigger, before the statement returns and with its locks still held;
// an error aborts the statement exactly like a trigger error. It does not run
// when the statement itself failed: the hook is dropped unflushed.
type StatementHook interface {
	EndStatement(q Queryer) error
}

// StatementScope is the statement-scoped side of the Queryer triggers
// receive; *Txn implements it.
type StatementScope interface {
	// StatementHook returns the hook owner attached to the statement in
	// flight, first attaching attach() when there is none yet. Hooks end in
	// the order they were attached.
	StatementHook(owner any, attach func() StatementHook) StatementHook
}

// Trigger is a row-level AFTER trigger.
type Trigger struct {
	Name  string
	Table string
	Op    TriggerOp
	Fn    TriggerFunc
	// ReadsTables declares the tables Fn may query. The engine pre-locks
	// them (shared) together with the trigger's own table, in sorted name
	// order, before executing the mutating statement — making single-
	// statement transactions deadlock-free even when triggers on different
	// tables read each other's tables.
	ReadsTables []string
	// Source is the generated, human-readable trigger program. The engine
	// does not interpret it; CacheGenie generates it alongside Fn so the
	// paper's programmer-effort metrics (§5.2: 48 triggers, ~1720 lines) are
	// measurable on this implementation.
	Source string
}

// Result reports the effects of a mutating statement.
type Result struct {
	RowsAffected int
	LastInsertID int64
	// Returning holds rows requested by INSERT ... RETURNING.
	Returning [][]Value
}

// ResultSet is the outcome of a query.
type ResultSet struct {
	Columns []string
	Rows    []Row
}

// Stats counts engine activity; all fields are cumulative.
type Stats struct {
	Selects       int64
	Inserts       int64
	Updates       int64
	Deletes       int64
	TriggersFired int64
	TxnsCommitted int64
	TxnsAborted   int64
}

// Config configures a DB.
type Config struct {
	// BufferPoolPages is the buffer pool capacity (default 4096 pages,
	// i.e. 32 MiB of 8 KiB pages).
	BufferPoolPages int
	// Cost, when set, is told about every unit of work the engine does on
	// hardware it does not have: once per statement (CostStatement, the
	// client hop and the query's CPU) and once per page read or write that
	// reaches the storage device (CostDiskAccess, a buffer-pool miss or
	// write-back). It runs on the executing goroutine, locks held, and may
	// block. Nil — the default, and every real deployment — costs nothing;
	// the experiment harness uses it to charge the paper's network, CPU and
	// disk.
	Cost func(Cost)
	// LockTimeout bounds lock waits (default 5s).
	LockTimeout time.Duration
	// DataDir, when set, makes the database durable: committed
	// transactions are redo-logged to a group-commit WAL under
	// DataDir/wal, a clean Close snapshots the full state, and Open
	// replays snapshot + log to the last complete commit record. Empty
	// means the engine is memory-only (the pre-WAL behavior).
	DataDir string
	// WALSegmentBytes rotates WAL segments at this size (default 64 MiB).
	WALSegmentBytes int64
	// WALGroupMax caps commits coalesced into one fsync (default 128).
	WALGroupMax int
	// WALNoSync skips fsync on commit — crash durability is then only as
	// good as the page cache. For tests and deliberate speed-over-safety
	// runs.
	WALNoSync bool
}

// DB is the database engine. It is safe for concurrent use.
type DB struct {
	mu     sync.RWMutex // guards catalog maps
	disk   *storage.Disk
	pool   *storage.BufferPool
	tables map[string]*table
	locks  map[string]*tableLock
	// triggers[table][op] is the ordered trigger list.
	triggers map[string]map[TriggerOp][]*Trigger
	// writeLocks[table][op] is the sorted, deduplicated list of tables a
	// mutating statement locks when triggers are installed for it: the
	// table itself plus every trigger's ReadsTables. Rebuilt (never edited
	// in place) whenever that trigger list changes.
	writeLocks map[string]map[TriggerOp][]string

	cost            func(Cost)
	lockTimeout     time.Duration
	triggersEnabled atomic.Bool
	nextTxn         atomic.Int64

	// stmts caches parsed statements by SQL text (parse). Readers load the
	// current map without a lock; stmtsMu serializes writers, which publish a
	// copy with one more entry.
	stmts   atomic.Pointer[map[string]sqlparse.Statement]
	stmtsMu sync.Mutex

	// Durability state; all nil/zero when Config.DataDir is unset.
	wal        *wal.Writer
	walMetrics *wal.Metrics
	dataDir    string
	epoch      atomic.Uint64
	recovery   RecoveryInfo
	closed     atomic.Bool

	statSelects  atomic.Int64
	statInserts  atomic.Int64
	statUpdates  atomic.Int64
	statDeletes  atomic.Int64
	statTriggers atomic.Int64
	statCommits  atomic.Int64
	statAborts   atomic.Int64
}

// maxTriggerDepth bounds trigger-initiated writes re-firing triggers.
const maxTriggerDepth = 4

// Open creates a database. With Config.DataDir unset it is a fresh,
// memory-only engine and never fails; with DataDir set it recovers durable
// state (snapshot load, WAL replay to the last complete commit, recovery-
// epoch maintenance) before accepting traffic — see RecoveryInfo.
func Open(cfg Config) (*DB, error) {
	db := openMem(cfg)
	if cfg.DataDir == "" {
		return db, nil
	}
	if err := db.openDurable(cfg); err != nil {
		return nil, err
	}
	return db, nil
}

// MustOpen is Open for configurations that cannot fail — memory-only
// engines in tests and benchmarks. It panics on error.
func MustOpen(cfg Config) *DB {
	db, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return db
}

func openMem(cfg Config) *DB {
	if cfg.BufferPoolPages <= 0 {
		cfg.BufferPoolPages = 4096
	}
	if cfg.LockTimeout <= 0 {
		cfg.LockTimeout = 5 * time.Second
	}
	var onDisk func()
	if cost := cfg.Cost; cost != nil {
		onDisk = func() { cost(CostDiskAccess) }
	}
	disk := storage.NewDisk(onDisk)
	db := &DB{
		disk:        disk,
		pool:        storage.NewBufferPool(disk, cfg.BufferPoolPages),
		tables:      make(map[string]*table),
		locks:       make(map[string]*tableLock),
		triggers:    make(map[string]map[TriggerOp][]*Trigger),
		writeLocks:  make(map[string]map[TriggerOp][]string),
		cost:        cfg.Cost,
		lockTimeout: cfg.LockTimeout,
	}
	db.triggersEnabled.Store(true)
	db.stmts.Store(&map[string]sqlparse.Statement{})
	return db
}

// maxCachedStatements caps the statement cache. An application issues a
// handful of distinct statement texts (geniebench's whole run: 19), all with
// $n parameters; one that inlines its values makes a new text per call, and
// past the cap those are parsed on every execution instead of filling memory.
const maxCachedStatements = 1024

// parse returns sql's statement, parsed once per distinct text: the AST is
// immutable after sqlparse.Parse, so every execution of the text — concurrent
// ones and trigger-issued ones included — shares it.
func (db *DB) parse(sql string) (sqlparse.Statement, error) {
	cached := *db.stmts.Load()
	if st, ok := cached[sql]; ok {
		return st, nil
	}
	st, err := sqlparse.Parse(sql)
	if err != nil || len(cached) >= maxCachedStatements {
		return st, err
	}
	db.stmtsMu.Lock()
	defer db.stmtsMu.Unlock()
	old := *db.stmts.Load()
	if _, ok := old[sql]; !ok && len(old) < maxCachedStatements {
		next := make(map[string]sqlparse.Statement, len(old)+1)
		for k, v := range old {
			next[k] = v
		}
		next[sql] = st
		db.stmts.Store(&next)
	}
	return st, nil
}

// BufferPool exposes the pool for experiment instrumentation (resize,
// stats). Production callers should not need it.
func (db *DB) BufferPool() *storage.BufferPool { return db.pool }

// Stats returns a snapshot of engine counters.
func (db *DB) Stats() Stats {
	return Stats{
		Selects:       db.statSelects.Load(),
		Inserts:       db.statInserts.Load(),
		Updates:       db.statUpdates.Load(),
		Deletes:       db.statDeletes.Load(),
		TriggersFired: db.statTriggers.Load(),
		TxnsCommitted: db.statCommits.Load(),
		TxnsAborted:   db.statAborts.Load(),
	}
}

// SetTriggersEnabled toggles trigger firing globally. Experiment 5 measures
// trigger overhead by replaying the workload with triggers disabled (the
// paper's "ideal system").
func (db *DB) SetTriggersEnabled(on bool) { db.triggersEnabled.Store(on) }

// TriggersEnabled reports the toggle state.
func (db *DB) TriggersEnabled() bool { return db.triggersEnabled.Load() }

func (db *DB) lockFor(tableName string) *tableLock {
	db.mu.Lock()
	defer db.mu.Unlock()
	l, ok := db.locks[tableName]
	if !ok {
		l = newTableLock()
		db.locks[tableName] = l
	}
	return l
}

func (db *DB) table(name string) (*table, error) {
	db.mu.RLock()
	t, ok := db.tables[name]
	db.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("sqldb: no such table %q", name)
	}
	return t, nil
}

// Tables lists table names in sorted order.
func (db *DB) Tables() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Schema returns the named table's schema.
func (db *DB) Schema(table string) (*Schema, error) {
	t, err := db.table(table)
	if err != nil {
		return nil, err
	}
	return t.schema, nil
}

// NumRows reports a table's row count (no locking; approximate under
// concurrency).
func (db *DB) NumRows(table string) (int, error) {
	t, err := db.table(table)
	if err != nil {
		return 0, err
	}
	return t.rows, nil
}

// CreateTrigger installs a row-level AFTER trigger. Triggers on one table
// and op fire in installation order.
func (db *DB) CreateTrigger(tr Trigger) error {
	if tr.Fn == nil {
		return errors.New("sqldb: trigger has no function")
	}
	if _, err := db.table(tr.Table); err != nil {
		return err
	}
	switch tr.Op {
	case TrigInsert, TrigUpdate, TrigDelete:
	default:
		return fmt.Errorf("sqldb: bad trigger op %d", int(tr.Op))
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	byOp, ok := db.triggers[tr.Table]
	if !ok {
		byOp = make(map[TriggerOp][]*Trigger)
		db.triggers[tr.Table] = byOp
	}
	for _, existing := range byOp[tr.Op] {
		if existing.Name == tr.Name {
			return fmt.Errorf("sqldb: trigger %q already exists on %s %s", tr.Name, tr.Table, tr.Op)
		}
	}
	cp := tr
	byOp[tr.Op] = append(byOp[tr.Op], &cp)
	db.rebuildWriteLocksLocked(tr.Table, tr.Op)
	return nil
}

// rebuildWriteLocksLocked recomputes writeLocks[table][op] from the trigger
// list. Caller holds db.mu.
func (db *DB) rebuildWriteLocksLocked(table string, op TriggerOp) {
	names := []string{table}
	for _, tr := range db.triggers[table][op] {
		names = append(names, tr.ReadsTables...)
	}
	sort.Strings(names)
	names = slices.Compact(names)
	if db.writeLocks[table] == nil {
		db.writeLocks[table] = make(map[TriggerOp][]string)
	}
	db.writeLocks[table][op] = names
}

// DropTrigger removes the named trigger from a table (all ops).
func (db *DB) DropTrigger(table, name string) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	dropped := false
	for op, list := range db.triggers[table] {
		keep := list[:0]
		for _, tr := range list {
			if tr.Name == name {
				dropped = true
				continue
			}
			keep = append(keep, tr)
		}
		db.triggers[table][op] = keep
		db.rebuildWriteLocksLocked(table, op)
	}
	return dropped
}

// Triggers returns the installed triggers for a table and op (nil-safe).
func (db *DB) Triggers(table string, op TriggerOp) []*Trigger {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return append([]*Trigger(nil), db.triggers[table][op]...)
}

// AllTriggers returns every installed trigger.
func (db *DB) AllTriggers() []*Trigger {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []*Trigger
	for _, byOp := range db.triggers {
		for _, list := range byOp {
			out = append(out, list...)
		}
	}
	return out
}

func (db *DB) fireTriggers(tx *Txn, ev TriggerEvent) error {
	if !db.triggersEnabled.Load() || tx.depth >= maxTriggerDepth {
		return nil
	}
	db.mu.RLock()
	list := db.triggers[ev.Table][ev.Op]
	db.mu.RUnlock()
	if len(list) == 0 {
		return nil
	}
	tx.depth++
	defer func() { tx.depth-- }()
	for _, tr := range list {
		db.statTriggers.Add(1)
		if err := tr.Fn(tx, ev); err != nil {
			return fmt.Errorf("sqldb: trigger %q on %s %s: %w", tr.Name, ev.Table, ev.Op, err)
		}
	}
	return nil
}

// lockForWrite acquires the locks a mutating statement on table needs:
// exclusive on the table itself plus shared on every table its triggers
// declare they read, all in sorted name order to prevent deadlocks.
func (tx *Txn) lockForWrite(table string, op TriggerOp) error {
	var names []string
	if tx.db.triggersEnabled.Load() {
		tx.db.mu.RLock()
		names = tx.db.writeLocks[table][op]
		tx.db.mu.RUnlock()
	}
	if names == nil { // no triggers: the table alone
		return tx.lockTable(table, lockExclusive)
	}
	for _, n := range names {
		mode := lockShared
		if n == table {
			mode = lockExclusive
		}
		if err := tx.lockTable(n, mode); err != nil {
			return err
		}
	}
	return nil
}

// Begin starts a transaction.
func (db *DB) Begin() *Txn {
	return &Txn{
		db:    db,
		id:    db.nextTxn.Add(1),
		locks: map[string]lockMode{},
	}
}

// Cost names a unit of work Config.Cost is told about.
type Cost uint8

// Costs.
const (
	// CostStatement is one statement — a SELECT, INSERT, UPDATE or DELETE,
	// trigger-issued ones included — sent to the database and executed.
	CostStatement Cost = iota
	// CostDiskAccess is one page read or write on the storage device.
	CostDiskAccess
)

// chargeStatement reports one statement to the cost hook.
func (db *DB) chargeStatement() {
	if db.cost != nil {
		db.cost(CostStatement)
	}
}

// Exec parses (once per distinct text) and executes one statement in
// autocommit mode.
func (db *DB) Exec(sql string, args ...Value) (Result, error) {
	st, err := db.parse(sql)
	if err != nil {
		return Result{}, err
	}
	return db.ExecAST(st, args...)
}

// ExecAST executes a parsed statement in autocommit mode.
func (db *DB) ExecAST(st sqlparse.Statement, args ...Value) (Result, error) {
	switch st.(type) {
	case *sqlparse.Begin, *sqlparse.Commit, *sqlparse.Rollback:
		return Result{}, errors.New("sqldb: use Begin()/Commit()/Rollback() methods for transaction control")
	}
	tx := db.Begin()
	res, err := tx.execAST(st, args...)
	if err != nil {
		_ = tx.Rollback()
		db.statAborts.Add(1)
		return Result{}, err
	}
	if err := tx.Commit(); err != nil {
		return Result{}, err
	}
	db.statCommits.Add(1)
	return res, nil
}

// Query parses and runs a SELECT in autocommit mode.
func (db *DB) Query(sql string, args ...Value) (*ResultSet, error) {
	st, err := db.parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*sqlparse.Select)
	if !ok {
		return nil, fmt.Errorf("sqldb: Query needs a SELECT, got %T", st)
	}
	return db.QueryAST(sel, args...)
}

// QueryAST runs a parsed SELECT in autocommit mode.
func (db *DB) QueryAST(sel *sqlparse.Select, args ...Value) (*ResultSet, error) {
	tx := db.Begin()
	defer func() { _ = tx.Rollback() }()
	rs, err := tx.querySelect(sel, args...)
	if err != nil {
		return nil, err
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	return rs, nil
}

// Exec executes one mutating statement inside the transaction.
func (tx *Txn) Exec(sql string, args ...Value) (Result, error) {
	st, err := tx.db.parse(sql)
	if err != nil {
		return Result{}, err
	}
	return tx.execAST(st, args...)
}

// Query runs a SELECT inside the transaction. It implements Queryer.
func (tx *Txn) Query(sql string, args ...Value) (*ResultSet, error) {
	st, err := tx.db.parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*sqlparse.Select)
	if !ok {
		return nil, fmt.Errorf("sqldb: Query needs a SELECT, got %T", st)
	}
	return tx.querySelect(sel, args...)
}

var _ Queryer = (*Txn)(nil)
