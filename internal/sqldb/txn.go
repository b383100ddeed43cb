package sqldb

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cachegenie/internal/wal"
)

// ErrLockTimeout is returned when a lock cannot be acquired before the
// engine's lock timeout; callers should treat it as a deadlock victim signal
// and retry the transaction (timeout-based deadlock detection, as the paper
// proposes for its distributed variant, §3.3).
var ErrLockTimeout = errors.New("sqldb: lock wait timeout (possible deadlock)")

// ErrTxnDone is returned when using a committed or rolled-back transaction.
var ErrTxnDone = errors.New("sqldb: transaction already finished")

type lockMode int

const (
	lockNone lockMode = iota
	lockShared
	lockExclusive
)

// tableLock is a reader-writer lock with owner reentrancy, shared-to-
// exclusive upgrade, and timeout. Owners are transactions.
type tableLock struct {
	mu      sync.Mutex
	cond    *sync.Cond
	readers map[*Txn]int
	writer  *Txn
	// stamp is the LSN of the last durable commit that held the lock
	// exclusively, stored before that commit released it (Txn.Commit).
	stamp atomic.Uint64
	// waits and waitNanos count acquire's slow path: the waits, and the
	// time they took.
	waits, waitNanos atomic.Int64
}

func newTableLock() *tableLock {
	l := &tableLock{readers: make(map[*Txn]int)}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// tryGrant attempts to grant mode to owner; caller holds l.mu.
func (l *tableLock) tryGrant(owner *Txn, mode lockMode) bool {
	switch mode {
	case lockShared:
		if l.writer == nil || l.writer == owner {
			l.readers[owner]++
			return true
		}
	case lockExclusive:
		if l.writer == owner {
			return true
		}
		othersReading := false
		for r := range l.readers {
			if r != owner {
				othersReading = true
				break
			}
		}
		if l.writer == nil && !othersReading {
			// Upgrade: drop our shared holds; the exclusive hold subsumes
			// them until release.
			delete(l.readers, owner)
			l.writer = owner
			return true
		}
	}
	return false
}

// acquire blocks until mode is granted to owner or timeout elapses. A wait
// arms one timer, which wakes it at the deadline; every release wakes it too,
// and it sleeps again until the grant or the deadline.
func (l *tableLock) acquire(owner *Txn, mode lockMode, timeout time.Duration) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.tryGrant(owner, mode) {
		return nil
	}
	start := time.Now()
	deadline := start.Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		l.mu.Lock()
		l.cond.Broadcast()
		l.mu.Unlock()
	})
	defer timer.Stop()
	l.waits.Add(1)
	defer func() { l.waitNanos.Add(int64(time.Since(start))) }()
	for !l.tryGrant(owner, mode) {
		if time.Until(deadline) <= 0 {
			return ErrLockTimeout
		}
		l.cond.Wait()
	}
	return nil
}

// release drops all of owner's holds.
func (l *tableLock) release(owner *Txn) {
	l.mu.Lock()
	if l.writer == owner {
		l.writer = nil
	}
	delete(l.readers, owner)
	l.cond.Broadcast()
	l.mu.Unlock()
}

// undoRec is one entry in a transaction's undo log.
type undoRec struct {
	tbl *table
	op  TriggerOp
	old Row // valid for update, delete
	new Row // valid for insert, update
}

// heldLock is one table lock a transaction holds.
type heldLock struct {
	table string
	lock  *tableLock
	mode  lockMode
}

// Txn is a database transaction. It locks at table granularity, two-phase:
// locks accumulate during the transaction and are all released at Commit or
// Rollback. On a durable DB that release is early, a departure from strict
// two-phase locking: a committing writer releases its locks once the WAL has
// sequenced its commit, before the fsync, and is acknowledged after it. A
// transaction that reads what such a writer released is ordered behind it:
// a writer by the WAL's FIFO, a read-only transaction by waiting at Commit
// for the highest LSN stamped on the tables it locked. A Txn must be used
// from a single goroutine.
type Txn struct {
	db *DB
	id int64
	// locks are the table locks held, in the order taken. A transaction takes
	// a few, so they start out in lockRoom, inside the Txn.
	locks    []heldLock
	lockRoom [4]heldLock
	// seen is the highest stamp (tableLock.stamp) on the tables it locked.
	seen uint64
	undo []undoRec
	// redo is the transaction's redo log as the WAL stores it: its Begin
	// record, then one record per change, each framed and encoded where the
	// statement made the change (beginRedo, endRedo); Commit appends the
	// Commit record and hands the WAL writer the lot. A stored row is encoded
	// once, into its record, and the heap copies the encoding from there. On a
	// memory-only DB no record is kept and redo is that encoding's scratch.
	redo []byte
	done bool
	// depth guards against trigger recursion: triggers run inside a
	// statement and may issue reads, but their writes do not re-fire
	// triggers beyond maxTriggerDepth.
	depth int
	// stmtHooks are the hooks triggers attached to the statement in flight
	// (StatementScope), in attachment order; endStatement empties it.
	stmtHooks []stmtHook
}

type stmtHook struct {
	owner any
	hook  StatementHook
}

var _ StatementScope = (*Txn)(nil)

// StatementHook implements StatementScope.
func (tx *Txn) StatementHook(owner any, attach func() StatementHook) StatementHook {
	for _, h := range tx.stmtHooks {
		if h.owner == owner {
			return h.hook
		}
	}
	h := attach()
	tx.stmtHooks = append(tx.stmtHooks, stmtHook{owner, h})
	return h
}

// endStatement closes the statement scope: unless the statement already
// failed with err it ends every attached hook in order, the first hook error
// becoming the statement's; either way the hooks are forgotten.
func (tx *Txn) endStatement(err error) error {
	hooks := tx.stmtHooks
	tx.stmtHooks = nil
	if err != nil {
		return err
	}
	for _, h := range hooks {
		if err := h.hook.EndStatement(tx); err != nil {
			return fmt.Errorf("sqldb: statement hook: %w", err)
		}
	}
	return nil
}

// ID returns the transaction id.
func (tx *Txn) ID() int64 { return tx.id }

// lockTable acquires (or re-acquires) a lock on the named table.
func (tx *Txn) lockTable(name string, mode lockMode) error {
	if tx.done {
		return ErrTxnDone
	}
	i := 0
	for i < len(tx.locks) && tx.locks[i].table != name {
		i++
	}
	if i == len(tx.locks) {
		tx.locks = append(tx.locks, heldLock{table: name, lock: tx.db.lockFor(name)})
	}
	h := &tx.locks[i]
	if h.mode >= mode {
		return nil
	}
	if err := h.lock.acquire(tx, mode, tx.db.lockTimeout); err != nil {
		return fmt.Errorf("%w (table %s, txn %d)", err, name, tx.id)
	}
	h.mode = mode
	tx.seen = max(tx.seen, h.lock.stamp.Load())
	return nil
}

// check reports why tx may not run a statement: it has finished, or its
// DB's WAL stopped with commits it had sequenced not durable. That stop is
// fail-stop: those commits released their locks, so memory may hold what
// others read of them and the log lost; reopening recovers the durable
// prefix.
func (tx *Txn) check() error {
	if tx.done {
		return ErrTxnDone
	}
	if w := tx.db.wal; w != nil {
		if err := w.Err(); err != nil {
			return fmt.Errorf("sqldb: database stopped: %w", err)
		}
	}
	return nil
}

// beginRedo starts the redo record of one change, of type typ with a payload
// of about size bytes, and returns where it starts: on a durable DB it
// appends the record's header to tx.redo, after the transaction's Begin
// record when this is its first change. The caller appends the payload and
// closes the record with endRedo.
func (tx *Txn) beginRedo(typ wal.Type, size int) int {
	if tx.db.wal == nil {
		tx.redo = slices.Grow(tx.redo, size)
		return len(tx.redo)
	}
	if len(tx.redo) == 0 {
		// An autocommit statement's whole log in one allocation: Begin, this
		// record, Commit.
		tx.redo = slices.Grow(tx.redo, 3*wal.HeaderSize+size)
		tx.redo = wal.BeginRecord(tx.redo, wal.TypeBegin, tx.id)
		wal.EndRecord(tx.redo)
	}
	start := len(tx.redo)
	tx.redo = wal.BeginRecord(tx.redo, typ, tx.id)
	return start
}

// endRedo closes the record beginRedo started at start: sealed and kept when
// the change was made (err nil) on a durable DB, dropped otherwise.
func (tx *Txn) endRedo(start int, err error) {
	if err != nil || tx.db.wal == nil {
		tx.redo = tx.redo[:start]
		return
	}
	wal.EndRecord(tx.redo[start:])
}

// Commit makes the transaction's effects durable and releases its locks.
// On a durable DB a transaction that changed something hands its redo log
// to the WAL writer, which sequences it; a failure there rolls the in-memory
// effects back, locks still held, so memory never diverges from the log.
// Once sequenced, the locks are released, each table held exclusively
// stamped with the commit's LSN, and Commit returns when that LSN is
// durable. A transaction that changed nothing waits instead for the highest
// stamp on the tables it locked, so nothing it read can be lost by a crash.
func (tx *Txn) Commit() error {
	if tx.done {
		return ErrTxnDone
	}
	w := tx.db.wal
	if w == nil {
		tx.finish(0)
		return nil
	}
	// A log of no change, or of nothing but the Begin record a failed first
	// change left, commits without the WAL.
	wait, stamp := tx.seen, uint64(0)
	if len(tx.redo) > wal.HeaderSize {
		tx.redo = wal.AppendRecord(tx.redo, wal.Record{Type: wal.TypeCommit, Txn: tx.id})
		lsn, err := w.Sequence(tx.redo)
		if err != nil {
			rbErr := tx.Rollback()
			if rbErr != nil {
				return fmt.Errorf("sqldb: commit txn %d: %v (rollback also failed: %v)", tx.id, err, rbErr)
			}
			return fmt.Errorf("sqldb: commit txn %d: %w", tx.id, err)
		}
		wait, stamp = lsn, lsn
	} else if err := w.Err(); err != nil {
		tx.finish(0)
		return fmt.Errorf("sqldb: commit txn %d: %w", tx.id, err)
	}
	tx.finish(stamp)
	if err := w.Wait(wait); err != nil {
		return fmt.Errorf("sqldb: commit txn %d: %w", tx.id, err)
	}
	return nil
}

// Rollback undoes every change made by the transaction (without re-firing
// triggers) and releases its locks. Rolling back a finished transaction is a
// no-op, so `defer tx.Rollback()` is safe.
func (tx *Txn) Rollback() error {
	if tx.done {
		return nil
	}
	for i := len(tx.undo) - 1; i >= 0; i-- {
		u := tx.undo[i]
		var err error
		switch u.op {
		case TrigInsert:
			err = u.tbl.deleteRaw(u.new)
		case TrigUpdate:
			_, err = u.tbl.updateRaw(nil, u.new, u.old)
		case TrigDelete:
			_, err = u.tbl.insertRaw(nil, u.old)
		}
		if err != nil {
			// Undo failures indicate corruption; surface loudly.
			tx.finish(0)
			return fmt.Errorf("sqldb: rollback of txn %d failed: %v", tx.id, err)
		}
	}
	tx.finish(0)
	return nil
}

// finish ends the transaction and releases its locks, first stamping each
// table it held exclusively with lsn, its commit's LSN, when that is not 0.
func (tx *Txn) finish(lsn uint64) {
	for _, h := range tx.locks {
		if lsn != 0 && h.mode == lockExclusive {
			h.lock.stamp.Store(lsn)
		}
		h.lock.release(tx)
	}
	tx.locks = nil // lockTable refuses a finished transaction before reading it
	tx.undo = nil
	tx.redo = nil
	tx.done = true
}
