package sqldb

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestLockWaitArmsOneTimer: a waiter that releases of the same table keep
// waking still times out at the lock timeout, and its wait allocates a fixed
// amount however often it wakes — one timer for the whole wait, not one per
// wakeup.
func TestLockWaitArmsOneTimer(t *testing.T) {
	l := newTableLock()
	holder, waiter, other := &Txn{}, &Txn{}, &Txn{}
	if err := l.acquire(holder, lockShared, time.Second); err != nil {
		t.Fatal(err)
	}
	// Warm the readers map with other's slot, so the releases below allocate
	// nothing of their own.
	if err := l.acquire(other, lockShared, time.Second); err != nil {
		t.Fatal(err)
	}
	l.release(other)

	var cycles atomic.Int64
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Each release broadcasts, waking the waiter, which finds the
			// holder still there and waits again.
			if err := l.acquire(other, lockShared, time.Second); err != nil {
				t.Error(err)
				return
			}
			l.release(other)
			cycles.Add(1)
			time.Sleep(100 * time.Microsecond)
		}
	}()

	const timeout = 200 * time.Millisecond
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := l.acquire(waiter, lockExclusive, timeout)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	close(stop)
	<-stopped

	if !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("acquire under a held shared lock = %v, want ErrLockTimeout", err)
	}
	if elapsed < timeout || elapsed > timeout+time.Second {
		t.Fatalf("timed out after %v, want %v (plus slack)", elapsed, timeout)
	}
	n, mallocs := cycles.Load(), after.Mallocs-before.Mallocs
	if n < 20 {
		t.Skipf("only %d releases landed during the wait; too few to tell", n)
	}
	if mallocs > 20 {
		t.Fatalf("a wait woken by %d releases made %d allocations, want a handful", n, mallocs)
	}
}

// TestReleaseStampsAndReadersPickUp: on a durable DB a committing writer
// stamps the tables it held exclusively with its commit's LSN as it releases
// them, and not the tables its triggers only read; a transaction that then
// locks a stamped table picks the stamp up as what its commit must wait
// for, and one that locks only untouched tables picks up 0.
func TestReleaseStampsAndReadersPickUp(t *testing.T) {
	db := openDurable(t, durableCfg(t))
	defer db.Close()
	for _, name := range []string{"a", "b", "c"} { // LSNs 1-3: DDL locks nothing
		mustExec(t, db, "CREATE TABLE "+name+" (v INT)")
	}
	if err := db.CreateTrigger(Trigger{
		Name: "b_reads_a", Table: "b", Op: TrigInsert, ReadsTables: []string{"a"},
		Fn: func(q Queryer, _ TriggerEvent) error { _, err := q.Query("SELECT v FROM a"); return err },
	}); err != nil {
		t.Fatal(err)
	}
	stamp := func(table string) uint64 { return db.lockFor(table).stamp.Load() }
	seen := func(sql string) uint64 {
		t.Helper()
		tx := db.Begin()
		if _, err := tx.Query(sql); err != nil {
			t.Fatal(err)
		}
		got := tx.seen
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		return got
	}

	mustExec(t, db, "INSERT INTO a (v) VALUES (1)") // LSN 4
	mustExec(t, db, "INSERT INTO b (v) VALUES (1)") // LSN 5; a held shared
	if a, b, c := stamp("a"), stamp("b"), stamp("c"); a != 4 || b != 5 || c != 0 {
		t.Fatalf("stamps a=%d b=%d c=%d, want 4, 5 and 0 (a only read by the b writer)", a, b, c)
	}
	if got := seen("SELECT v FROM a"); got != 4 {
		t.Fatalf("a reader picked up %d, want 4", got)
	}
	if got := seen("SELECT a.v FROM a JOIN b ON a.v = b.v"); got != 5 {
		t.Fatalf("an a-and-b reader picked up %d, want 5", got)
	}
	if got := seen("SELECT v FROM c"); got != 0 {
		t.Fatalf("a reader of the untouched table picked up %d, want 0", got)
	}
	// A writer that changed nothing logs nothing, so it has no LSN and
	// leaves the stamp of the table it held exclusively alone.
	mustExec(t, db, "UPDATE c SET v = 2 WHERE v = 99")
	if got := stamp("c"); got != 0 {
		t.Fatalf("a commit that logged nothing stamped c with %d, want 0", got)
	}
}
