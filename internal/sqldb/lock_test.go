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
