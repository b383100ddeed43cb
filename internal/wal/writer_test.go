package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// faultyFile is a segment file whose writes and fsyncs a test intercepts;
// a nil hook passes the call through to the file.
type faultyFile struct {
	*os.File
	onWrite func(f *os.File, b []byte) (int, error)
	onSync  func(f *os.File) error
}

func (f *faultyFile) Write(b []byte) (int, error) {
	if f.onWrite != nil {
		return f.onWrite(f.File, b)
	}
	return f.File.Write(b)
}

func (f *faultyFile) Sync() error {
	if f.onSync != nil {
		return f.onSync(f.File)
	}
	return f.File.Sync()
}

func faultyWriter(t *testing.T, dir string, ff faultyFile) *Writer {
	t.Helper()
	w, err := newWriter(Config{Dir: dir}, 0, func(f *os.File) segmentFile {
		wrapped := ff
		wrapped.File = f
		return &wrapped
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestWriterStopsAtFirstFailure: once an append or an fsync fails, the
// writer appends nothing more and acknowledges no commit, so recovery finds
// exactly the commits acknowledged before the failure. A torn append used
// to be followed by the next batch, acknowledged and then lost behind the
// tear; a failed fsync may have lost its pages, so no later fsync vouches
// for them.
func TestWriterStopsAtFirstFailure(t *testing.T) {
	const acked, failAt = 3, 4
	injected := errors.New("injected I/O error")
	for _, tc := range []struct {
		name string
		ff   func(calls *int) faultyFile
		// torn: the failed commit is cut short on disk, so replay stops
		// before it; otherwise its bytes are whole and replay may find it.
		torn bool
	}{
		{"torn append", func(calls *int) faultyFile {
			return faultyFile{onWrite: func(f *os.File, b []byte) (int, error) {
				if *calls++; *calls == failAt {
					n, _ := f.Write(b[:len(b)/2])
					return n, injected
				}
				return f.Write(b)
			}}
		}, true},
		{"fsync", func(calls *int) faultyFile {
			return faultyFile{onSync: func(f *os.File) error {
				if *calls++; *calls == failAt {
					return injected
				}
				return f.Sync()
			}}
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var calls int // touched only by the writer's loop
			w := faultyWriter(t, dir, tc.ff(&calls))
			commitN(t, w, acked)
			if err := commit(w, frameTxn(failAt, payloadRec(TypeClient, "fails"))); !errors.Is(err, injected) {
				t.Fatalf("commit %d = %v, want the injected error", failAt, err)
			}
			seg := filepath.Join(dir, SegmentName(1))
			before, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			for i := int64(failAt + 1); i <= failAt+5; i++ {
				if err := commit(w, frameTxn(i, payloadRec(TypeClient, fmt.Sprintf("op-%d", i)))); !errors.Is(err, injected) {
					t.Fatalf("commit %d after the failure = %v, want the injected error", i, err)
				}
			}
			if !errors.Is(w.Err(), injected) {
				t.Fatalf("Err() = %v, want the injected error", w.Err())
			}
			if err := w.Close(); !errors.Is(err, injected) {
				t.Fatalf("Close = %v, want the injected error", err)
			}
			after, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			if after.Size() != before.Size() {
				t.Fatalf("segment grew %d -> %d bytes after the failure", before.Size(), after.Size())
			}
			got, stats := replayTxns(t, dir)
			want := acked
			if !tc.torn && len(got) == acked+1 {
				want = acked + 1 // whole but never acknowledged: allowed
			}
			if len(got) != want || stats.TornTail != tc.torn {
				t.Fatalf("replayed %v (stats %+v), want txns 1..%d, torn=%v", got, stats, want, tc.torn)
			}
			for i := 1; i <= acked; i++ {
				if got[int64(i)] != fmt.Sprintf("op-%d", i) {
					t.Fatalf("acknowledged txn %d replayed as %q", i, got[int64(i)])
				}
			}
		})
	}
}

// TestWaitBlocksUntilItsBatchIsFsynced: an LSN becomes durable only when the
// fsync of the batch holding it returns, and Wait returns then and not
// before; an LSN of a later batch waits for that batch's own fsync.
func TestWaitBlocksUntilItsBatchIsFsynced(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	w := faultyWriter(t, t.TempDir(), faultyFile{onSync: func(f *os.File) error {
		entered <- struct{}{}
		<-release
		return f.Sync()
	}})
	defer w.Close()

	wait := func(lsn uint64) <-chan error {
		done := make(chan error, 1)
		go func() { done <- w.Wait(lsn) }()
		return done
	}
	first, err := w.Sequence(frameTxn(1))
	if err != nil {
		t.Fatal(err)
	}
	firstDone := wait(first)
	<-entered // the first batch is written; its fsync is stalled
	second, err := w.Sequence(frameTxn(2))
	if err != nil {
		t.Fatal(err)
	}
	secondDone := wait(second)
	if second <= first {
		t.Fatalf("LSNs %d then %d, want increasing", first, second)
	}
	select {
	case err := <-firstDone:
		t.Fatalf("Wait(%d) returned %v during its batch's fsync", first, err)
	default:
	}
	if got := w.durable.Load(); got >= first {
		t.Fatalf("durable-through %d before the fsync returned, want < %d", got, first)
	}

	release <- struct{}{}
	if err := <-firstDone; err != nil {
		t.Fatalf("Wait(%d) = %v", first, err)
	}
	<-entered // the second batch's fsync
	select {
	case err := <-secondDone:
		t.Fatalf("Wait(%d) returned %v during its batch's fsync", second, err)
	default:
	}
	release <- struct{}{}
	if err := <-secondDone; err != nil {
		t.Fatalf("Wait(%d) = %v", second, err)
	}
	if err := w.Wait(first); err != nil {
		t.Fatalf("Wait on an already durable LSN = %v", err)
	}
	go func() { // Close's final fsync
		<-entered
		release <- struct{}{}
	}()
}
