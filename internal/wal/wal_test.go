package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func payloadRec(t Type, p string) Record { return Record{Type: t, Payload: []byte(p)} }

// frameTxn frames recs as transaction txn: its Begin record, recs, its Commit
// record.
func frameTxn(txn int64, recs ...Record) []byte {
	buf := AppendRecord(nil, Record{Type: TypeBegin, Txn: txn})
	for _, r := range recs {
		r.Txn = txn
		buf = AppendRecord(buf, r)
	}
	return AppendRecord(buf, Record{Type: TypeCommit, Txn: txn})
}

// TestBeginEndRecordMatchesAppendRecord: a record framed around a payload
// appended in place is the record AppendRecord writes.
func TestBeginEndRecordMatchesAppendRecord(t *testing.T) {
	for _, r := range []Record{
		{Type: TypeBegin, Txn: 3},
		{Type: TypeClient + 2, Txn: 1 << 40, Payload: []byte("payload")},
	} {
		buf := append(BeginRecord([]byte("prefix"), r.Type, r.Txn), r.Payload...)
		EndRecord(buf[len("prefix"):])
		if want := AppendRecord([]byte("prefix"), r); !bytes.Equal(buf, want) {
			t.Fatalf("%+v framed in place as %x, AppendRecord wrote %x", r, buf, want)
		}
	}
}

// commit appends txn and waits until it is durable.
func commit(w *Writer, txn []byte) error {
	lsn, err := w.Sequence(txn)
	if err != nil {
		return err
	}
	return w.Wait(lsn)
}

func commitN(t *testing.T, w *Writer, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		err := commit(w, frameTxn(int64(i+1), payloadRec(TypeClient, fmt.Sprintf("op-%d", i+1))))
		if err != nil {
			t.Fatalf("commit %d: %v", i+1, err)
		}
	}
}

func replayTxns(t *testing.T, dir string) (map[int64]string, ReplayStats) {
	t.Helper()
	got := map[int64]string{}
	stats, err := ReplayCommitted(dir, 0, false, func(txn int64, recs []Record) error {
		var b bytes.Buffer
		for _, r := range recs {
			b.Write(r.Payload)
		}
		got[txn] = b.String()
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got, stats
}

func TestRecordRoundTrip(t *testing.T) {
	var buf []byte
	recs := []Record{
		{Type: TypeBegin, Txn: 7},
		{Type: TypeClient, Txn: 7, Payload: []byte("hello")},
		{Type: TypeClient + 3, Txn: 7, Payload: bytes.Repeat([]byte{0xAB}, 4096)},
		{Type: TypeCommit, Txn: 7},
	}
	for _, r := range recs {
		buf = AppendRecord(buf, r)
	}
	off := 0
	for i, want := range recs {
		got, n, err := DecodeRecord(buf[off:])
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got.Type != want.Type || got.Txn != want.Txn || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("record %d: got %+v want %+v", i, got, want)
		}
		off += n
	}
	if off != len(buf) {
		t.Fatalf("decoded %d of %d bytes", off, len(buf))
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	buf := AppendRecord(nil, Record{Type: TypeClient, Txn: 1, Payload: []byte("payload")})
	for i := range buf {
		mutated := append([]byte(nil), buf...)
		mutated[i] ^= 0xFF
		if _, _, err := DecodeRecord(mutated); err == nil {
			t.Fatalf("flipping byte %d went undetected", i)
		}
	}
	for cut := 1; cut < len(buf); cut++ {
		if _, _, err := DecodeRecord(buf[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", cut)
		}
	}
}

func TestWriterReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(Config{Dir: dir}, 0)
	if err != nil {
		t.Fatal(err)
	}
	commitN(t, w, 10)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, stats := replayTxns(t, dir)
	if stats.Txns != 10 || stats.TornTail {
		t.Fatalf("stats = %+v, want 10 txns, no tear", stats)
	}
	for i := 1; i <= 10; i++ {
		if got[int64(i)] != fmt.Sprintf("op-%d", i) {
			t.Fatalf("txn %d payload = %q", i, got[int64(i)])
		}
	}
}

func TestTornTailStopsAtPrefix(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(Config{Dir: dir}, 0)
	if err != nil {
		t.Fatal(err)
	}
	commitN(t, w, 5)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, SegmentName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Tear mid-way through the last transaction's records.
	if err := os.WriteFile(seg, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	got, stats := replayTxns(t, dir)
	if !stats.TornTail {
		t.Fatalf("stats = %+v, want torn tail", stats)
	}
	if len(got) != 4 {
		t.Fatalf("replayed %d txns after tear, want exact prefix 4", len(got))
	}
}

func TestRepairTruncatesTearAndDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force one txn per segment.
	w, err := NewWriter(Config{Dir: dir, SegmentBytes: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	commitN(t, w, 3)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := ListSegments(dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("segments = %v, err %v, want >= 3", segs, err)
	}
	// Corrupt the middle segment: everything after it must be dropped.
	mid := segs[1]
	data, _ := os.ReadFile(mid.Path)
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(mid.Path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var replayed int
	stats, err := ReplayCommitted(dir, 0, true, func(int64, []Record) error {
		replayed++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.TornTail || replayed != 1 {
		t.Fatalf("stats=%+v replayed=%d, want torn tail and exact prefix 1", stats, replayed)
	}
	after, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range after {
		if s.Seq > mid.Seq {
			t.Fatalf("segment %d survived repair", s.Seq)
		}
	}
	// A second replay over the repaired log is clean.
	_, stats2 := replayTxns(t, dir)
	if stats2.TornTail || stats2.Txns != 1 {
		t.Fatalf("post-repair stats = %+v, want clean 1-txn prefix", stats2)
	}
}

func TestUncommittedSuffixDiscarded(t *testing.T) {
	dir := t.TempDir()
	buf := AppendRecord(nil, Record{Type: TypeBegin, Txn: 1})
	buf = AppendRecord(buf, Record{Type: TypeClient, Txn: 1, Payload: []byte("committed")})
	buf = AppendRecord(buf, Record{Type: TypeCommit, Txn: 1})
	buf = AppendRecord(buf, Record{Type: TypeBegin, Txn: 2})
	buf = AppendRecord(buf, Record{Type: TypeClient, Txn: 2, Payload: []byte("doomed")})
	// No commit for txn 2, no physical tear.
	if err := os.WriteFile(filepath.Join(dir, SegmentName(1)), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	got, stats := replayTxns(t, dir)
	if stats.TornTail {
		t.Fatalf("clean log misclassified as torn: %+v", stats)
	}
	if stats.Uncommitted != 1 || len(got) != 1 || got[1] == "" {
		t.Fatalf("got=%v stats=%+v, want txn 1 only with 1 uncommitted discard", got, stats)
	}
}

func TestSegmentRotationAndWatermark(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(Config{Dir: dir, SegmentBytes: 128}, 0)
	if err != nil {
		t.Fatal(err)
	}
	commitN(t, w, 20)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("expected rotation, got %d segments", len(segs))
	}
	if w.Seq() != segs[len(segs)-1].Seq {
		t.Fatalf("Seq() = %d, last segment = %d", w.Seq(), segs[len(segs)-1].Seq)
	}
	// Replaying after the watermark of the first segment skips its txns.
	var skipped, all int
	if _, err := ReplayCommitted(dir, segs[0].Seq, false, func(int64, []Record) error { skipped++; return nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayCommitted(dir, 0, false, func(int64, []Record) error { all++; return nil }); err != nil {
		t.Fatal(err)
	}
	if all != 20 || skipped >= all {
		t.Fatalf("all=%d afterFirst=%d, want watermark to skip txns", all, skipped)
	}
}

func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	var m Metrics
	w, err := NewWriter(Config{Dir: dir, GroupMax: 64, Metrics: &m}, 0)
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers*per)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				txn := int64(g*per + i + 1)
				errs <- commit(w, frameTxn(txn, payloadRec(TypeClient, fmt.Sprintf("w%d-%d", g, i))))
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := m.Commits.Load(); got != workers*per {
		t.Fatalf("commit counter = %d, want %d", got, workers*per)
	}
	if m.GroupTxns.Count() == 0 || m.GroupTxns.Count() > workers*per {
		t.Fatalf("group histogram count = %d, want (0, %d]", m.GroupTxns.Count(), workers*per)
	}
	got, stats := replayTxns(t, dir)
	if len(got) != workers*per || stats.TornTail {
		t.Fatalf("replayed %d txns (stats %+v), want %d", len(got), stats, workers*per)
	}
}

func TestCommitAfterCloseAndAbort(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(Config{Dir: dir}, 0)
	if err != nil {
		t.Fatal(err)
	}
	commitN(t, w, 1)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := commit(w, frameTxn(99)); !errors.Is(err, ErrClosed) {
		t.Fatalf("commit after close = %v, want ErrClosed", err)
	}
	if err := w.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close = %v, want ErrClosed", err)
	}

	w2, err := NewWriter(Config{Dir: t.TempDir()}, 0)
	if err != nil {
		t.Fatal(err)
	}
	w2.Abort()
	if err := commit(w2, frameTxn(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("commit after abort = %v, want ErrClosed", err)
	}
}
