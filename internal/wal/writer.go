package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// ErrClosed is returned by Sequence after the writer has been closed or
// aborted.
var ErrClosed = errors.New("wal: writer closed")

// Config configures a Writer.
type Config struct {
	// Dir is the segment directory (created if absent).
	Dir string
	// SegmentBytes rotates to a new segment once the current one reaches
	// this size (default 64 MiB).
	SegmentBytes int64
	// GroupMax caps how many commits one fsync may absorb (default 128).
	GroupMax int
	// NoSync skips fsync (tests and deliberate durability-off runs).
	NoSync bool
	// Metrics, when non-nil, receives fsync latency, group size, and
	// byte/commit counts.
	Metrics *Metrics
}

// commitReq is one sequenced transaction on its way to the loop; it travels
// by value.
type commitReq struct {
	buf []byte
	lsn uint64
}

// segmentFile is the open segment: an *os.File, or the fault-injecting
// wrapper a test installs through newWriter.
type segmentFile interface {
	Write([]byte) (int, error)
	Sync() error
	Close() error
}

// Writer is the group-commit appender. Sequence hands each transaction a log
// sequence number (LSN) in the order it joins the writer's FIFO; a single
// goroutine batches the queued transactions into the current segment and
// issues one fsync per batch, after which every LSN in the batch is durable.
// Wait blocks until an LSN is. The first failed write, rotation or fsync
// stops the writer for good: nothing is appended after a possibly torn
// record, and every commit not yet durable fails with that error.
type Writer struct {
	cfg   Config
	reqCh chan commitReq
	wrap  func(*os.File) segmentFile // test seam; nil in production

	// mu guards closed and lsn. Sequence holds it across its channel send,
	// so FIFO order is LSN order; the loop never takes it, so a send blocked
	// on a full queue always drains.
	mu      sync.Mutex
	closed  bool
	lsn     uint64 // last LSN handed out
	loop    sync.WaitGroup
	aborted atomic.Bool

	// durable is the highest LSN whose batch is on disk; every lower LSN is
	// too. failed is the error that stopped the writer with commits not yet
	// durable. The loop publishes both under dmu and broadcasts on cond.
	durable atomic.Uint64
	failed  atomic.Pointer[error]
	dmu     sync.Mutex
	cond    sync.Cond

	// Loop-goroutine state; read by others only after Close/Abort.
	f    segmentFile
	size int64
	seq  atomic.Uint64
}

// NewWriter opens the writer appending to a fresh segment numbered
// startSeq. Recovery passes the sequence after the last segment on disk so
// a reborn writer never appends into a segment replay has already
// consumed.
func NewWriter(cfg Config, startSeq uint64) (*Writer, error) {
	return newWriter(cfg, startSeq, nil)
}

// newWriter is NewWriter with every segment file passed through wrap (when
// non-nil) before the writer uses it.
func newWriter(cfg Config, startSeq uint64, wrap func(*os.File) segmentFile) (*Writer, error) {
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = 64 << 20
	}
	if cfg.GroupMax <= 0 {
		cfg.GroupMax = 128
	}
	if startSeq == 0 {
		startSeq = 1
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	w := &Writer{
		cfg:   cfg,
		reqCh: make(chan commitReq, cfg.GroupMax),
		wrap:  wrap,
	}
	w.cond.L = &w.dmu
	if err := w.openSegment(startSeq); err != nil {
		return nil, err
	}
	w.loop.Add(1)
	go w.run()
	return w, nil
}

func (w *Writer) openSegment(seq uint64) error {
	f, err := os.OpenFile(filepath.Join(w.cfg.Dir, SegmentName(seq)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if w.f != nil {
		_ = w.f.Close()
	}
	w.f = f
	if w.wrap != nil {
		w.f = w.wrap(f)
	}
	w.size = 0
	w.seq.Store(seq)
	if m := w.cfg.Metrics; m != nil {
		m.Segments.Inc()
	}
	return nil
}

// Seq returns the current (highest) segment sequence number. Stable only
// after Close/Abort; the clean-shutdown snapshot uses it as its watermark.
func (w *Writer) Seq() uint64 { return w.seq.Load() }

// Sequence queues one transaction's records, already framed with its Begin
// record first and its Commit record last, and returns its LSN: once
// Sequence returns, any transaction sequenced later is appended after it.
// It does not wait for the write: the caller keeps txn unmodified until
// Wait(lsn) returns. An error means txn was not queued. Safe for concurrent
// use.
func (w *Writer) Sequence(txn []byte) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrClosed
	}
	if err := w.Err(); err != nil {
		return 0, err
	}
	w.lsn++
	w.reqCh <- commitReq{buf: txn, lsn: w.lsn}
	return w.lsn, nil
}

// Wait blocks until every LSN up to lsn is durable, and returns the error
// that stopped the writer if that will never happen.
func (w *Writer) Wait(lsn uint64) error {
	if w.durable.Load() >= lsn {
		return nil
	}
	w.dmu.Lock()
	defer w.dmu.Unlock()
	for w.durable.Load() < lsn {
		if err := w.Err(); err != nil {
			return err
		}
		w.cond.Wait()
	}
	return nil
}

// Err returns the error that stopped the writer with sequenced commits not
// durable, or nil. Once set it never changes.
func (w *Writer) Err() error {
	if p := w.failed.Load(); p != nil {
		return *p
	}
	return nil
}

// run is the group-commit loop: take one request, drain whatever else is
// already queued (up to GroupMax), write the batch, fsync once, publish.
func (w *Writer) run() {
	defer w.loop.Done()
	batch := make([]commitReq, 0, w.cfg.GroupMax)
	for req := range w.reqCh {
		batch = append(batch[:0], req)
	drain:
		for len(batch) < w.cfg.GroupMax {
			select {
			case more, ok := <-w.reqCh:
				if !ok {
					break drain
				}
				batch = append(batch, more)
			default:
				break drain
			}
		}
		w.flush(batch)
		clear(batch) // drop the buffers the batch held
	}
}

// flush writes and fsyncs one batch, then publishes its last LSN as
// durable. A stopped writer drops the batch.
func (w *Writer) flush(batch []commitReq) {
	if w.Err() != nil {
		return
	}
	if w.aborted.Load() {
		w.stop(ErrClosed)
		return
	}
	if w.size >= w.cfg.SegmentBytes {
		if err := w.openSegment(w.seq.Load() + 1); err != nil {
			w.stop(fmt.Errorf("wal: rotate: %w", err))
			return
		}
	}
	var wrote int64
	for _, r := range batch {
		n, err := w.f.Write(r.buf)
		wrote += int64(n)
		w.size += int64(n)
		if err != nil {
			w.stop(fmt.Errorf("wal: append: %w", err))
			return
		}
	}
	if !w.cfg.NoSync {
		if err := w.fsync(); err != nil {
			// The kernel may have dropped the dirty pages it could not
			// write back, so a later fsync proves nothing about them.
			w.stop(fmt.Errorf("wal: fsync: %w", err))
			return
		}
	}
	if m := w.cfg.Metrics; m != nil {
		m.GroupTxns.Observe(int64(len(batch)))
		m.Commits.Add(int64(len(batch)))
		m.Bytes.Add(wrote)
	}
	w.dmu.Lock()
	w.durable.Store(batch[len(batch)-1].lsn)
	w.cond.Broadcast()
	w.dmu.Unlock()
}

// stop records err as the reason the writer stopped, unless one already
// is, and wakes every waiter.
func (w *Writer) stop(err error) {
	w.dmu.Lock()
	w.failed.CompareAndSwap(nil, &err)
	w.cond.Broadcast()
	w.dmu.Unlock()
}

func (w *Writer) fsync() error {
	m := w.cfg.Metrics
	if m == nil {
		return w.f.Sync()
	}
	start := nowFunc()
	err := w.f.Sync()
	m.FsyncLatency.ObserveSince(start)
	return err
}

// shutdown stops accepting commits and waits for the loop to drain. Every
// request sequenced before shutdown is answered: written and fsynced on the
// graceful path, dropped with ErrClosed after Abort.
func (w *Writer) shutdown() bool {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return false
	}
	w.closed = true
	close(w.reqCh) // no Sequence is mid-send: each sends holding mu
	w.mu.Unlock()
	w.loop.Wait()
	return true
}

// Close drains pending commits, fsyncs the tail, and releases the segment
// file. A commit sequenced before Close becomes durable; one racing with it
// either does or gets ErrClosed from Sequence. A stopped writer returns the error that stopped it.
func (w *Writer) Close() error {
	if !w.shutdown() {
		return ErrClosed
	}
	err := w.Err()
	if err == nil && !w.cfg.NoSync {
		err = w.f.Sync()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Abort is the crash path: stop immediately without draining or fsyncing.
// Pending and future commits fail with ErrClosed — their transactions were
// never durable, exactly as if the process had been SIGKILLed.
func (w *Writer) Abort() {
	w.aborted.Store(true)
	if !w.shutdown() {
		return
	}
	_ = w.f.Close()
}
