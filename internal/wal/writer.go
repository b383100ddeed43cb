package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// ErrClosed is returned by Commit after the writer has been closed or
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

// commitReq is one Commit waiting on the loop; it travels by value, and done
// is unbuffered, since its committer is already waiting on it.
type commitReq struct {
	buf  []byte
	done chan error
}

// Writer is the group-commit appender. Concurrent Commit calls funnel into
// a single goroutine that batches their records into the current segment
// and issues one fsync per batch; every committer in the batch shares that
// fsync's durability.
type Writer struct {
	cfg   Config
	reqCh chan commitReq

	mu      sync.Mutex // guards closed, pairs sender entry with shutdown
	closed  bool
	senders sync.WaitGroup
	loop    sync.WaitGroup
	aborted atomic.Bool

	// Loop-goroutine state; read by others only after Close/Abort.
	f    *os.File
	size int64
	seq  atomic.Uint64
}

// NewWriter opens the writer appending to a fresh segment numbered
// startSeq. Recovery passes the sequence after the last segment on disk so
// a reborn writer never appends into a segment replay has already
// consumed.
func NewWriter(cfg Config, startSeq uint64) (*Writer, error) {
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
	}
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

// Commit appends one transaction's records, already framed with its Begin
// record first and its Commit record last, and blocks until they are durable
// (fsynced, possibly as part of a larger group). The writer reads txn only
// until Commit returns. Safe for concurrent use.
func (w *Writer) Commit(txn []byte) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	w.senders.Add(1)
	w.mu.Unlock()
	req := commitReq{buf: txn, done: make(chan error)}
	w.reqCh <- req
	w.senders.Done()
	return <-req.done
}

// run is the group-commit loop: take one request, drain whatever else is
// already queued (up to GroupMax), write the batch, fsync once, answer
// everyone.
func (w *Writer) run() {
	defer w.loop.Done()
	for req := range w.reqCh {
		batch := []commitReq{req}
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
	}
}

// flush writes and fsyncs one batch, then answers its committers.
func (w *Writer) flush(batch []commitReq) {
	if w.aborted.Load() {
		for _, r := range batch {
			r.done <- ErrClosed
		}
		return
	}
	if w.size >= w.cfg.SegmentBytes {
		if err := w.openSegment(w.seq.Load() + 1); err != nil {
			for _, r := range batch {
				r.done <- err
			}
			return
		}
	}
	var err error
	var wrote int64
	for _, r := range batch {
		if err == nil {
			_, werr := w.f.Write(r.buf)
			if werr != nil {
				err = fmt.Errorf("wal: append: %w", werr)
			} else {
				wrote += int64(len(r.buf))
			}
		}
	}
	w.size += wrote
	if err == nil && !w.cfg.NoSync {
		err = w.fsync()
	}
	if m := w.cfg.Metrics; m != nil {
		m.GroupTxns.Observe(int64(len(batch)))
		if err == nil {
			m.Commits.Add(int64(len(batch)))
			m.Bytes.Add(wrote)
		}
	}
	for _, r := range batch {
		r.done <- err
	}
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
// request enqueued before shutdown is answered: written and fsynced on the
// graceful path, ErrClosed after Abort.
func (w *Writer) shutdown() bool {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return false
	}
	w.closed = true
	w.mu.Unlock()
	w.senders.Wait()
	close(w.reqCh)
	w.loop.Wait()
	return true
}

// Close drains pending commits, fsyncs the tail, and releases the segment
// file. Commit calls racing with Close either complete durably or return
// ErrClosed.
func (w *Writer) Close() error {
	if !w.shutdown() {
		return ErrClosed
	}
	var err error
	if !w.cfg.NoSync {
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
