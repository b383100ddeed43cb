// Package loadctl is the control plane for coordinated distributed load
// generation: one coordinator phases N worker processes through a measured
// run in lockstep and merges their results into true aggregate statistics.
//
// The cache tier outruns any single genieload process on a one-core client
// box, so saturation numbers need many client machines acting as one
// instrument. That takes three things a lone process gets for free:
// everyone measuring the same window (barriers), one workload spec
// (broadcast), and one latency distribution (per-worker obs.HistSnapshots
// shipped back and merged exact-bucket, so the aggregate p50/p99/p999 equal
// what a single process observing every op would have computed).
//
// The wire protocol reuses cacheproto's idiom — line-based text framing with
// length-prefixed payload blocks — over one TCP connection per worker:
//
//	worker → coordinator:  JOIN <id>
//	coordinator → worker:  SPEC <n>\r\n<n bytes of JSON Spec>\r\n
//	worker → coordinator:  READY <phase>          (barrier arrival)
//	                       ERR <phase> <message>  (abort the whole run)
//	coordinator → worker:  GO <phase>             (barrier release)
//	                       ABORT <message>
//	worker → coordinator:  RESULT <n>\r\n<n bytes of JSON Result>\r\n
//	coordinator → worker:  BYE
//
// Phases run warmup → measure → drain. The drain barrier guarantees every
// worker has stopped generating load before any worker tears down, so one
// worker's teardown can never pollute another's measured tail. A worker
// that dies mid-run (its connection drops) or hangs past a barrier timeout
// aborts the whole run: every surviving worker gets ABORT and the
// coordinator exits non-zero — a partial "aggregate" is worse than none.
package loadctl

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"

	"cachegenie/internal/obs"
)

// Phases, in run order. Prepare is not a barrier — it is the worker-local
// setup (dialing the cache tier) between SPEC and the warmup barrier; its
// name appears in ERR lines when that setup fails.
const (
	PhasePrepare = "prepare"
	PhaseWarmup  = "warmup"
	PhaseMeasure = "measure"
	PhaseDrain   = "drain"
)

// maxLineBytes bounds a control line. Control lines are tens of bytes; a
// longer one is a confused or malicious peer, not a bigger workload.
const maxLineBytes = 4096

// maxPayloadBytes bounds a SPEC/RESULT block. A Result is dominated by the
// sparse histogram encoding (a few KiB); 16 MiB is beyond any honest use.
const maxPayloadBytes = 16 << 20

// Spec is the workload the coordinator broadcasts: every worker runs the
// same experiment against the same cache tier, distinguished only by its
// WorkerIndex (which carves it a private write slice of the keyspace and
// seeds its RNG). Durations travel as integer milliseconds so the JSON is
// stable across platforms.
type Spec struct {
	Experiment string `json:"experiment"`
	// Workers and WorkerIndex are filled by the coordinator per worker:
	// index i of n, in join order.
	Workers     int `json:"workers"`
	WorkerIndex int `json:"worker_index"`
	// Clients is the number of concurrent client goroutines per worker.
	Clients   int   `json:"clients"`
	WarmupMs  int64 `json:"warmup_ms"`
	MeasureMs int64 `json:"measure_ms"`
	// Keys is the global keyspace size. Worker i owns the contiguous write
	// slice KeyRange() of it; reads roam the whole keyspace, which is why
	// the warmup barrier matters — every key has been written by its owner
	// before anyone's measured reads begin.
	Keys       int   `json:"keys"`
	ValueBytes int   `json:"value_bytes"`
	WritePct   int   `json:"write_pct"`
	Seed       int64 `json:"seed"`
	// CacheAddrs is the tier under test (externally launched, e.g.
	// geniecache -nodes N); Replicas is the client-side ring replication
	// factor to route with.
	CacheAddrs []string `json:"cache_addrs"`
	Replicas   int      `json:"replicas"`
}

// WarmupDuration returns the warmup phase length.
func (s Spec) WarmupDuration() time.Duration { return time.Duration(s.WarmupMs) * time.Millisecond }

// MeasureDuration returns the measure phase length.
func (s Spec) MeasureDuration() time.Duration { return time.Duration(s.MeasureMs) * time.Millisecond }

// KeyRange returns this worker's owned slice [lo, hi) of the global
// keyspace — the keys it seeds during warmup and writes to during measure.
// Slices partition [0, Keys) exactly across Workers.
func (s Spec) KeyRange() (lo, hi int) {
	if s.Workers <= 0 {
		return 0, s.Keys
	}
	lo = s.WorkerIndex * s.Keys / s.Workers
	hi = (s.WorkerIndex + 1) * s.Keys / s.Workers
	return lo, hi
}

// Result is one worker's measured contribution, shipped back over the
// control connection after the drain barrier. Hist is the worker's per-op
// latency distribution; its compact text encoding (obs.HistSnapshot's
// TextMarshaler) rides inside the JSON and merges exact-bucket on the
// coordinator.
type Result struct {
	WorkerID    string           `json:"worker_id"`
	WorkerIndex int              `json:"worker_index"`
	Ops         int64            `json:"ops"`
	Errors      int64            `json:"errors"`
	Hits        int64            `json:"hits"`
	Misses      int64            `json:"misses"`
	ElapsedNs   int64            `json:"elapsed_ns"`
	Hist        obs.HistSnapshot `json:"hist"`
}

// OpsPerSec is the worker's own throughput over its own measured window.
func (r Result) OpsPerSec() float64 {
	if r.ElapsedNs <= 0 {
		return 0
	}
	return float64(r.Ops) / (float64(r.ElapsedNs) / 1e9)
}

// Merged is the coordinator's aggregate view of one run.
type Merged struct {
	Spec    Spec
	Results []Result
	// Hist is the exact-bucket merge of every worker's distribution: its
	// quantiles are identical to what a single process observing all ops
	// would have reported.
	Hist obs.HistSnapshot
	// Ops/Errors/Hits/Misses sum across workers.
	Ops, Errors, Hits, Misses int64
	// Elapsed is the slowest worker's measured window; with barriers the
	// windows coincide, so total ops over it is the honest aggregate rate.
	Elapsed time.Duration
	// AggOpsPerSec is the tier's aggregate throughput; the whole point of
	// distribution is that it exceeds BestWorkerOpsPerSec.
	AggOpsPerSec        float64
	BestWorkerOpsPerSec float64
	BestWorkerID        string
}

// HitRate is merged read hits over reads (0 when no reads ran).
func (m *Merged) HitRate() float64 {
	if m.Hits+m.Misses == 0 {
		return 0
	}
	return float64(m.Hits) / float64(m.Hits+m.Misses)
}

// mergeResults folds per-worker results into the aggregate.
func mergeResults(spec Spec, results []Result) *Merged {
	m := &Merged{Spec: spec, Results: results}
	for _, r := range results {
		m.Hist.Add(r.Hist)
		m.Ops += r.Ops
		m.Errors += r.Errors
		m.Hits += r.Hits
		m.Misses += r.Misses
		if d := time.Duration(r.ElapsedNs); d > m.Elapsed {
			m.Elapsed = d
		}
		if ops := r.OpsPerSec(); ops > m.BestWorkerOpsPerSec {
			m.BestWorkerOpsPerSec = ops
			m.BestWorkerID = r.WorkerID
		}
	}
	if m.Elapsed > 0 {
		m.AggOpsPerSec = float64(m.Ops) / m.Elapsed.Seconds()
	}
	return m
}

// ctlWriteTimeout bounds one control-plane write+flush. Control messages
// are small (a line, or a histogram payload of a few KB), so a peer that
// can't drain them within this window is wedged, not slow.
const ctlWriteTimeout = 30 * time.Second

// ctlConn frames control lines and payload blocks over one TCP connection.
// Both ends use it; every read and write arms a deadline so a dead or
// wedged peer surfaces as a timeout error instead of a hang.
type ctlConn struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

func newCtlConn(c net.Conn) *ctlConn {
	return &ctlConn{conn: c, r: bufio.NewReaderSize(c, maxLineBytes), w: bufio.NewWriter(c)}
}

func (c *ctlConn) close() { _ = c.conn.Close() }

// sendLine writes one space-joined control line and flushes.
func (c *ctlConn) sendLine(parts ...string) error {
	_ = c.conn.SetWriteDeadline(time.Now().Add(ctlWriteTimeout))
	for i, p := range parts {
		if i > 0 {
			c.w.WriteByte(' ')
		}
		c.w.WriteString(p)
	}
	c.w.WriteString("\r\n")
	return c.w.Flush()
}

// sendPayload writes "<verb> <n>\r\n<n bytes>\r\n" and flushes.
func (c *ctlConn) sendPayload(verb string, body []byte) error {
	_ = c.conn.SetWriteDeadline(time.Now().Add(ctlWriteTimeout))
	c.w.WriteString(verb)
	c.w.WriteByte(' ')
	c.w.WriteString(strconv.Itoa(len(body)))
	c.w.WriteString("\r\n")
	c.w.Write(body)
	c.w.WriteString("\r\n")
	return c.w.Flush()
}

// readFields reads one control line within timeout and splits it. A line
// that outgrows the read buffer is malformed by definition (maxLineBytes),
// surfaced as an error rather than resynchronized — control framing, like
// cacheproto's, is not recoverable mid-stream.
func (c *ctlConn) readFields(timeout time.Duration) ([]string, error) {
	_ = c.conn.SetReadDeadline(time.Now().Add(timeout))
	line, err := c.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		return nil, fmt.Errorf("loadctl: control line exceeds %d bytes", maxLineBytes)
	}
	if err != nil {
		return nil, err
	}
	fields := strings.Fields(strings.TrimRight(string(line), "\r\n"))
	if len(fields) == 0 {
		return nil, fmt.Errorf("loadctl: empty control line")
	}
	return fields, nil
}

// readPayload reads the sized block that follows a "<verb> <n>" line, plus
// its trailing \r\n, within timeout. sizeField is the already-parsed-out
// size token from the verb line.
func (c *ctlConn) readPayload(sizeField string, timeout time.Duration) ([]byte, error) {
	n, err := strconv.Atoi(sizeField)
	if err != nil || n < 0 || n > maxPayloadBytes {
		return nil, fmt.Errorf("loadctl: bad payload size %q", sizeField)
	}
	_ = c.conn.SetReadDeadline(time.Now().Add(timeout))
	body := make([]byte, n+2)
	if _, err := io.ReadFull(c.r, body); err != nil {
		return nil, fmt.Errorf("loadctl: payload truncated: %w", err)
	}
	if body[n] != '\r' || body[n+1] != '\n' {
		return nil, fmt.Errorf("loadctl: payload unterminated")
	}
	return body[:n], nil
}

// sanitizeMsg flattens an error message onto one control line (the framing
// is line-based; an embedded newline would desync the stream).
func sanitizeMsg(msg string) string {
	msg = strings.ReplaceAll(msg, "\r", "")
	msg = strings.ReplaceAll(msg, "\n", "; ")
	if len(msg) > maxLineBytes/2 {
		msg = msg[:maxLineBytes/2] + "..."
	}
	return msg
}
