package wal

import (
	"time"

	"cachegenie/internal/obs"
)

// nowFunc is indirected for tests that pin fsync timing.
var nowFunc = time.Now

// Metric names, under the repo's cachegenie_* naming rules.
const (
	metricFsyncSeconds  = "cachegenie_wal_fsync_seconds"
	metricGroupTxns     = "cachegenie_wal_group_commit_txns"
	metricCommitsTotal  = "cachegenie_wal_commits_total"
	metricBytesTotal    = "cachegenie_wal_appended_bytes_total"
	metricSegmentsTotal = "cachegenie_wal_segments_opened_total"
)

// Metrics is the writer's always-on instrumentation block. The zero value
// is usable; Register exposes it on an obs.Registry.
type Metrics struct {
	// FsyncLatency is per-group fsync latency in nanoseconds.
	FsyncLatency obs.Histogram
	// GroupTxns is the number of commits each fsync absorbed — the group
	// commit amortization factor.
	GroupTxns obs.Histogram
	// Commits counts durably committed transactions; Bytes counts log
	// bytes appended; Segments counts segment files opened.
	Commits  obs.Counter
	Bytes    obs.Counter
	Segments obs.Counter
}

// Register exposes the metrics on reg (nil-safe).
func (m *Metrics) Register(reg *obs.Registry) {
	if m == nil || reg == nil {
		return
	}
	reg.RegisterHistogram(metricFsyncSeconds, "",
		"WAL group-commit fsync latency", &m.FsyncLatency)
	reg.RegisterHistogram(metricGroupTxns, "",
		"transactions coalesced per WAL fsync", &m.GroupTxns)
	reg.CounterFunc(metricCommitsTotal, "",
		"transactions durably committed to the WAL", m.Commits.Load)
	reg.CounterFunc(metricBytesTotal, "",
		"bytes appended to the WAL", m.Bytes.Load)
	reg.CounterFunc(metricSegmentsTotal, "",
		"WAL segment files opened", m.Segments.Load)
}
