package bench

import (
	"runtime"
	"syscall"

	"cachegenie/internal/obs"
)

// counters is a flat snapshot of every cumulative count the layers expose.
// The harness only ever reports differences between two snapshots taken
// immediately before and after a measured window: seeding and warm-up alone
// leave six-figure values in several of these.
type counters map[string]int64

// sub returns c minus prev, key by key.
func (c counters) sub(prev counters) counters {
	out := make(counters, len(c))
	for k, v := range c {
		out[k] = v - prev[k]
	}
	return out
}

// snapshot is counters plus the one distribution taken as an interval.
type snapshot struct {
	c     counters
	fsync obs.HistSnapshot
}

const (
	walFsyncHist = "cachegenie_wal_fsync_seconds"
	walCommits   = "cachegenie_wal_commits_total"
	walBytes     = "cachegenie_wal_appended_bytes_total"
)

// snapshot reads every layer's counters. It stops the world briefly
// (ReadMemStats), so it is taken outside the timed region.
func (st *stack) snapshot() snapshot {
	c := counters{}
	g := st.genie.Stats()
	c["genie.hits"], c["genie.misses"] = g.Hits, g.Misses
	c["genie.trigger_updates"], c["genie.trigger_deletes"], c["genie.trigger_skips"] =
		g.TriggerUpdates, g.TriggerDeletes, g.TriggerSkips
	c["genie.recomputes"], c["genie.cas_retries"], c["genie.populate_refused"] =
		g.Recomputes, g.CasRetries, g.PopulateRefused

	b := st.genie.InvStats()
	c["bus.enqueued"], c["bus.applied"], c["bus.coalesced"], c["bus.flushes"] =
		b.Enqueued, b.Applied, b.Coalesced, b.Flushes
	c["bus.queue_full_stalls"], c["bus.stall_ns"] = b.QueueFullStalls, int64(b.StallTime)

	for _, s := range st.stores {
		x := s.Stats()
		c["store.hits"] += x.Hits
		c["store.misses"] += x.Misses
		c["store.sets"] += x.Sets
		c["store.evictions"] += x.Evictions
		c["store.cas_conflicts"] += x.CasConflicts
	}

	d := st.db.Stats()
	c["db.inserts"], c["db.triggers_fired"], c["db.txns_aborted"] = d.Inserts, d.TriggersFired, d.TxnsAborted
	bp := st.db.BufferPool().Stats()
	c["bufferpool.hits"], c["bufferpool.misses"] = bp.Hits, bp.Misses

	for _, p := range st.pools {
		x := p.Stats()
		c["pool.dials"] += x.Dials
		c["pool.checkouts"] += x.Dials + x.Reuses
		c["pool.waits"] += x.Waits
		c["pool.failfast"] += x.FailFast
		l1 := p.L1Stats()
		c["l1.hits"] += l1.Hits
		c["l1.misses"] += l1.Misses
	}
	if st.ring != nil {
		r := st.ring.ReplicaStats()
		c["ring.failover_reads"], c["ring.read_repairs"] = r.FailoverReads, r.ReadRepairs
	}

	c["conn.queries"], c["conn.execs"] = st.conn.queries.Load(), st.conn.execs.Load()
	if st.icept != nil {
		c["orm.offered"] = st.icept.offered.Load()
	}

	reg := st.metrics.Snapshot()
	c["wal.commits"], c["wal.bytes"] = reg.Counters[walCommits], reg.Counters[walBytes]
	var fsync obs.HistSnapshot
	st.metrics.VisitHistograms(func(name, _ string, h *obs.Histogram) {
		if name == walFsyncHist {
			fsync = h.Snapshot()
		}
	})
	c["wal.fsyncs"] = int64(fsync.Count)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c["mem.mallocs"], c["mem.gc_cycles"], c["mem.gc_pause_ns"] =
		int64(ms.Mallocs), int64(ms.NumGC), int64(ms.PauseTotalNs)
	c["cpu.ns"] = processCPU()
	return snapshot{c: c, fsync: fsync}
}

// processCPU is the process's user+system CPU time in nanoseconds: the
// whole stack's cost, in-process cache servers and database included.
func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
