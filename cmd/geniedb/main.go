// Command geniedb runs the database engine as a standalone TCP server,
// playing the role of the paper's PostgreSQL machine. Schemas are created
// by clients over the wire.
//
// With -data-dir the engine is durable: committed transactions are group-
// committed to a segmented WAL, a restart replays to the last complete
// commit record, and an unclean shutdown bumps the recovery epoch that
// clients read over dbproto (and react to by flushing their cache tier).
// On SIGTERM/SIGINT the server drains connections, then the WAL writer
// fsyncs its tail and a snapshot absorbs the log, so a clean restart
// replays zero records.
//
// Usage:
//
//	geniedb -addr :15432 -pool-pages 4096
//	geniedb -addr :15432 -data-dir /var/lib/geniedb
//	geniedb -addr :15432 -data-dir d -drill-schema -cache-addrs :15501,:15502
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cachegenie/internal/cacheproto"
	"cachegenie/internal/cluster"
	"cachegenie/internal/dbproto"
	"cachegenie/internal/kvcache"
	"cachegenie/internal/obs"
	"cachegenie/internal/sqldb"
	"cachegenie/internal/workload"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:15432", "listen address")
	poolPages := flag.Int("pool-pages", 4096, "buffer pool capacity in 8KiB pages")
	lockTimeout := flag.Duration("lock-timeout", 5*time.Second, "lock wait timeout")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus /metrics, /metrics.json, /healthz and /debug/pprof on this address (empty = disabled)")
	dataDir := flag.String("data-dir", "", "durable data directory: WAL group commit + snapshot, crash recovery on start (empty = memory-only)")
	walSegBytes := flag.Int64("wal-segment-bytes", 0, "WAL segment rotation threshold (0 = default 64MiB)")
	walGroupMax := flag.Int("wal-group-max", 0, "max transactions coalesced per WAL fsync (0 = default)")
	walNoSync := flag.Bool("wal-nosync", false, "skip WAL fsyncs (crash-unsafe; for measuring fsync cost)")
	ioTimeout := flag.Duration("io-timeout", 0, "per-request dbproto I/O budget once a request starts arriving (0 = server default 30s)")
	drillSchema := flag.Bool("drill-schema", false, "install the exp12 crash-drill tables and cache-maintenance triggers (needs -cache-addrs)")
	cacheAddrs := flag.String("cache-addrs", "", "comma-separated geniecache addresses the drill triggers maintain")
	crashAfter := flag.Duration("crash-after", 0, "self-SIGKILL this long after start (crash-drill utility; 0 = off)")
	flag.Parse()

	db, err := sqldb.Open(sqldb.Config{
		BufferPoolPages: *poolPages,
		LockTimeout:     *lockTimeout,
		DataDir:         *dataDir,
		WALSegmentBytes: *walSegBytes,
		WALGroupMax:     *walGroupMax,
		WALNoSync:       *walNoSync,
	})
	if err != nil {
		log.Fatalf("geniedb: open: %v", err)
	}
	if *dataDir != "" {
		rec := db.Recovery()
		fmt.Printf("recovered %s: epoch %d, snapshot %d tables/%d rows, replayed %d txns (%d records, %d uncommitted discarded, torn=%v) in %v\n",
			*dataDir, rec.Epoch, rec.SnapshotTables, rec.SnapshotRows,
			rec.ReplayedTxns, rec.ReplayedRecords, rec.UncommittedTxns, rec.TornTail,
			time.Duration(rec.DurationNanos).Round(time.Microsecond))
	}

	if *drillSchema {
		tier, err := drillCache(*cacheAddrs)
		if err != nil {
			log.Fatalf("geniedb: drill schema: %v", err)
		}
		if err := workload.InstallDrillSchema(db, tier); err != nil {
			log.Fatalf("geniedb: drill schema: %v", err)
		}
		fmt.Printf("drill schema installed: %d tables with cache triggers\n", workload.DrillTables)
	}

	srv := dbproto.NewServer(db)
	if *ioTimeout > 0 {
		srv.IOTimeout = *ioTimeout
	}
	bound, err := srv.Listen(*addr)
	if err != nil {
		log.Fatalf("geniedb: %v", err)
	}
	fmt.Printf("geniedb listening on %s (pool %d pages)\n", bound, *poolPages)

	if *crashAfter > 0 {
		// Self-inflicted SIGKILL stand-in for drills that cannot arrange an
		// external kill: exit without any draining or fsync.
		time.AfterFunc(*crashAfter, func() { os.Exit(137) })
	}

	if *metricsAddr != "" {
		reg := obs.NewRegistry()
		view := func(f func(sqldb.Stats) int64) func() int64 {
			return func() int64 { return f(db.Stats()) }
		}
		reg.CounterFunc("cachegenie_db_selects_total", "", "SELECT statements executed.", view(func(s sqldb.Stats) int64 { return s.Selects }))
		reg.CounterFunc("cachegenie_db_inserts_total", "", "INSERT statements executed.", view(func(s sqldb.Stats) int64 { return s.Inserts }))
		reg.CounterFunc("cachegenie_db_updates_total", "", "UPDATE statements executed.", view(func(s sqldb.Stats) int64 { return s.Updates }))
		reg.CounterFunc("cachegenie_db_deletes_total", "", "DELETE statements executed.", view(func(s sqldb.Stats) int64 { return s.Deletes }))
		reg.CounterFunc("cachegenie_db_triggers_fired_total", "", "Invalidation triggers fired.", view(func(s sqldb.Stats) int64 { return s.TriggersFired }))
		reg.CounterFunc("cachegenie_db_txns_committed_total", "", "Transactions committed.", view(func(s sqldb.Stats) int64 { return s.TxnsCommitted }))
		reg.CounterFunc("cachegenie_db_txns_aborted_total", "", "Transactions aborted.", view(func(s sqldb.Stats) int64 { return s.TxnsAborted }))
		db.RegisterMetrics(reg)
		ms, err := obs.Serve(*metricsAddr, reg, nil)
		if err != nil {
			log.Fatalf("geniedb: %v", err)
		}
		defer ms.Close()
		fmt.Printf("metrics on http://%s/metrics (pprof under /debug/pprof/)\n", ms.Addr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	st := db.Stats()
	fmt.Printf("shutting down: %d selects, %d inserts, %d updates, %d deletes, %d triggers fired\n",
		st.Selects, st.Inserts, st.Updates, st.Deletes, st.TriggersFired)
	if err := srv.Close(); err != nil {
		log.Fatalf("geniedb: close: %v", err)
	}
	// Connections are drained; now drain the group-commit writer, fsync the
	// WAL tail and absorb it into a snapshot so the next start replays
	// nothing and keeps the same epoch.
	if err := db.Close(); err != nil {
		log.Fatalf("geniedb: db close: %v", err)
	}
}

// drillCache assembles the cache tier the drill triggers maintain: a
// consistent-hash ring over the given cacheproto nodes, or an in-process
// store when no addresses are given (single-process experiments).
func drillCache(addrList string) (kvcache.Cache, error) {
	var addrs []string
	for _, a := range strings.Split(addrList, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return kvcache.New(0), nil
	}
	if err := workload.PreflightCacheAddrs(addrs, 5*time.Second); err != nil {
		return nil, err
	}
	nodes := make([]kvcache.Cache, len(addrs))
	for i, a := range addrs {
		nodes[i] = cacheproto.NewPool(a, 4)
	}
	return cluster.NewRingIDs(addrs, nodes)
}
