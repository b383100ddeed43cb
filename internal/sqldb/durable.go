package sqldb

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"cachegenie/internal/obs"
	"cachegenie/internal/sqlparse"
	"cachegenie/internal/storage"
	"cachegenie/internal/wal"
)

// On-disk layout under Config.DataDir:
//
//	wal/<seq>.wal  — redo log segments (group-commit appended)
//	SNAPSHOT       — full state written by a clean Close (wal record
//	                 stream: meta, then per-table DDL + rows + table meta)
//	EPOCH          — the recovery epoch, bumped on every unclean restart
const (
	walSubdir    = "wal"
	snapshotFile = "SNAPSHOT"
	epochFile    = "EPOCH"
)

// WAL payload record types. The wal package owns Begin/Commit framing;
// these are the engine's redo payloads.
const (
	recInsert    = wal.TypeClient + iota // table + stored row
	recUpdate                            // table + stored new row (pk keyed)
	recDelete                            // table + pk
	recDDL                               // canonical SQL text
	recMeta                              // snapshot only: watermark + nextTxn
	recTableMeta                         // snapshot only: table + nextID
)

func appendTableName(dst []byte, table string) []byte {
	var n2 [2]byte
	binary.LittleEndian.PutUint16(n2[:], uint16(len(table)))
	dst = append(dst, n2[:]...)
	return append(dst, table...)
}

func cutTableName(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, fmt.Errorf("sqldb: wal payload truncated")
	}
	n := int(binary.LittleEndian.Uint16(b))
	if len(b) < 2+n {
		return "", nil, fmt.Errorf("sqldb: wal payload truncated")
	}
	return string(b[2 : 2+n]), b[2+n:], nil
}

func appendU64(dst []byte, v uint64) []byte {
	var n8 [8]byte
	binary.LittleEndian.PutUint64(n8[:], v)
	return append(dst, n8[:]...)
}

// createIndexSQL renders the canonical CREATE INDEX text for redo logging.
func createIndexSQL(ci *sqlparse.CreateIndex) string {
	uniq := ""
	if ci.Unique {
		uniq = "UNIQUE "
	}
	return fmt.Sprintf("CREATE %sINDEX %s ON %s (%s)", uniq, ci.Name, ci.Table, strings.Join(ci.Columns, ", "))
}

// applyRecord applies one redo/snapshot record to the in-memory state via
// the raw table operations: no locks (recovery is single-threaded), no
// triggers (their external effects are handled by the recovery-epoch cache
// flush), no stat counters (replay is not traffic).
func (db *DB) applyRecord(rec wal.Record) error {
	switch rec.Type {
	case recInsert, recUpdate:
		table, rest, err := cutTableName(rec.Payload)
		if err != nil {
			return err
		}
		row, err := DecodeRow(rest)
		if err != nil {
			return err
		}
		t, err := db.table(table)
		if err != nil {
			return err
		}
		if rec.Type == recInsert {
			t.assignPK(row)
			_, err = t.insertRaw(nil, row)
			return err
		}
		old, err := t.getRaw(row[t.schema.PKIndex].I)
		if err != nil {
			return err
		}
		_, err = t.updateRaw(nil, old, row)
		return err
	case recDelete:
		table, rest, err := cutTableName(rec.Payload)
		if err != nil {
			return err
		}
		if len(rest) != 8 {
			return fmt.Errorf("sqldb: bad delete record")
		}
		t, err := db.table(table)
		if err != nil {
			return err
		}
		old, err := t.getRaw(int64(binary.LittleEndian.Uint64(rest)))
		if err != nil {
			return err
		}
		return t.deleteRaw(old)
	case recDDL:
		st, err := db.parse(string(rec.Payload))
		if err != nil {
			return fmt.Errorf("sqldb: replaying DDL %q: %w", rec.Payload, err)
		}
		switch s := st.(type) {
		case *sqlparse.CreateTable:
			_, err := db.createTable(s)
			return err
		case *sqlparse.CreateIndex:
			return db.addIndexFromAST(s)
		}
		return fmt.Errorf("sqldb: replaying DDL: unexpected statement %T", st)
	case recTableMeta:
		table, rest, err := cutTableName(rec.Payload)
		if err != nil {
			return err
		}
		if len(rest) != 8 {
			return fmt.Errorf("sqldb: bad table-meta record")
		}
		t, err := db.table(table)
		if err != nil {
			return err
		}
		if next := int64(binary.LittleEndian.Uint64(rest)); next > t.nextID {
			t.nextID = next
		}
		return nil
	}
	return fmt.Errorf("sqldb: unknown wal record type %d", rec.Type)
}

// RecoveryInfo describes what Open found on disk.
type RecoveryInfo struct {
	// Epoch is the recovery epoch after this open: persisted, and bumped
	// whenever the previous process did not shut down cleanly. The cache
	// tier reacts to an epoch change by flushing, so pre-crash cached
	// values cannot outlive the crash.
	Epoch uint64
	// SnapshotTables/SnapshotRows count state restored from the clean-
	// shutdown snapshot; Replayed* count WAL work past the snapshot.
	SnapshotTables  int
	SnapshotRows    int
	ReplayedTxns    int
	ReplayedRecords int
	// UncommittedTxns counts transactions found in the log without a
	// commit record — discarded by recovery, never visible.
	UncommittedTxns int
	// TornTail reports the log ended in a torn/corrupt record (truncated
	// on recovery to the clean prefix).
	TornTail bool
	// DurationNanos is recovery wall clock.
	DurationNanos int64
}

func readUintFile(path string) (uint64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	return strconv.ParseUint(strings.TrimSpace(string(b)), 10, 64)
}

func writeFileSync(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// openDurable recovers on-disk state and attaches the WAL writer.
func (db *DB) openDurable(cfg Config) error {
	start := time.Now()
	dir := cfg.DataDir
	walDir := filepath.Join(dir, walSubdir)
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return err
	}
	epoch, err := readUintFile(filepath.Join(dir, epochFile))
	if err != nil {
		return fmt.Errorf("sqldb: reading epoch: %w", err)
	}

	info := RecoveryInfo{}
	var through, snapNextTxn uint64
	snapPath := filepath.Join(dir, snapshotFile)
	if _, serr := os.Stat(snapPath); serr == nil {
		fstats, err := wal.ReadFile(snapPath, func(rec wal.Record) error {
			switch rec.Type {
			case recMeta:
				if len(rec.Payload) != 16 {
					return fmt.Errorf("sqldb: bad snapshot meta record")
				}
				through = binary.LittleEndian.Uint64(rec.Payload)
				snapNextTxn = binary.LittleEndian.Uint64(rec.Payload[8:])
				return nil
			case recDDL:
				if strings.HasPrefix(string(rec.Payload), "CREATE TABLE") {
					info.SnapshotTables++
				}
			case recInsert:
				info.SnapshotRows++
			}
			return db.applyRecord(rec)
		})
		if err != nil {
			return fmt.Errorf("sqldb: loading snapshot: %w", err)
		}
		if fstats.Torn {
			// The snapshot is written to a temp file and renamed, so a
			// tear here is real corruption, not a crash artifact.
			return fmt.Errorf("sqldb: snapshot %s is corrupt", snapPath)
		}
	} else if !os.IsNotExist(serr) {
		return serr
	}

	rstats, err := wal.ReplayCommitted(walDir, through, true, func(txn int64, recs []wal.Record) error {
		for _, rec := range recs {
			if err := db.applyRecord(rec); err != nil {
				return fmt.Errorf("sqldb: replaying txn %d: %w", txn, err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Segments fully absorbed by the snapshot watermark can linger if the
	// previous clean shutdown crashed between snapshot rename and segment
	// removal; they are dead weight, not evidence of an unclean run.
	if segs, err := wal.ListSegments(walDir); err == nil {
		for _, s := range segs {
			if s.Seq <= through {
				_ = os.Remove(s.Path)
			}
		}
	}

	// Any segment past the watermark means the previous process died with
	// the WAL attached (a clean Close removes them all): bump the epoch so
	// the cache tier knows to flush. First-ever open initializes to 1.
	unclean := rstats.Segments > 0 || rstats.TornTail
	if epoch == 0 {
		epoch = 1
		unclean = true // force the initial persist below
	} else if unclean {
		epoch++
	}
	if unclean {
		if err := writeFileSync(filepath.Join(dir, epochFile), []byte(strconv.FormatUint(epoch, 10))); err != nil {
			return fmt.Errorf("sqldb: persisting epoch: %w", err)
		}
	}

	if next := int64(snapNextTxn); next > db.nextTxn.Load() {
		db.nextTxn.Store(next)
	}
	if rstats.MaxTxn > db.nextTxn.Load() {
		db.nextTxn.Store(rstats.MaxTxn)
	}

	startSeq := rstats.LastSeq
	if through > startSeq {
		startSeq = through
	}
	metrics := &wal.Metrics{}
	w, err := wal.NewWriter(wal.Config{
		Dir:          walDir,
		SegmentBytes: cfg.WALSegmentBytes,
		GroupMax:     cfg.WALGroupMax,
		NoSync:       cfg.WALNoSync,
		Metrics:      metrics,
	}, startSeq+1)
	if err != nil {
		return err
	}

	info.Epoch = epoch
	info.ReplayedTxns = rstats.Txns
	info.ReplayedRecords = rstats.Records
	info.UncommittedTxns = rstats.Uncommitted
	info.TornTail = rstats.TornTail
	info.DurationNanos = time.Since(start).Nanoseconds()
	db.wal = w
	db.walMetrics = metrics
	db.dataDir = dir
	db.epoch.Store(epoch)
	db.recovery = info
	return nil
}

// Epoch returns the persisted recovery epoch (0 on a memory-only DB).
func (db *DB) Epoch() uint64 { return db.epoch.Load() }

// Recovery returns what Open found on disk (zero value on a memory-only
// DB).
func (db *DB) Recovery() RecoveryInfo { return db.recovery }

// DataDir returns the durable data directory ("" on a memory-only DB).
func (db *DB) DataDir() string { return db.dataDir }

// RegisterMetrics exposes the engine's lock waits and, on a durable DB, its
// durability instrumentation (WAL fsync latency, group-commit size,
// commit/byte counters, recovery info) on reg.
func (db *DB) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("cachegenie_db_lock_waits_total", "",
		"table lock requests that waited", func() int64 { return db.Stats().LockWaits })
	reg.CounterFunc("cachegenie_db_lock_wait_seconds_total", "",
		"time table lock requests spent waiting", func() int64 { return db.Stats().LockWaitNanos })
	if db.walMetrics == nil {
		return
	}
	db.walMetrics.Register(reg)
	reg.GaugeFunc("cachegenie_db_recovery_epoch", "",
		"recovery epoch; a bump means the cache tier must flush", func() int64 {
			return int64(db.Epoch())
		})
	reg.GaugeFunc("cachegenie_db_recovery_seconds", "",
		"wall clock the last Open spent in snapshot load + WAL replay", func() int64 {
			return db.recovery.DurationNanos
		})
}

// Crash simulates a kill -9 for tests and drills: the WAL writer is
// abandoned without draining, fsyncing, or snapshotting, and in-flight
// commits fail as if the process had died. In-memory state is left as-is;
// callers discard the handle.
func (db *DB) Crash() {
	if db.wal != nil && db.closed.CompareAndSwap(false, true) {
		db.wal.Abort()
	}
}

// Close shuts a durable DB down cleanly: drain and fsync the group-commit
// writer, write a full-state snapshot with the WAL watermark, then drop the
// absorbed segments. A subsequent Open restores from the snapshot and
// replays zero records. On a memory-only DB Close is a no-op.
func (db *DB) Close() error {
	if db.wal == nil || !db.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := db.wal.Close()
	if db.wal.Err() != nil {
		// Fail-stop: memory may hold commits the log lost. Keep the log as
		// the durable state and write no snapshot of memory.
		return err
	}
	through := db.wal.Seq()
	if serr := db.writeSnapshot(through); serr != nil {
		// Keep the WAL segments: the snapshot failed, so they are still
		// the only durable copy of post-previous-snapshot commits.
		if err == nil {
			err = serr
		}
		return err
	}
	walDir := filepath.Join(db.dataDir, walSubdir)
	if segs, lerr := wal.ListSegments(walDir); lerr == nil {
		for _, s := range segs {
			if s.Seq <= through {
				_ = os.Remove(s.Path)
			}
		}
	}
	return err
}

// writeSnapshot serializes full state as a wal record stream to a temp
// file, fsyncs it, and renames it over SNAPSHOT. Ordering per table: DDL
// first (table, then indexes), rows, then table meta so restored nextID
// survives deleted-high-pk histories.
func (db *DB) writeSnapshot(through uint64) error {
	db.mu.RLock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)

	buf := wal.AppendRecord(nil, wal.Record{
		Type:    recMeta,
		Payload: appendU64(appendU64(nil, through), uint64(db.nextTxn.Load())),
	})
	var scanErr error
	for _, name := range names {
		t := db.tables[name]
		buf = wal.AppendRecord(buf, wal.Record{Type: recDDL, Payload: []byte(t.schema.String())})
		for _, ix := range t.indexes {
			sql := createIndexSQL(&sqlparse.CreateIndex{
				Name: ix.Name, Table: name, Columns: ix.ColNames(t.schema), Unique: ix.Unique,
			})
			buf = wal.AppendRecord(buf, wal.Record{Type: recDDL, Payload: []byte(sql)})
		}
		scanErr = t.heap.Scan(func(_ storage.RecordID, rec []byte) bool {
			buf = wal.AppendRecord(buf, wal.Record{
				Type:    recInsert,
				Payload: append(appendTableName(nil, name), rec...), // a heap record is the row's encodeRow
			})
			return true
		})
		if scanErr != nil {
			break
		}
		buf = wal.AppendRecord(buf, wal.Record{
			Type:    recTableMeta,
			Payload: appendU64(appendTableName(nil, name), uint64(t.nextID)),
		})
	}
	db.mu.RUnlock()
	if scanErr != nil {
		return scanErr
	}
	return writeFileSync(filepath.Join(db.dataDir, snapshotFile), buf)
}
