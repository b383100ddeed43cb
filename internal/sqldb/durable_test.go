package sqldb

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"cachegenie/internal/wal"
)

// durableCfg returns a config for a durable engine in a fresh temp dir.
// WALNoSync keeps tests fast: a simulated crash abandons the process, not
// the kernel, so written-but-unsynced bytes are still in the files.
func durableCfg(t testing.TB) Config {
	t.Helper()
	return Config{DataDir: t.TempDir(), WALNoSync: true}
}

func openDurable(t testing.TB, cfg Config) *DB {
	t.Helper()
	db, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open(%s): %v", cfg.DataDir, err)
	}
	return db
}

// seedItems creates the table and autocommits n inserts val "v1".."vn"
// (ids 1..n).
func seedItems(t testing.TB, db *DB, n int) {
	t.Helper()
	if _, err := db.Schema("items"); err != nil {
		mustExec(t, db, "CREATE TABLE items (val TEXT)")
	}
	for i := 1; i <= n; i++ {
		mustExec(t, db, "INSERT INTO items (val) VALUES ($1)", Str(fmt.Sprintf("v%d", i)))
	}
}

// itemsPrefix asserts the items table holds exactly ids 1..k with matching
// values for some k, and returns k.
func itemsPrefix(t testing.TB, db *DB) int {
	t.Helper()
	rs, err := db.Query("SELECT id, val FROM items")
	if err != nil {
		t.Fatalf("scan items: %v", err)
	}
	seen := make(map[int64]string, len(rs.Rows))
	for _, row := range rs.Rows {
		seen[row[0].I] = row[1].S
	}
	for i := int64(1); i <= int64(len(seen)); i++ {
		want := fmt.Sprintf("v%d", i)
		if got, ok := seen[i]; !ok || got != want {
			t.Fatalf("items is not an exact commit prefix: id %d = %q (want %q); %d rows total",
				i, got, want, len(seen))
		}
	}
	return len(seen)
}

func TestDurableCrashRecoversExactCommitPrefix(t *testing.T) {
	cfg := durableCfg(t)
	db := openDurable(t, cfg)
	if got := db.Epoch(); got != 1 {
		t.Fatalf("fresh epoch = %d, want 1", got)
	}
	seedItems(t, db, 20)
	db.Crash()

	db2 := openDurable(t, cfg)
	defer db2.Close()
	if got := itemsPrefix(t, db2); got != 20 {
		t.Fatalf("recovered %d rows, want 20", got)
	}
	rec := db2.Recovery()
	// 21 transactions: CREATE TABLE plus 20 inserts.
	if rec.ReplayedTxns != 21 {
		t.Fatalf("ReplayedTxns = %d, want 21", rec.ReplayedTxns)
	}
	if got := db2.Epoch(); got != 2 {
		t.Fatalf("epoch after crash recovery = %d, want 2", got)
	}
}

// TestCleanShutdownReplaysZero is the graceful-shutdown regression: Close
// drains the group-commit writer, snapshots, and absorbs the WAL, so the
// next Open replays nothing and keeps the epoch.
func TestCleanShutdownReplaysZero(t *testing.T) {
	cfg := durableCfg(t)
	db := openDurable(t, cfg)
	seedItems(t, db, 15)
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	db2 := openDurable(t, cfg)
	defer db2.Close()
	rec := db2.Recovery()
	if rec.ReplayedRecords != 0 || rec.ReplayedTxns != 0 {
		t.Fatalf("clean shutdown replayed %d records / %d txns, want 0/0",
			rec.ReplayedRecords, rec.ReplayedTxns)
	}
	if rec.SnapshotRows != 15 {
		t.Fatalf("SnapshotRows = %d, want 15", rec.SnapshotRows)
	}
	if got := db2.Epoch(); got != 1 {
		t.Fatalf("epoch after clean restart = %d, want 1 (no bump)", got)
	}
	if got := itemsPrefix(t, db2); got != 15 {
		t.Fatalf("recovered %d rows, want 15", got)
	}
}

func TestUncommittedTxnNotResurrected(t *testing.T) {
	cfg := durableCfg(t)
	db := openDurable(t, cfg)
	seedItems(t, db, 5)
	tx := db.Begin()
	if _, err := tx.Exec("INSERT INTO items (val) VALUES ($1)", Str("uncommitted")); err != nil {
		t.Fatalf("open-txn insert: %v", err)
	}
	db.Crash() // transaction still open: no commit record ever written

	db2 := openDurable(t, cfg)
	defer db2.Close()
	if got := itemsPrefix(t, db2); got != 5 {
		t.Fatalf("recovered %d rows, want only the 5 committed", got)
	}
}

func TestEpochBumpsOnEveryCrashNotOnCleanClose(t *testing.T) {
	cfg := durableCfg(t)
	db := openDurable(t, cfg)
	seedItems(t, db, 1)
	db.Crash()

	db = openDurable(t, cfg)
	if got := db.Epoch(); got != 2 {
		t.Fatalf("epoch = %d, want 2", got)
	}
	seedItems(t, db, 1) // past the snapshot watermark again
	db.Crash()

	db = openDurable(t, cfg)
	if got := db.Epoch(); got != 3 {
		t.Fatalf("epoch = %d, want 3", got)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	db = openDurable(t, cfg)
	defer db.Close()
	if got := db.Epoch(); got != 3 {
		t.Fatalf("epoch after clean close = %d, want 3 (no bump)", got)
	}
}

func TestDurabilityFailureRollsBack(t *testing.T) {
	cfg := durableCfg(t)
	db := openDurable(t, cfg)
	defer db.Close()
	seedItems(t, db, 3)
	db.Crash() // WAL writer gone; the engine itself is still addressable
	if _, err := db.Exec("INSERT INTO items (val) VALUES ($1)", Str("lost")); err == nil {
		t.Fatal("insert after WAL abort should fail, got nil error")
	}
	// The failed commit must have rolled back so memory matches the log.
	rs, err := db.Query("SELECT id FROM items")
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(rs.Rows) != 3 {
		t.Fatalf("%d rows after failed durable commit, want 3", len(rs.Rows))
	}
}

// TestRandomizedCrashPointRecoversPrefix is the crash-point property test:
// commit a known sequence, crash, then mangle the log at a random byte
// offset (truncate or flip) and reopen. Whatever the damage, recovery must
// come up with an exact prefix of the committed sequence — never a gap,
// never a mangled row, never a panic — and a second reopen (after the
// torn-tail repair) must agree with the first.
func TestRandomizedCrashPointRecoversPrefix(t *testing.T) {
	const txns = 30
	rng := rand.New(rand.NewSource(12))
	for iter := 0; iter < 25; iter++ {
		cfg := durableCfg(t)
		db := openDurable(t, cfg)
		seedItems(t, db, txns)
		db.Crash()

		segs, err := wal.ListSegments(filepath.Join(cfg.DataDir, "wal"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("iter %d: wal segments: %v (%d)", iter, err, len(segs))
		}
		path := segs[len(segs)-1].Path
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		off := rng.Intn(len(data))
		if rng.Intn(2) == 0 {
			data = data[:off] // torn tail
		} else {
			data[off] ^= 0x40 // bit rot mid-log
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		db2 := openDurable(t, cfg)
		k := itemsPrefix(t, db2)
		if k > txns {
			t.Fatalf("iter %d: recovered %d rows from a %d-commit log", iter, k, txns)
		}
		rec := db2.Recovery()
		_ = db2.Close()

		// Reopen: the repair must have left a consistent log behind.
		db3 := openDurable(t, cfg)
		if k2 := itemsPrefix(t, db3); k2 != k {
			t.Fatalf("iter %d: second recovery found %d rows, first found %d (torn=%v)",
				iter, k2, k, rec.TornTail)
		}
		_ = db3.Close()
	}
}

// TestAcknowledgedMeansDurableUnderConcurrentWriters crashes a durable DB at
// a random point under concurrent autocommit writers whose triggers read each
// other's tables, with a reader beside them, and reopens it. Early lock
// release lets a statement read what a commit still waiting for its fsync
// released; the WAL's FIFO must still order the reader behind that commit.
// After recovery:
//   - every Exec that returned nil is present: an acknowledged insert's row,
//     and at least every acknowledged increment of a row;
//   - no recovered write depends on a missing commit: the highest id of the
//     other table its trigger saw was recovered too;
//   - nothing a Query returned is missing: every row id and count it saw.
func TestAcknowledgedMeansDurableUnderConcurrentWriters(t *testing.T) {
	const writers = 4
	tables := [2]string{"a", "b"}
	rng := rand.New(rand.NewSource(44))
	for iter := 0; iter < 8; iter++ {
		cfg := durableCfg(t)
		db := openDurable(t, cfg)

		// deps[table][id, n] is the highest id of the other table the
		// trigger saw when the row got its value n.
		type write struct{ id, n int64 }
		var depMu sync.Mutex
		deps := [2]map[write]int64{{}, {}}
		for i, tbl := range tables {
			other := tables[1-i]
			mustExec(t, db, "CREATE TABLE "+tbl+" (n INT)")
			for _, op := range []TriggerOp{TrigInsert, TrigUpdate} {
				err := db.CreateTrigger(Trigger{
					Name: tbl + "_sees_" + other, Table: tbl, Op: op, ReadsTables: []string{other},
					Fn: func(q Queryer, ev TriggerEvent) error {
						rs, err := q.Query("SELECT id FROM " + other + " ORDER BY id DESC LIMIT 1")
						if err != nil {
							return err
						}
						var top int64
						if len(rs.Rows) > 0 {
							top = rs.Rows[0][0].I
						}
						depMu.Lock()
						deps[i][write{ev.New[0].I, ev.New[1].I}] = top
						depMu.Unlock()
						return nil
					},
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		// Each writer owns one row per table, the one it increments.
		for w := 0; w < writers; w++ {
			for _, tbl := range tables {
				mustExec(t, db, "INSERT INTO "+tbl+" (n) VALUES (0)")
			}
		}

		var (
			wg      sync.WaitGroup
			stop    = make(chan struct{})
			ackedID [writers][2][]int64
			ackedN  [writers][2]int64
			seenN   [2]map[int64]int64
		)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				own := int64(w + 1)
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					ti := (w + i) % 2
					if i%3 == 0 {
						res, err := db.Exec("INSERT INTO " + tables[ti] + " (n) VALUES (0)")
						if err != nil {
							return
						}
						ackedID[w][ti] = append(ackedID[w][ti], res.LastInsertID)
						continue
					}
					if _, err := db.Exec("UPDATE "+tables[ti]+" SET n = n + 1 WHERE id = $1", I64(own)); err != nil {
						return
					}
					ackedN[w][ti]++
				}
			}(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			seenN = [2]map[int64]int64{{}, {}}
			for {
				for ti, tbl := range tables {
					select {
					case <-stop:
						return
					default:
					}
					rs, err := db.Query("SELECT id, n FROM " + tbl)
					if err != nil {
						return
					}
					for _, row := range rs.Rows {
						seenN[ti][row[0].I] = row[1].I
					}
				}
			}
		}()
		time.Sleep(time.Duration(1+rng.Intn(15)) * time.Millisecond)
		db.Crash()
		close(stop)
		wg.Wait()

		db2 := openDurable(t, cfg)
		var got [2]map[int64]int64
		for ti, tbl := range tables {
			got[ti] = map[int64]int64{}
			for _, row := range mustQuery(t, db2, "SELECT id, n FROM "+tbl).Rows {
				got[ti][row[0].I] = row[1].I
			}
		}
		_ = db2.Close()

		for ti, tbl := range tables {
			for w := 0; w < writers; w++ {
				for _, id := range ackedID[w][ti] {
					if _, ok := got[ti][id]; !ok {
						t.Fatalf("iter %d: acknowledged insert %s.id=%d lost", iter, tbl, id)
					}
				}
				own := int64(w + 1)
				if got[ti][own] < ackedN[w][ti] {
					t.Fatalf("iter %d: %s.id=%d recovered n=%d, but %d increments were acknowledged",
						iter, tbl, own, got[ti][own], ackedN[w][ti])
				}
			}
			for id, n := range seenN[ti] {
				if rn, ok := got[ti][id]; !ok || rn < n {
					t.Fatalf("iter %d: a query returned %s.id=%d n=%d; recovered n=%d (present %v)",
						iter, tbl, id, n, rn, ok)
				}
			}
			for id, n := range got[ti] {
				top, ok := deps[ti][write{id, n}]
				if !ok {
					t.Fatalf("iter %d: recovered %s.id=%d n=%d, a value no trigger saw written", iter, tbl, id, n)
				}
				if _, ok := got[1-ti][top]; top > 0 && !ok {
					t.Fatalf("iter %d: recovered %s.id=%d n=%d saw %s.id=%d, which was not recovered",
						iter, tbl, id, n, tables[1-ti], top)
				}
			}
		}
	}
}
