package sqldb

import (
	"fmt"
	"testing"
)

func benchDB(b *testing.B, rows int) *DB {
	b.Helper()
	db := MustOpen(Config{})
	mustExec(b, db, "CREATE TABLE bench (k INT NOT NULL, v TEXT)")
	mustExec(b, db, "CREATE INDEX idx_bench_k ON bench (k)")
	for i := 0; i < rows; i++ {
		mustExec(b, db, "INSERT INTO bench (k, v) VALUES ($1, $2)",
			I64(int64(i%100)), Str(fmt.Sprintf("value-%d", i)))
	}
	return db
}

func BenchmarkEnginePointSelect(b *testing.B) {
	db := benchDB(b, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query("SELECT v FROM bench WHERE id = $1", I64(int64(i%5000+1))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineIndexSelect(b *testing.B) {
	db := benchDB(b, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query("SELECT v FROM bench WHERE k = $1", I64(int64(i%100))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineInsert(b *testing.B) {
	db := benchDB(b, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec("INSERT INTO bench (k, v) VALUES ($1, $2)",
			I64(int64(i)), Str("row")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineInsertDurable is an autocommit insert on a durable DB: the
// redo record framed as the statement runs and one commit handed to the WAL
// writer (fsync off, so the figure is the engine's, not the disk's).
func BenchmarkEngineInsertDurable(b *testing.B) {
	db := MustOpen(Config{DataDir: b.TempDir(), WALNoSync: true})
	defer db.Close()
	mustExec(b, db, "CREATE TABLE bench (k INT NOT NULL, v TEXT)")
	mustExec(b, db, "CREATE INDEX idx_bench_k ON bench (k)")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec("INSERT INTO bench (k, v) VALUES ($1, $2)",
			I64(int64(i)), Str("row")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineInsertWithTrigger(b *testing.B) {
	db := benchDB(b, 0)
	if err := db.CreateTrigger(Trigger{
		Name: "noop", Table: "bench", Op: TrigInsert,
		Fn: func(q Queryer, ev TriggerEvent) error { return nil },
	}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec("INSERT INTO bench (k, v) VALUES ($1, $2)",
			I64(int64(i)), Str("row")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineUpdateIndexed(b *testing.B) {
	db := benchDB(b, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec("UPDATE bench SET v = $1 WHERE k = $2",
			Str("updated"), I64(int64(i%100))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineJoin(b *testing.B) {
	db := MustOpen(Config{})
	mustExec(b, db, "CREATE TABLE l (r_id INT NOT NULL)")
	mustExec(b, db, "CREATE TABLE r (name TEXT)")
	mustExec(b, db, "CREATE INDEX idx_l_r ON l (r_id)")
	for i := 1; i <= 200; i++ {
		mustExec(b, db, "INSERT INTO r (name) VALUES ($1)", Str(fmt.Sprintf("n%d", i)))
		mustExec(b, db, "INSERT INTO l (r_id) VALUES ($1)", I64(int64(i)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(
			"SELECT r.name FROM l JOIN r ON l.r_id = r.id WHERE l.id = $1",
			I64(int64(i%200+1))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseSelect(b *testing.B) {
	db := benchDB(b, 10)
	_ = db
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query("SELECT id, k, v FROM bench WHERE k = 1 ORDER BY id DESC LIMIT 5"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineIndexCount(b *testing.B) {
	db := benchDB(b, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query("SELECT COUNT(*) FROM bench WHERE k = $1", I64(int64(i%100))); err != nil {
			b.Fatal(err)
		}
	}
}
