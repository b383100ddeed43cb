package sqldb

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"cachegenie/internal/sqlparse"
)

// cachedAST returns the statement cache's entry for sql.
func cachedAST(db *DB, sql string) (sqlparse.Statement, bool) {
	st, ok := (*db.stmts.Load())[sql]
	return st, ok
}

// TestStatementCacheLeavesASTsUntouched runs every statement kind twice
// through the cache — autocommit and inside a transaction — and checks that
// each text was parsed once and that executing it left its AST deep-equal to
// a fresh parse.
func TestStatementCacheLeavesASTsUntouched(t *testing.T) {
	db := newTestDB(t)
	now := Time(time.Unix(1000, 0))
	steps := []struct {
		sql   string
		query bool
		args  []Value
		again bool // run a second time (DDL cannot)
	}{
		{sql: "CREATE TABLE wall (id BIGINT PRIMARY KEY, user_id BIGINT NOT NULL, content TEXT, sender_id BIGINT, date_posted TIMESTAMP)"},
		{sql: "CREATE INDEX idx_wall_user ON wall (user_id)"},
		{sql: "CREATE TABLE users (name TEXT)"},
		{sql: "INSERT INTO users (name) VALUES ($1) RETURNING id, name", args: []Value{Str("ann")}, again: true},
		{sql: "INSERT INTO wall (user_id, content, sender_id, date_posted) VALUES ($1, $2, $3, $4) RETURNING id", args: []Value{I64(1), Str("hi"), I64(2), now}, again: true},
		{sql: "INSERT INTO wall (user_id, content, date_posted) VALUES (1, 'lit', 5)", again: true},
		{sql: "SELECT wall.id, wall.content FROM wall WHERE wall.user_id = $1 AND wall.sender_id IS NOT NULL ORDER BY wall.date_posted DESC LIMIT 2", query: true, args: []Value{I64(1)}, again: true},
		{sql: "SELECT wall.id, users.name FROM wall JOIN users ON users.id = wall.user_id WHERE wall.id IN ($1, $2)", query: true, args: []Value{I64(1), I64(2)}, again: true},
		{sql: "SELECT COUNT(*) FROM wall WHERE user_id = $1 OR sender_id = $1", query: true, args: []Value{I64(2)}, again: true},
		{sql: "SELECT * FROM wall WHERE content != 'x' ORDER BY id LIMIT 5 OFFSET 1", query: true, again: true},
		{sql: "UPDATE wall SET sender_id = sender_id + $1, content = $2 WHERE user_id = $3", args: []Value{I64(1), Str("edited"), I64(1)}, again: true},
		{sql: "DELETE FROM wall WHERE id = $1", args: []Value{I64(2)}, again: true},
	}
	for _, s := range steps {
		runs := 1
		if s.again {
			runs = 2
		}
		var first sqlparse.Statement
		for i := 0; i < runs; i++ {
			var err error
			if s.query {
				if i == 0 {
					_, err = db.Query(s.sql, s.args...)
				} else {
					tx := db.Begin()
					_, err = tx.Query(s.sql, s.args...)
					_ = tx.Rollback()
				}
			} else if i == 0 {
				_, err = db.Exec(s.sql, s.args...)
			} else {
				tx := db.Begin()
				if _, err = tx.Exec(s.sql, s.args...); err == nil {
					err = tx.Commit()
				}
			}
			if err != nil {
				t.Fatalf("%s (run %d): %v", s.sql, i+1, err)
			}
			st, ok := cachedAST(db, s.sql)
			if !ok {
				t.Fatalf("%s: not cached", s.sql)
			}
			if first == nil {
				first = st
			} else if st != first {
				t.Errorf("%s: parsed again on run %d", s.sql, i+1)
			}
		}
		fresh, err := sqlparse.Parse(s.sql)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, fresh) {
			t.Errorf("%s: executing changed the cached AST:\n got  %#v\n want %#v", s.sql, first, fresh)
		}
	}
}

// TestStatementCacheSameRowsAsFreshParse replays one stream of parameterized
// writes twice: through the cache, where every execution after the first
// shares one AST, and with a fresh parse per statement. The tables must end
// up identical.
func TestStatementCacheSameRowsAsFreshParse(t *testing.T) {
	const (
		ins = "INSERT INTO wall (user_id, content, sender_id) VALUES ($1, $2, $3)"
		upd = "UPDATE wall SET content = $1, sender_id = sender_id + $2 WHERE user_id = $3"
		del = "DELETE FROM wall WHERE sender_id > $1"
	)
	cached, fresh := newTestDB(t), newTestDB(t)
	for _, db := range []*DB{cached, fresh} {
		setupWall(t, db)
	}
	exec := func(sql string, args ...Value) {
		t.Helper()
		mustExec(t, cached, sql, args...)
		st, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fresh.ExecAST(st, args...); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 40; i++ {
		exec(ins, I64(i%7), Str(fmt.Sprintf("post %d", i)), I64(i))
		if i%5 == 4 {
			exec(upd, Str(fmt.Sprintf("edit %d", i)), I64(i), I64(i%7))
		}
		if i%11 == 10 {
			exec(del, I64(60))
		}
	}
	const all = "SELECT * FROM wall ORDER BY id"
	got, want := mustQuery(t, cached, all), mustQuery(t, fresh, all)
	if !reflect.DeepEqual(got, want) || len(got.Rows) == 0 {
		t.Fatalf("cached execution diverged from fresh parses:\n got  %v\n want %v", got.Rows, want.Rows)
	}
}

// TestStatementCacheCap: past maxCachedStatements a new text is still run,
// just parsed every time, and the cache stops growing.
func TestStatementCacheCap(t *testing.T) {
	db := newTestDB(t)
	setupWall(t, db)
	mustExec(t, db, "INSERT INTO wall (user_id) VALUES (7)")
	for i := 0; i < maxCachedStatements+10; i++ {
		rs := mustQuery(t, db, fmt.Sprintf("SELECT COUNT(*) FROM wall WHERE user_id = 7 AND id < %d", i+2))
		if rs.Rows[0][0].I != 1 {
			t.Fatalf("query %d counted %d, want 1", i, rs.Rows[0][0].I)
		}
	}
	if n := len(*db.stmts.Load()); n != maxCachedStatements {
		t.Fatalf("cache holds %d statements, want the cap %d", n, maxCachedStatements)
	}
}
