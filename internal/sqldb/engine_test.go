package sqldb

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"cachegenie/internal/sqlparse"
)

func newTestDB(t testing.TB) *DB {
	t.Helper()
	return MustOpen(Config{})
}

func mustExec(t testing.TB, db *DB, sql string, args ...Value) Result {
	t.Helper()
	res, err := db.Exec(sql, args...)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

func mustQuery(t testing.TB, db *DB, sql string, args ...Value) *ResultSet {
	t.Helper()
	rs, err := db.Query(sql, args...)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	return rs
}

func setupWall(t testing.TB, db *DB) {
	t.Helper()
	mustExec(t, db, `CREATE TABLE wall (
		id BIGINT PRIMARY KEY,
		user_id BIGINT NOT NULL,
		content TEXT,
		sender_id BIGINT,
		date_posted TIMESTAMP
	)`)
	mustExec(t, db, "CREATE INDEX idx_wall_user ON wall (user_id)")
}

func TestCreateTableImplicitID(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE notes (body TEXT)")
	s, err := db.Schema("notes")
	if err != nil {
		t.Fatal(err)
	}
	if s.PKName() != "id" || s.PKIndex != 0 {
		t.Fatalf("schema = %+v", s)
	}
	res := mustExec(t, db, "INSERT INTO notes (body) VALUES ('hello')")
	if res.LastInsertID != 1 {
		t.Fatalf("LastInsertID = %d", res.LastInsertID)
	}
	res = mustExec(t, db, "INSERT INTO notes (body) VALUES ('two')")
	if res.LastInsertID != 2 {
		t.Fatalf("second LastInsertID = %d", res.LastInsertID)
	}
}

func TestInsertSelectRoundTrip(t *testing.T) {
	db := newTestDB(t)
	setupWall(t, db)
	mustExec(t, db, "INSERT INTO wall (user_id, content, sender_id, date_posted) VALUES (42, 'hi', 7, $1)",
		Time(time.Unix(1000, 0)))
	rs := mustQuery(t, db, "SELECT * FROM wall WHERE user_id = 42")
	if len(rs.Rows) != 1 {
		t.Fatalf("rows = %d", len(rs.Rows))
	}
	if got := rs.Rows[0][2].S; got != "hi" {
		t.Fatalf("content = %q", got)
	}
	if rs.Columns[0] != "id" || rs.Columns[1] != "user_id" {
		t.Fatalf("columns = %v", rs.Columns)
	}
}

func TestSelectProjectionAndParams(t *testing.T) {
	db := newTestDB(t)
	setupWall(t, db)
	for i := 1; i <= 5; i++ {
		mustExec(t, db, "INSERT INTO wall (user_id, content) VALUES ($1, $2)",
			I64(int64(i%2)), Str(fmt.Sprintf("post-%d", i)))
	}
	rs := mustQuery(t, db, "SELECT content FROM wall WHERE user_id = $1", I64(1))
	if len(rs.Rows) != 3 {
		t.Fatalf("rows = %d", len(rs.Rows))
	}
	if len(rs.Columns) != 1 || rs.Columns[0] != "content" {
		t.Fatalf("columns = %v", rs.Columns)
	}
}

func TestUpdate(t *testing.T) {
	db := newTestDB(t)
	setupWall(t, db)
	mustExec(t, db, "INSERT INTO wall (user_id, content) VALUES (1, 'a')")
	mustExec(t, db, "INSERT INTO wall (user_id, content) VALUES (1, 'b')")
	mustExec(t, db, "INSERT INTO wall (user_id, content) VALUES (2, 'c')")
	res := mustExec(t, db, "UPDATE wall SET content = 'edited' WHERE user_id = 1")
	if res.RowsAffected != 2 {
		t.Fatalf("affected = %d", res.RowsAffected)
	}
	rs := mustQuery(t, db, "SELECT content FROM wall WHERE user_id = 2")
	if rs.Rows[0][0].S != "c" {
		t.Fatal("update leaked to other rows")
	}
}

func TestUpdateArithmetic(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE counters (n INT NOT NULL)")
	mustExec(t, db, "INSERT INTO counters (n) VALUES (10)")
	mustExec(t, db, "UPDATE counters SET n = n + 5 WHERE id = 1")
	mustExec(t, db, "UPDATE counters SET n = n - 2 WHERE id = 1")
	rs := mustQuery(t, db, "SELECT n FROM counters WHERE id = 1")
	if rs.Rows[0][0].I != 13 {
		t.Fatalf("n = %d", rs.Rows[0][0].I)
	}
}

func TestDelete(t *testing.T) {
	db := newTestDB(t)
	setupWall(t, db)
	mustExec(t, db, "INSERT INTO wall (user_id, content) VALUES (1, 'a')")
	mustExec(t, db, "INSERT INTO wall (user_id, content) VALUES (2, 'b')")
	res := mustExec(t, db, "DELETE FROM wall WHERE user_id = 1")
	if res.RowsAffected != 1 {
		t.Fatalf("affected = %d", res.RowsAffected)
	}
	rs := mustQuery(t, db, "SELECT COUNT(*) FROM wall")
	if rs.Rows[0][0].I != 1 {
		t.Fatalf("count = %d", rs.Rows[0][0].I)
	}
}

func TestCountWhere(t *testing.T) {
	db := newTestDB(t)
	setupWall(t, db)
	for i := 0; i < 10; i++ {
		mustExec(t, db, "INSERT INTO wall (user_id, content) VALUES ($1, 'x')", I64(int64(i%3)))
	}
	rs := mustQuery(t, db, "SELECT COUNT(*) FROM wall WHERE user_id = 0")
	if rs.Rows[0][0].I != 4 {
		t.Fatalf("count = %d", rs.Rows[0][0].I)
	}
}

func TestOrderByLimitOffset(t *testing.T) {
	db := newTestDB(t)
	setupWall(t, db)
	base := time.Unix(5000, 0)
	for i := 0; i < 10; i++ {
		mustExec(t, db, "INSERT INTO wall (user_id, content, date_posted) VALUES (1, $1, $2)",
			Str(fmt.Sprintf("p%d", i)), Time(base.Add(time.Duration(i)*time.Minute)))
	}
	rs := mustQuery(t, db, "SELECT content FROM wall WHERE user_id = 1 ORDER BY date_posted DESC LIMIT 3")
	want := []string{"p9", "p8", "p7"}
	for i, w := range want {
		if rs.Rows[i][0].S != w {
			t.Fatalf("row %d = %q, want %q", i, rs.Rows[i][0].S, w)
		}
	}
	rs = mustQuery(t, db, "SELECT content FROM wall WHERE user_id = 1 ORDER BY date_posted DESC LIMIT 3 OFFSET 2")
	if rs.Rows[0][0].S != "p7" {
		t.Fatalf("offset row = %q", rs.Rows[0][0].S)
	}
}

func TestJoinTwoTables(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE users (name TEXT NOT NULL)")
	mustExec(t, db, "CREATE TABLE profiles (user_id BIGINT NOT NULL, bio TEXT)")
	mustExec(t, db, "CREATE INDEX idx_prof_user ON profiles (user_id)")
	for i := 1; i <= 3; i++ {
		mustExec(t, db, "INSERT INTO users (name) VALUES ($1)", Str(fmt.Sprintf("u%d", i)))
		mustExec(t, db, "INSERT INTO profiles (user_id, bio) VALUES ($1, $2)",
			I64(int64(i)), Str(fmt.Sprintf("bio%d", i)))
	}
	rs := mustQuery(t, db,
		"SELECT users.name, profiles.bio FROM users JOIN profiles ON profiles.user_id = users.id WHERE users.id = 2")
	if len(rs.Rows) != 1 || rs.Rows[0][0].S != "u2" || rs.Rows[0][1].S != "bio2" {
		t.Fatalf("rows = %+v", rs.Rows)
	}
	// An unindexed join column: the inner table is scanned once and each
	// outer row takes all of its matches.
	mustExec(t, db, "CREATE TABLE notes (user_id BIGINT, body TEXT)")
	for _, n := range []struct {
		user Value
		body string
	}{{I64(1), "a1"}, {I64(2), "b2"}, {NullOf(TypeInt), "orphan"}, {I64(1), "c1"}, {I64(3), "d3"}} {
		mustExec(t, db, "INSERT INTO notes (user_id, body) VALUES ($1, $2)", n.user, Str(n.body))
	}
	rs = mustQuery(t, db,
		"SELECT users.name, notes.body FROM users JOIN notes ON notes.user_id = users.id WHERE users.id <= 2 ORDER BY notes.body")
	if got, want := fmt.Sprint(rs.Rows), "[[u1 a1] [u2 b2] [u1 c1]]"; got != want {
		t.Fatalf("unindexed join rows = %s, want %s", got, want)
	}
}

func TestJoinChainThreeTables(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE users (name TEXT)")
	mustExec(t, db, "CREATE TABLE groups (name TEXT)")
	mustExec(t, db, "CREATE TABLE membership (user_id BIGINT NOT NULL, group_id BIGINT NOT NULL)")
	mustExec(t, db, "CREATE INDEX idx_m_user ON membership (user_id)")
	mustExec(t, db, "CREATE INDEX idx_m_group ON membership (group_id)")
	mustExec(t, db, "INSERT INTO users (name) VALUES ('alice')")
	mustExec(t, db, "INSERT INTO users (name) VALUES ('bob')")
	mustExec(t, db, "INSERT INTO groups (name) VALUES ('go')")
	mustExec(t, db, "INSERT INTO groups (name) VALUES ('dbs')")
	// alice in both groups, bob in dbs only.
	mustExec(t, db, "INSERT INTO membership (user_id, group_id) VALUES (1, 1)")
	mustExec(t, db, "INSERT INTO membership (user_id, group_id) VALUES (1, 2)")
	mustExec(t, db, "INSERT INTO membership (user_id, group_id) VALUES (2, 2)")
	rs := mustQuery(t, db,
		"SELECT groups.name FROM membership JOIN groups ON membership.group_id = groups.id JOIN users ON membership.user_id = users.id WHERE users.name = 'alice' ORDER BY groups.name")
	if len(rs.Rows) != 2 || rs.Rows[0][0].S != "dbs" || rs.Rows[1][0].S != "go" {
		t.Fatalf("rows = %+v", rs.Rows)
	}
}

func TestInPredicate(t *testing.T) {
	db := newTestDB(t)
	setupWall(t, db)
	for i := 1; i <= 6; i++ {
		mustExec(t, db, "INSERT INTO wall (user_id, content) VALUES ($1, 'x')", I64(int64(i)))
	}
	rs := mustQuery(t, db, "SELECT user_id FROM wall WHERE user_id IN (2, 4, 9)")
	if len(rs.Rows) != 2 {
		t.Fatalf("rows = %d", len(rs.Rows))
	}
}

func TestNullSemantics(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE t (a INT, b TEXT)")
	mustExec(t, db, "INSERT INTO t (a, b) VALUES (NULL, 'has-null')")
	mustExec(t, db, "INSERT INTO t (a, b) VALUES (1, 'no-null')")
	// NULL never matches equality.
	rs := mustQuery(t, db, "SELECT b FROM t WHERE a = 1")
	if len(rs.Rows) != 1 {
		t.Fatalf("rows = %d", len(rs.Rows))
	}
	rs = mustQuery(t, db, "SELECT b FROM t WHERE a IS NULL")
	if len(rs.Rows) != 1 || rs.Rows[0][0].S != "has-null" {
		t.Fatalf("IS NULL rows = %+v", rs.Rows)
	}
	rs = mustQuery(t, db, "SELECT b FROM t WHERE a IS NOT NULL")
	if len(rs.Rows) != 1 || rs.Rows[0][0].S != "no-null" {
		t.Fatalf("IS NOT NULL rows = %+v", rs.Rows)
	}
}

func TestNotNullViolation(t *testing.T) {
	db := newTestDB(t)
	setupWall(t, db)
	if _, err := db.Exec("INSERT INTO wall (content) VALUES ('orphan')"); !errors.Is(err, ErrNullViolation) {
		t.Fatalf("err = %v", err)
	}
}

func TestUniqueIndexViolation(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE users (email TEXT NOT NULL)")
	mustExec(t, db, "CREATE UNIQUE INDEX idx_email ON users (email)")
	mustExec(t, db, "INSERT INTO users (email) VALUES ('a@x.com')")
	if _, err := db.Exec("INSERT INTO users (email) VALUES ('a@x.com')"); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("err = %v", err)
	}
	// The failed autocommit insert must leave no residue.
	rs := mustQuery(t, db, "SELECT COUNT(*) FROM users")
	if rs.Rows[0][0].I != 1 {
		t.Fatalf("count = %d", rs.Rows[0][0].I)
	}
}

func TestReturning(t *testing.T) {
	db := newTestDB(t)
	setupWall(t, db)
	res := mustExec(t, db, "INSERT INTO wall (user_id, content) VALUES (9, 'r') RETURNING id, content")
	if len(res.Returning) != 1 || res.Returning[0][0].I != 1 || res.Returning[0][1].S != "r" {
		t.Fatalf("returning = %+v", res.Returning)
	}
}

func TestTxnCommitAndRollback(t *testing.T) {
	db := newTestDB(t)
	setupWall(t, db)

	tx := db.Begin()
	if _, err := tx.Exec("INSERT INTO wall (user_id, content) VALUES (1, 'kept')"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx = db.Begin()
	if _, err := tx.Exec("INSERT INTO wall (user_id, content) VALUES (1, 'dropped')"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("UPDATE wall SET content = 'mutated' WHERE user_id = 1"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}

	rs := mustQuery(t, db, "SELECT content FROM wall WHERE user_id = 1")
	if len(rs.Rows) != 1 || rs.Rows[0][0].S != "kept" {
		t.Fatalf("after rollback rows = %+v", rs.Rows)
	}
}

func TestTxnRollbackRestoresIndexes(t *testing.T) {
	db := newTestDB(t)
	setupWall(t, db)
	mustExec(t, db, "INSERT INTO wall (user_id, content) VALUES (5, 'orig')")
	tx := db.Begin()
	if _, err := tx.Exec("UPDATE wall SET user_id = 6 WHERE user_id = 5"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	rs := mustQuery(t, db, "SELECT content FROM wall WHERE user_id = 5")
	if len(rs.Rows) != 1 {
		t.Fatal("index lookup after rollback failed")
	}
	rs = mustQuery(t, db, "SELECT COUNT(*) FROM wall WHERE user_id = 6")
	if rs.Rows[0][0].I != 0 {
		t.Fatal("stale index entry after rollback")
	}
}

func TestTxnIsolationWriteBlocksRead(t *testing.T) {
	db := MustOpen(Config{LockTimeout: 200 * time.Millisecond})
	setupWall(t, db)
	mustExec(t, db, "INSERT INTO wall (user_id, content) VALUES (1, 'x')")

	tx := db.Begin()
	if _, err := tx.Exec("UPDATE wall SET content = 'y' WHERE user_id = 1"); err != nil {
		t.Fatal(err)
	}
	// A concurrent reader must block and time out while the writer holds
	// the exclusive lock.
	_, err := db.Query("SELECT * FROM wall WHERE user_id = 1")
	if !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("reader err = %v, want lock timeout", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	rs := mustQuery(t, db, "SELECT content FROM wall WHERE user_id = 1")
	if rs.Rows[0][0].S != "y" {
		t.Fatal("committed write not visible")
	}
}

func TestTxnDoneErrors(t *testing.T) {
	db := newTestDB(t)
	setupWall(t, db)
	tx := db.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO wall (user_id) VALUES (1)"); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("err = %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("double commit err = %v", err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatalf("rollback after commit should be no-op, got %v", err)
	}
}

func TestTriggerFiresOnInsertUpdateDelete(t *testing.T) {
	db := newTestDB(t)
	setupWall(t, db)
	var mu sync.Mutex
	events := []string{}
	record := func(op TriggerOp) TriggerFunc {
		return func(q Queryer, ev TriggerEvent) error {
			mu.Lock()
			defer mu.Unlock()
			switch op {
			case TrigInsert:
				events = append(events, "ins:"+ev.New[2].S)
			case TrigUpdate:
				events = append(events, "upd:"+ev.Old[2].S+"->"+ev.New[2].S)
			case TrigDelete:
				events = append(events, "del:"+ev.Old[2].S)
			}
			return nil
		}
	}
	for _, op := range []TriggerOp{TrigInsert, TrigUpdate, TrigDelete} {
		if err := db.CreateTrigger(Trigger{
			Name: "t_" + op.String(), Table: "wall", Op: op, Fn: record(op),
		}); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, db, "INSERT INTO wall (user_id, content) VALUES (1, 'a')")
	mustExec(t, db, "UPDATE wall SET content = 'b' WHERE user_id = 1")
	mustExec(t, db, "DELETE FROM wall WHERE user_id = 1")
	want := []string{"ins:a", "upd:a->b", "del:b"}
	mu.Lock()
	defer mu.Unlock()
	if len(events) != len(want) {
		t.Fatalf("events = %v", events)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events = %v, want %v", events, want)
		}
	}
}

func TestTriggerErrorAbortsStatement(t *testing.T) {
	db := newTestDB(t)
	setupWall(t, db)
	if err := db.CreateTrigger(Trigger{
		Name: "veto", Table: "wall", Op: TrigInsert,
		Fn: func(q Queryer, ev TriggerEvent) error {
			return errors.New("vetoed")
		},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO wall (user_id, content) VALUES (1, 'x')"); err == nil {
		t.Fatal("insert with failing trigger succeeded")
	}
	rs := mustQuery(t, db, "SELECT COUNT(*) FROM wall")
	if rs.Rows[0][0].I != 0 {
		t.Fatal("aborted insert left a row behind")
	}
}

func TestTriggerReentrantRead(t *testing.T) {
	db := newTestDB(t)
	setupWall(t, db)
	var sawCount int64 = -1
	if err := db.CreateTrigger(Trigger{
		Name: "reread", Table: "wall", Op: TrigInsert,
		Fn: func(q Queryer, ev TriggerEvent) error {
			// Reading the table we are mutating must not self-deadlock.
			rs, err := q.Query("SELECT COUNT(*) FROM wall WHERE user_id = $1", ev.New[1])
			if err != nil {
				return err
			}
			sawCount = rs.Rows[0][0].I
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "INSERT INTO wall (user_id, content) VALUES (3, 'x')")
	if sawCount != 1 {
		t.Fatalf("trigger saw count %d, want 1 (its own row visible)", sawCount)
	}
}

func TestTriggersDisabledToggle(t *testing.T) {
	db := newTestDB(t)
	setupWall(t, db)
	fired := 0
	if err := db.CreateTrigger(Trigger{
		Name: "count", Table: "wall", Op: TrigInsert,
		Fn: func(q Queryer, ev TriggerEvent) error {
			fired++
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	db.SetTriggersEnabled(false)
	mustExec(t, db, "INSERT INTO wall (user_id) VALUES (1)")
	db.SetTriggersEnabled(true)
	mustExec(t, db, "INSERT INTO wall (user_id) VALUES (2)")
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
}

func TestDropTrigger(t *testing.T) {
	db := newTestDB(t)
	setupWall(t, db)
	fn := func(q Queryer, ev TriggerEvent) error { return nil }
	if err := db.CreateTrigger(Trigger{Name: "x", Table: "wall", Op: TrigInsert, Fn: fn}); err != nil {
		t.Fatal(err)
	}
	if !db.DropTrigger("wall", "x") {
		t.Fatal("DropTrigger returned false")
	}
	if db.DropTrigger("wall", "x") {
		t.Fatal("second DropTrigger returned true")
	}
	if n := len(db.Triggers("wall", TrigInsert)); n != 0 {
		t.Fatalf("%d triggers remain", n)
	}
}

// rowCounter is a StatementHook that counts its triggers' firings and, at
// the end of the statement, reports the total through the Queryer it is
// handed.
type rowCounter struct {
	rows  int
	ended *[]string
	fail  error
}

func (h *rowCounter) EndStatement(q Queryer) error {
	rs, err := q.Query("SELECT COUNT(*) FROM wall")
	if err != nil {
		return err
	}
	*h.ended = append(*h.ended, fmt.Sprintf("%d firings, %d in table", h.rows, rs.Rows[0][0].I))
	return h.fail
}

// countingTrigger attaches one rowCounter per statement under owner.
func countingTrigger(owner any, ended *[]string, fail error) TriggerFunc {
	return func(q Queryer, ev TriggerEvent) error {
		h := q.(StatementScope).StatementHook(owner, func() StatementHook {
			return &rowCounter{ended: ended, fail: fail}
		})
		h.(*rowCounter).rows++
		return nil
	}
}

func TestStatementHookEndsOncePerStatement(t *testing.T) {
	db := newTestDB(t)
	setupWall(t, db)
	var ended []string
	for _, op := range []TriggerOp{TrigInsert, TrigUpdate} {
		for _, name := range []string{"first", "second"} {
			// Two triggers per op share an owner, so they share a hook.
			if err := db.CreateTrigger(Trigger{Name: name, Table: "wall", Op: op,
				Fn: countingTrigger("owner", &ended, nil)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 3; i++ {
		mustExec(t, db, "INSERT INTO wall (user_id, content) VALUES (1, 'a')")
	}
	mustExec(t, db, "UPDATE wall SET content = 'b' WHERE user_id = 1")
	mustExec(t, db, "UPDATE wall SET content = 'c' WHERE user_id = 99") // no rows, no firing, no hook
	want := []string{
		"2 firings, 1 in table", "2 firings, 2 in table", "2 firings, 3 in table",
		"6 firings, 3 in table",
	}
	if fmt.Sprint(ended) != fmt.Sprint(want) {
		t.Fatalf("hooks ended %q, want %q", ended, want)
	}
}

func TestStatementHookErrorAbortsStatement(t *testing.T) {
	db := newTestDB(t)
	setupWall(t, db)
	var ended []string
	vetoed := errors.New("vetoed at statement end")
	if err := db.CreateTrigger(Trigger{Name: "veto", Table: "wall", Op: TrigInsert,
		Fn: countingTrigger("owner", &ended, vetoed)}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO wall (user_id, content) VALUES (1, 'x')"); !errors.Is(err, vetoed) {
		t.Fatalf("insert whose statement hook failed returned %v", err)
	}
	if rs := mustQuery(t, db, "SELECT COUNT(*) FROM wall"); rs.Rows[0][0].I != 0 {
		t.Fatal("aborted insert left a row behind")
	}
}

func TestStatementHookSkippedWhenStatementFails(t *testing.T) {
	db := newTestDB(t)
	setupWall(t, db)
	var ended []string
	if err := db.CreateTrigger(Trigger{Name: "count", Table: "wall", Op: TrigUpdate,
		Fn: countingTrigger("owner", &ended, nil)}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTrigger(Trigger{Name: "veto-b", Table: "wall", Op: TrigUpdate,
		Fn: func(q Queryer, ev TriggerEvent) error {
			if ev.Old[2].S == "b" {
				return errors.New("vetoed")
			}
			return nil
		}}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "INSERT INTO wall (user_id, content) VALUES (1, 'a')")
	mustExec(t, db, "INSERT INTO wall (user_id, content) VALUES (1, 'b')")
	tx := db.Begin()
	defer tx.Rollback()
	if _, err := tx.Exec("UPDATE wall SET sender_id = 7 WHERE user_id = 1"); err == nil {
		t.Fatal("update with a failing second-row trigger succeeded")
	}
	if len(ended) != 0 {
		t.Fatalf("a failed statement ended its hooks: %q", ended)
	}
	// The failed statement's hook is gone: the next statement starts clean.
	if _, err := tx.Exec("UPDATE wall SET sender_id = 8 WHERE content = 'a'"); err != nil {
		t.Fatal(err)
	}
	if want := []string{"1 firings, 2 in table"}; fmt.Sprint(ended) != fmt.Sprint(want) {
		t.Fatalf("hooks ended %q, want %q", ended, want)
	}
}

// TestWriteLockListFollowsTriggers: the lock list a mutating statement takes
// is cached per (table, op) and must track trigger creation and removal.
func TestWriteLockListFollowsTriggers(t *testing.T) {
	db := newTestDB(t)
	setupWall(t, db)
	mustExec(t, db, "CREATE TABLE friends (id BIGINT PRIMARY KEY, a BIGINT)")
	mustExec(t, db, "CREATE TABLE audit (id BIGINT PRIMARY KEY, a BIGINT)")
	locked := func() string {
		tx := db.Begin()
		defer tx.Rollback()
		if _, err := tx.Exec("INSERT INTO wall (user_id) VALUES (1)"); err != nil {
			t.Fatal(err)
		}
		held := map[string]lockMode{}
		for _, h := range tx.locks {
			held[h.table] = h.mode
		}
		return fmt.Sprint(held)
	}
	fn := func(q Queryer, ev TriggerEvent) error { return nil }
	if got, want := locked(), fmt.Sprint(map[string]lockMode{"wall": lockExclusive}); got != want {
		t.Fatalf("no triggers: locks %s, want %s", got, want)
	}
	for name, reads := range map[string][]string{"x": {"friends", "wall"}, "y": {"friends", "audit"}} {
		if err := db.CreateTrigger(Trigger{Name: name, Table: "wall", Op: TrigInsert, Fn: fn, ReadsTables: reads}); err != nil {
			t.Fatal(err)
		}
	}
	all := map[string]lockMode{"audit": lockShared, "friends": lockShared, "wall": lockExclusive}
	if got, want := locked(), fmt.Sprint(all); got != want {
		t.Fatalf("two triggers: locks %s, want %s", got, want)
	}
	db.SetTriggersEnabled(false)
	if got, want := locked(), fmt.Sprint(map[string]lockMode{"wall": lockExclusive}); got != want {
		t.Fatalf("triggers disabled: locks %s, want %s", got, want)
	}
	db.SetTriggersEnabled(true)
	db.DropTrigger("wall", "y")
	if got, want := locked(), fmt.Sprint(map[string]lockMode{"friends": lockShared, "wall": lockExclusive}); got != want {
		t.Fatalf("after dropping y: locks %s, want %s", got, want)
	}
	db.DropTrigger("wall", "x")
	if got, want := locked(), fmt.Sprint(map[string]lockMode{"wall": lockExclusive}); got != want {
		t.Fatalf("after dropping both: locks %s, want %s", got, want)
	}
}

func TestConcurrentInsertsDistinctTables(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE a (v INT)")
	mustExec(t, db, "CREATE TABLE b (v INT)")
	var wg sync.WaitGroup
	errCh := make(chan error, 2)
	for _, tbl := range []string{"a", "b"} {
		wg.Add(1)
		go func(tbl string) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := db.Exec(fmt.Sprintf("INSERT INTO %s (v) VALUES ($1)", tbl), I64(int64(i))); err != nil {
					errCh <- err
					return
				}
			}
		}(tbl)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	for _, tbl := range []string{"a", "b"} {
		rs := mustQuery(t, db, "SELECT COUNT(*) FROM "+tbl)
		if rs.Rows[0][0].I != 200 {
			t.Fatalf("%s count = %d", tbl, rs.Rows[0][0].I)
		}
	}
}

func TestConcurrentSameTableSerializes(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE c (v INT)")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := db.Exec("INSERT INTO c (v) VALUES (1)"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	rs := mustQuery(t, db, "SELECT COUNT(*) FROM c")
	if rs.Rows[0][0].I != 400 {
		t.Fatalf("count = %d", rs.Rows[0][0].I)
	}
}

// TestRandomizedAgainstReference runs a random single-table workload and
// cross-checks results against an in-memory reference model. Its COUNT(*)
// queries span the single-column and composite indexes, which alone may
// answer them, and the cases the index must refuse and leave to the row
// path: NULL params, an INT param for a TIMESTAMP column, a FLOAT param for
// an INT column, two conjuncts on one column, the PK. The rows carry NULLs in
// indexed columns and text containing 0x00, and some counts run inside a
// transaction over its own uncommitted inserts and deletes, before it
// commits or rolls back.
func TestRandomizedAgainstReference(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE r (k INT NOT NULL, v TEXT, g INT, ts TIMESTAMP)")
	mustExec(t, db, "CREATE INDEX idx_r_k ON r (k)")
	mustExec(t, db, "CREATE INDEX idx_r_gv ON r (g, v)")
	mustExec(t, db, "CREATE INDEX idx_r_ts ON r (ts)")
	rng := rand.New(rand.NewSource(99))
	type refRow struct {
		k, ts int64
		v, g  Value // TEXT or NULL, INT or NULL
	}
	texts := []string{"a", "b", "", "a\x00", "a\x00b", "\x00"}
	randRow := func() refRow {
		r := refRow{k: int64(rng.Intn(20)), ts: int64(rng.Intn(5)), v: NullOf(TypeText), g: NullOf(TypeInt)}
		if rng.Intn(5) > 0 {
			r.v = Str(texts[rng.Intn(len(texts))])
		}
		if rng.Intn(4) > 0 {
			r.g = I64(int64(rng.Intn(4)))
		}
		return r
	}
	insert := func(q interface {
		Exec(string, ...Value) (Result, error)
	}, rows map[int64]refRow) {
		r := randRow()
		res, err := q.Exec("INSERT INTO r (k, v, g, ts) VALUES ($1, $2, $3, $4)",
			I64(r.k), r.v, r.g, Value{Type: TypeTime, I: r.ts})
		if err != nil {
			t.Fatal(err)
		}
		rows[res.LastInsertID] = r
	}
	deleteK := func(rows map[int64]refRow, k int64) int {
		n := 0
		for id, row := range rows {
			if row.k == k {
				delete(rows, id)
				n++
			}
		}
		return n
	}
	// checkCount runs one random COUNT(*) through q against the rows q sees.
	checkCount := func(step int, q Queryer, rows map[int64]refRow) {
		row := randRow()
		k, k2 := row.k, int64(rng.Intn(20))
		var (
			sql   string
			args  []Value
			match func(id int64, r refRow) bool
		)
		switch rng.Intn(11) {
		case 0:
			sql, args = "SELECT COUNT(*) FROM r WHERE k = $1", []Value{I64(k)}
			match = func(_ int64, r refRow) bool { return r.k == k }
		case 1:
			sql, args = "SELECT COUNT(*) FROM r WHERE r.g = $1 AND r.v = $2", []Value{row.g, row.v}
			match = func(_ int64, r refRow) bool { return Equal(r.g, row.g) && Equal(r.v, row.v) }
		case 2:
			sql, args = "SELECT COUNT(*) FROM r WHERE v = $1 AND g = $2", []Value{row.v, row.g}
			match = func(_ int64, r refRow) bool { return Equal(r.g, row.g) && Equal(r.v, row.v) }
		case 3:
			sql, args = "SELECT COUNT(*) FROM r WHERE g = $1", []Value{row.g}
			match = func(_ int64, r refRow) bool { return Equal(r.g, row.g) }
		case 4:
			sql, args = "SELECT COUNT(*) FROM r WHERE ts = $1", []Value{{Type: TypeTime, I: row.ts}}
			match = func(_ int64, r refRow) bool { return r.ts == row.ts }
		case 5: // a TIMESTAMP never equals an INT
			sql, args = "SELECT COUNT(*) FROM r WHERE ts = $1", []Value{I64(row.ts)}
			match = func(int64, refRow) bool { return false }
		case 6: // INT and FLOAT compare numerically
			sql, args = "SELECT COUNT(*) FROM r WHERE k = $1", []Value{F64(float64(k2) / 2)}
			match = func(_ int64, r refRow) bool { return float64(r.k) == float64(k2)/2 }
		case 7:
			sql, args = "SELECT COUNT(*) FROM r WHERE k = $1 AND k = $2", []Value{I64(k), I64(k2)}
			match = func(_ int64, r refRow) bool { return r.k == k && r.k == k2 }
		case 8:
			sql, args = "SELECT COUNT(*) FROM r WHERE k = $1", []Value{NullOf(TypeInt)}
			match = func(int64, refRow) bool { return false }
		case 9: // no one index covers both columns
			sql, args = "SELECT COUNT(*) FROM r WHERE k = $1 AND ts = $2", []Value{I64(k), {Type: TypeTime, I: row.ts}}
			match = func(_ int64, r refRow) bool { return r.k == k && r.ts == row.ts }
		default:
			id := int64(rng.Intn(step + 2))
			sql, args = "SELECT COUNT(*) FROM r WHERE id = $1 AND k = $2", []Value{I64(id), I64(k)}
			match = func(rid int64, r refRow) bool { return rid == id && r.k == k }
		}
		var want int64
		for id, r := range rows {
			if match(id, r) {
				want++
			}
		}
		rs, err := q.Query(sql, args...)
		if err != nil {
			t.Fatalf("step %d: %s: %v", step, sql, err)
		}
		if got := rs.Rows[0][0].I; got != want {
			t.Fatalf("step %d: %s %v = %d, reference %d", step, sql, args, got, want)
		}
	}
	ref := map[int64]refRow{}
	for step := 0; step < 3000; step++ {
		k := int64(rng.Intn(20))
		switch rng.Intn(12) {
		case 0, 1, 2, 3:
			insert(db, ref)
		case 4, 5: // update by k
			v := Str(fmt.Sprintf("u%d", step))
			res := mustExec(t, db, "UPDATE r SET v = $1 WHERE k = $2", v, I64(k))
			n := 0
			for id, row := range ref {
				if row.k == k {
					row.v = v
					ref[id] = row
					n++
				}
			}
			if res.RowsAffected != n {
				t.Fatalf("step %d: update affected %d, ref %d", step, res.RowsAffected, n)
			}
		case 6: // delete by k
			res := mustExec(t, db, "DELETE FROM r WHERE k = $1", I64(k))
			if n := deleteK(ref, k); res.RowsAffected != n {
				t.Fatalf("step %d: delete affected %d, ref %d", step, res.RowsAffected, n)
			}
		case 7: // counts over a transaction's own writes, then commit or roll back
			tx := db.Begin()
			pending := maps.Clone(ref)
			for i := 0; i < 3; i++ {
				insert(tx, pending)
			}
			res, err := tx.Exec("DELETE FROM r WHERE k = $1", I64(k))
			if err != nil {
				t.Fatal(err)
			}
			if n := deleteK(pending, k); res.RowsAffected != n {
				t.Fatalf("step %d: delete in txn affected %d, ref %d", step, res.RowsAffected, n)
			}
			for i := 0; i < 3; i++ {
				checkCount(step, tx, pending)
			}
			if rng.Intn(2) == 0 {
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				ref = pending
			} else if err := tx.Rollback(); err != nil {
				t.Fatal(err)
			}
			checkCount(step, db, ref)
		case 8, 9:
			checkCount(step, db, ref)
		default: // query by k
			rs := mustQuery(t, db, "SELECT id, v FROM r WHERE k = $1 ORDER BY id", I64(k))
			var want []int64
			for id, row := range ref {
				if row.k == k {
					want = append(want, id)
				}
			}
			slices.Sort(want)
			if len(rs.Rows) != len(want) {
				t.Fatalf("step %d: got %d rows, ref %d", step, len(rs.Rows), len(want))
			}
			for i, r := range rs.Rows {
				if got, v := r[1], ref[want[i]].v; r[0].I != want[i] || got.Null != v.Null || got.S != v.S {
					t.Fatalf("step %d: row %d is %v, ref id %d v %v", step, i, r, want[i], v)
				}
			}
		}
	}
	// Final: every ref row readable by id.
	for id, row := range ref {
		rs := mustQuery(t, db, "SELECT v FROM r WHERE id = $1", I64(id))
		if len(rs.Rows) != 1 || rs.Rows[0][0].Null != row.v.Null || rs.Rows[0][0].S != row.v.S {
			t.Fatalf("row %d: got %+v, want %v", id, rs.Rows, row.v)
		}
	}
}

// TestCountByIndexEligibility: the index answers a COUNT(*) alone only when
// every conjunct is an equality with a non-NULL value of its column's type,
// on its own non-PK, non-FLOAT column, and the conjuncts are exactly the
// chosen index's leading columns.
func TestCountByIndexEligibility(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE r (k INT NOT NULL, v TEXT, g INT, ts TIMESTAMP, f FLOAT)")
	for i, cols := range []string{"k", "g, v", "ts", "f"} {
		mustExec(t, db, fmt.Sprintf("CREATE INDEX idx_%d ON r (%s)", i, cols))
	}
	tb, err := db.table("r")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		where string
		args  []Value
		want  bool
	}{
		{"k = $1", []Value{I64(1)}, true},
		{"k = 7", nil, true},
		{"r.k = $1", []Value{I64(1)}, true},
		{"g = $1 AND v = $2", []Value{I64(1), Str("a\x00")}, true},
		{"v = $1 AND g = $2", []Value{Str(""), I64(1)}, true},
		{"g = $1", []Value{I64(1)}, true},
		{"ts = $1", []Value{{Type: TypeTime, I: 5}}, true},
		{"k = $1", []Value{NullOf(TypeInt)}, false},
		{"k = $1", []Value{F64(1)}, false},
		{"ts = $1", []Value{I64(5)}, false},
		{"f = $1", []Value{F64(1)}, false},
		{"k = $1 AND k = $2", []Value{I64(1), I64(1)}, false},
		{"id = $1", []Value{I64(1)}, false},
		{"v = $1", []Value{Str("a")}, false},
		{"k = $1 AND v = $2", []Value{I64(1), Str("a")}, false},
		{"k >= $1", []Value{I64(1)}, false},
		{"k = $2", []Value{I64(1)}, false},
		{"s.k = $1", []Value{I64(1)}, false},
		{"k = $1 OR k = $2", []Value{I64(1), I64(2)}, false},
	} {
		st, err := sqlparse.Parse("SELECT COUNT(*) FROM r WHERE " + c.where)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := countByIndex("r", tb, appendConjuncts(nil, st.(*sqlparse.Select).Where), c.args); ok != c.want {
			t.Errorf("WHERE %s %v: index-only %v, want %v", c.where, c.args, ok, c.want)
		}
	}
}

// TestIndexCountAllocs: a COUNT(*) the index answers costs as many
// allocations over 50 matches as over 1, and at most 12.
func TestIndexCountAllocs(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE c (k INT NOT NULL, v TEXT)")
	mustExec(t, db, "CREATE INDEX idx_c_k ON c (k)")
	for i := 0; i < 51; i++ {
		mustExec(t, db, "INSERT INTO c (k, v) VALUES ($1, 'x')", I64(int64(i/50)))
	}
	allocs := func(k, want int64) float64 {
		return testing.AllocsPerRun(100, func() {
			rs, err := db.Query("SELECT COUNT(*) FROM c WHERE k = $1", I64(k))
			if err != nil || rs.Rows[0][0].I != want {
				t.Fatalf("COUNT(*) k=%d: %v %v, want %d", k, rs, err, want)
			}
		})
	}
	if many, one := allocs(0, 50), allocs(1, 1); many != one || many > 12 {
		t.Fatalf("COUNT(*) allocs: %.0f over 50 matches, %.0f over 1; want equal and <= 12", many, one)
	}
}

// TestResultRowsAreCappedWindows: a statement's rows share one value slab,
// each a capped window of it, so appending to one row reallocates it instead
// of overwriting the next.
func TestResultRowsAreCappedWindows(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE p (name TEXT)")
	mustExec(t, db, "CREATE TABLE c (p_id INT NOT NULL, v TEXT)")
	mustExec(t, db, "CREATE INDEX idx_c_p ON c (p_id)")
	mustExec(t, db, "INSERT INTO p (name) VALUES ('parent')")
	for i := 0; i < 3; i++ {
		mustExec(t, db, "INSERT INTO c (p_id, v) VALUES (1, $1)", Str(fmt.Sprintf("v%d", i)))
	}
	for _, sql := range []string{
		"SELECT id, v FROM c WHERE p_id = 1 ORDER BY id",
		"SELECT * FROM c",
		"SELECT c.v, p.name FROM c JOIN p ON c.p_id = p.id",
	} {
		rs := mustQuery(t, db, sql)
		if len(rs.Rows) != 3 {
			t.Fatalf("%s: %d rows, want 3", sql, len(rs.Rows))
		}
		next := fmt.Sprint(rs.Rows[1])
		_ = append(rs.Rows[0], Str("clobber"))
		if got := fmt.Sprint(rs.Rows[1]); got != next {
			t.Fatalf("%s: appending to row 0 changed row 1 from %s to %s", sql, next, got)
		}
	}
}

func TestStatsCounters(t *testing.T) {
	db := newTestDB(t)
	setupWall(t, db)
	mustExec(t, db, "INSERT INTO wall (user_id) VALUES (1)")
	mustQuery(t, db, "SELECT * FROM wall")
	st := db.Stats()
	if st.Inserts != 1 || st.Selects != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLargeTableIndexScanMatchesFullScan(t *testing.T) {
	db := newTestDB(t)
	setupWall(t, db)
	for i := 0; i < 500; i++ {
		mustExec(t, db, "INSERT INTO wall (user_id, content) VALUES ($1, $2)",
			I64(int64(i%17)), Str(fmt.Sprintf("c%d", i)))
	}
	// Index path.
	rs1 := mustQuery(t, db, "SELECT id FROM wall WHERE user_id = 5 ORDER BY id")
	// Force a scan path via an inequality that the planner cannot index.
	rs2 := mustQuery(t, db, "SELECT id FROM wall WHERE user_id >= 5 AND user_id <= 5 ORDER BY id")
	if len(rs1.Rows) == 0 || len(rs1.Rows) != len(rs2.Rows) {
		t.Fatalf("index scan %d rows, full scan %d rows", len(rs1.Rows), len(rs2.Rows))
	}
	for i := range rs1.Rows {
		if rs1.Rows[i][0].I != rs2.Rows[i][0].I {
			t.Fatal("index and scan paths disagree")
		}
	}
}
