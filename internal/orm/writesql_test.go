package orm

import (
	"fmt"
	"testing"

	"cachegenie/internal/sqldb"
)

// textConn records each statement it is sent, with its arguments, and
// answers every Exec with ret.
type textConn struct {
	sent   []string
	record bool
	ret    sqldb.Result
}

func (c *textConn) Exec(sql string, args ...sqldb.Value) (sqldb.Result, error) {
	if c.record {
		c.sent = append(c.sent, fmt.Sprintf("%s %v", sql, args))
	}
	return c.ret, nil
}

func (c *textConn) Query(string, ...sqldb.Value) (*sqldb.ResultSet, error) {
	return &sqldb.ResultSet{}, nil
}

func newTextRegistry(t testing.TB) (*Registry, *textConn) {
	t.Helper()
	conn := &textConn{record: true, ret: sqldb.Result{RowsAffected: 1, Returning: [][]sqldb.Value{{sqldb.I64(1)}}}}
	reg := NewRegistry(conn)
	reg.MustRegister(&ModelDef{Name: "Profile", Table: "profiles", Fields: []FieldDef{
		{Name: "user_id", Type: sqldb.TypeInt}, {Name: "bio", Type: sqldb.TypeText},
	}})
	return reg, conn
}

// TestWriteSQLText pins the text of every write shape. A model renders each
// shape once and reuses it, so the text must be exactly what rendering it
// afresh gives — column sets, filters and IN-list lengths each a shape of
// their own.
func TestWriteSQLText(t *testing.T) {
	reg, conn := newTextRegistry(t)
	profiles := func() *QuerySet { return reg.Objects("Profile") }
	for i := 0; i < 2; i++ { // the second round reads every text back
		conn.sent = nil
		must := func(_ any, err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		must(reg.Insert("Profile", Fields{"user_id": 1, "bio": "x"}))
		must(reg.Insert("Profile", Fields{"user_id": 2}))
		must(profiles().Filter("user_id", 1).FilterIn("id", 3, 4).Update(Fields{"bio": "y", "user_id": 5}))
		must(profiles().Filter("user_id", 1).FilterIn("id", 3, 4, 6).Update(Fields{"bio": "y", "user_id": 5}))
		must(profiles().FilterOp("id", ">", 2).Update(Fields{"bio": "z"}))
		must(profiles().FilterOp("id", ">", 2).Delete())
		must(profiles().Filter("id", 2).Delete())
		must(profiles().Delete())
		want := []string{
			"INSERT INTO profiles (bio, user_id) VALUES ($1, $2) RETURNING id, user_id, bio [x 1]",
			"INSERT INTO profiles (user_id) VALUES ($1) RETURNING id, user_id, bio [2]",
			"UPDATE profiles SET bio = $1, user_id = $2 WHERE user_id = $3 AND id IN ($4, $5) [y 5 1 3 4]",
			"UPDATE profiles SET bio = $1, user_id = $2 WHERE user_id = $3 AND id IN ($4, $5, $6) [y 5 1 3 4 6]",
			"UPDATE profiles SET bio = $1 WHERE id > $2 [z 2]",
			"DELETE FROM profiles WHERE id > $1 [2]",
			"DELETE FROM profiles WHERE id = $1 [2]",
			"DELETE FROM profiles []",
		}
		if fmt.Sprint(conn.sent) != fmt.Sprint(want) {
			t.Fatalf("round %d sent\n%q\nwant\n%q", i, conn.sent, want)
		}
	}
}

// TestWriteAllocs: once a shape has been rendered, an Insert or an Update
// costs its argument slice and nothing for its SQL.
func TestWriteAllocs(t *testing.T) {
	reg, conn := newTextRegistry(t)
	conn.record = false
	fields := Fields{"user_id": 1, "bio": "x"}
	insert := func() {
		if _, err := reg.Insert("Profile", fields); err != nil {
			t.Fatal(err)
		}
	}
	update := func() {
		if _, err := reg.Objects("Profile").Filter("user_id", 1).Update(fields); err != nil {
			t.Fatal(err)
		}
	}
	for name, fn := range map[string]func(){"insert": insert, "update": update} {
		fn()
		if n := testing.AllocsPerRun(100, fn); n > 1 {
			t.Errorf("%s: %.0f allocs/op, want 1 (the arguments)", name, n)
		}
	}
}
