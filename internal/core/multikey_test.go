package core

import (
	"testing"

	"cachegenie/internal/orm"
	"cachegenie/internal/sqldb"
)

// TestMultiFieldWhereKey exercises cached objects keyed on two columns
// (like the social app's pending-invitations object) including a TEXT
// column that needs key escaping.
func TestMultiFieldWhereKey(t *testing.T) {
	s := newStack(t)
	db := s.db
	reg := s.reg
	reg.MustRegister(&orm.ModelDef{
		Name:  "Invite",
		Table: "invites",
		Fields: []orm.FieldDef{
			{Name: "to_user_id", Type: sqldb.TypeInt, NotNull: true},
			{Name: "status", Type: sqldb.TypeText, NotNull: true},
			{Name: "message", Type: sqldb.TypeText},
		},
		Indexes: [][]string{{"to_user_id", "status"}},
	})
	if _, err := reg.Conn().Exec("CREATE TABLE invites (id BIGINT PRIMARY KEY, to_user_id BIGINT NOT NULL, status TEXT NOT NULL, message TEXT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Conn().Exec("CREATE INDEX idx_inv ON invites (to_user_id, status)"); err != nil {
		t.Fatal(err)
	}
	co := s.cacheable(t, Spec{
		Name: "invites_by_status", Class: FeatureQuery, MainModel: "Invite",
		WhereFields: []string{"to_user_id", "status"},
	})

	// Status values containing key-delimiter characters must not collide.
	weird := "pending:stage 1"
	weirder := "pending%3Astage 1"
	k1 := co.MakeKey(sqldb.I64(1), sqldb.Str(weird))
	k2 := co.MakeKey(sqldb.I64(1), sqldb.Str(weirder))
	if k1 == k2 {
		t.Fatalf("escaped keys collide: %q", k1)
	}

	_, _ = reg.Insert("Invite", orm.Fields{"to_user_id": 1, "status": weird, "message": "a"})
	_, _ = reg.Insert("Invite", orm.Fields{"to_user_id": 1, "status": "accepted", "message": "b"})

	objs, err := reg.Objects("Invite").Filter("to_user_id", 1).Filter("status", weird).All()
	if err != nil || len(objs) != 1 || objs[0].Str("message") != "a" {
		t.Fatalf("objs=%v err=%v", objs, err)
	}
	// Served from cache on the second read.
	selBefore := db.Stats().Selects
	if _, err := reg.Objects("Invite").Filter("to_user_id", 1).Filter("status", weird).All(); err != nil {
		t.Fatal(err)
	}
	if db.Stats().Selects != selBefore {
		t.Fatal("second multi-key read hit the database")
	}
	// Status transition moves the row between keys.
	if _, err := reg.Objects("Invite").Filter("id", objs[0].ID()).
		Update(orm.Fields{"status": "accepted"}); err != nil {
		t.Fatal(err)
	}
	pending, _ := reg.Objects("Invite").Filter("to_user_id", 1).Filter("status", weird).All()
	if len(pending) != 0 {
		t.Fatalf("row did not leave the old key's list: %v", pending)
	}
	accepted, _ := reg.Objects("Invite").Filter("to_user_id", 1).Filter("status", "accepted").All()
	if len(accepted) != 2 {
		t.Fatalf("accepted list has %d rows, want 2", len(accepted))
	}
	// Every key the store holds, one with an escaped '%' among them, parses
	// back to its values and matches the database.
	if _, err := co.Rows(sqldb.I64(1), sqldb.Str(weirder)); err != nil {
		t.Fatal(err)
	}
	s.requireFresh(t)
}

// TestFilterOrderDoesNotMatter: the interceptor matches equality filters by
// field name, not position.
func TestFilterOrderDoesNotMatter(t *testing.T) {
	s := newStack(t)
	s.cacheable(t, Spec{
		Name: "wall_by_user_sender", Class: FeatureQuery, MainModel: "Wall",
		WhereFields: []string{"user_id", "content"},
	})
	_, _ = s.reg.Insert("Wall", orm.Fields{"user_id": 3, "content": "x"})

	if _, err := s.reg.Objects("Wall").Filter("user_id", 3).Filter("content", "x").All(); err != nil {
		t.Fatal(err)
	}
	selBefore := s.db.Stats().Selects
	// Reversed filter order must hit the same cache entry.
	if _, err := s.reg.Objects("Wall").Filter("content", "x").Filter("user_id", 3).All(); err != nil {
		t.Fatal(err)
	}
	if s.db.Stats().Selects != selBefore {
		t.Fatal("reversed filter order missed the cache")
	}
}

// TestCountQueryNegativeGuard: counts can legitimately pass through zero
// when triggered deletes race reads; verify Incr handles negative deltas on
// a zero count without corrupting the entry.
func TestCountQueryDownToZero(t *testing.T) {
	s := newStack(t)
	s.cacheable(t, Spec{
		Name: "wall_count0", Class: CountQuery, MainModel: "Wall",
		WhereFields: []string{"user_id"},
	})
	o, _ := s.reg.Insert("Wall", orm.Fields{"user_id": 9, "content": "only"})
	n, _ := s.reg.Objects("Wall").Filter("user_id", 9).Count()
	if n != 1 {
		t.Fatalf("count = %d", n)
	}
	_, _ = s.reg.Objects("Wall").Filter("id", o.ID()).Delete()
	n, _ = s.reg.Objects("Wall").Filter("user_id", 9).Count()
	if n != 0 {
		t.Fatalf("count after delete = %d", n)
	}
	// And back up.
	_, _ = s.reg.Insert("Wall", orm.Fields{"user_id": 9, "content": "again"})
	n, _ = s.reg.Objects("Wall").Filter("user_id", 9).Count()
	if n != 1 {
		t.Fatalf("count after reinsert = %d", n)
	}
}
