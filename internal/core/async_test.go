package core

import (
	"testing"
	"time"

	"cachegenie/internal/kvcache"
	"cachegenie/internal/orm"
	"cachegenie/internal/sqldb"
)

// newAsyncStack builds the standard test stack with the invalidation bus
// armed (async trigger propagation).
func newAsyncStack(t testing.TB, strategy Strategy) *stack {
	t.Helper()
	return newAsyncStackWindow(t, strategy, time.Millisecond)
}

// newAsyncStackWindow is newAsyncStack with the bus's coalescing window given:
// under a long one nothing reaches the cache until FlushInvalidations.
func newAsyncStackWindow(t testing.TB, strategy Strategy, window time.Duration) *stack {
	t.Helper()
	db := sqldb.MustOpen(sqldb.Config{})
	reg := orm.NewRegistry(db)
	reg.MustRegister(&orm.ModelDef{
		Name:  "Profile",
		Table: "profiles",
		Fields: []orm.FieldDef{
			{Name: "user_id", Type: sqldb.TypeInt, NotNull: true},
			{Name: "bio", Type: sqldb.TypeText},
		},
		Indexes: [][]string{{"user_id"}},
	})
	reg.MustRegister(&orm.ModelDef{
		Name:  "Wall",
		Table: "wall",
		Fields: []orm.FieldDef{
			{Name: "user_id", Type: sqldb.TypeInt, NotNull: true},
			{Name: "content", Type: sqldb.TypeText},
			{Name: "date_posted", Type: sqldb.TypeTime},
		},
		Indexes: [][]string{{"user_id"}},
	})
	if err := reg.CreateTables(); err != nil {
		t.Fatal(err)
	}
	cache := kvcache.New(0)
	g, err := New(Config{
		Registry: reg, DB: db, Cache: cache,
		AsyncInvalidation: true, BatchWindow: window,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	s := &stack{db: db, reg: reg, cache: cache, g: g}
	s.cacheable(t, Spec{
		Name: "profile", Class: FeatureQuery, MainModel: "Profile",
		WhereFields: []string{"user_id"}, Strategy: strategy,
	})
	s.cacheable(t, Spec{
		Name: "wall_count", Class: CountQuery, MainModel: "Wall",
		WhereFields: []string{"user_id"}, Strategy: strategy,
	})
	return s
}

func TestAsyncUpdateInPlaceConvergesAfterFlush(t *testing.T) {
	s := newAsyncStack(t, UpdateInPlace)

	if _, err := s.reg.Insert("Profile", orm.Fields{"user_id": 1, "bio": "v1"}); err != nil {
		t.Fatal(err)
	}
	s.g.FlushInvalidations()

	// Populate the cache (miss -> DB -> async Add), then drain so the entry
	// is actually resident.
	rows, err := s.reg.Objects("Profile").Filter("user_id", 1).All()
	if err != nil || len(rows) != 1 {
		t.Fatalf("rows=%d err=%v", len(rows), err)
	}
	s.g.FlushInvalidations()
	if st := s.g.Stats(); st.Misses != 1 {
		t.Fatalf("misses = %d, want 1", st.Misses)
	}

	// A write's trigger ops ride the bus; after draining, the cached entry
	// must reflect the update and serve it as a hit.
	if _, err := s.reg.Objects("Profile").Filter("user_id", 1).Update(orm.Fields{"bio": "v2"}); err != nil {
		t.Fatal(err)
	}
	s.g.FlushInvalidations()
	rows, err = s.reg.Objects("Profile").Filter("user_id", 1).All()
	if err != nil || len(rows) != 1 {
		t.Fatalf("rows=%d err=%v", len(rows), err)
	}
	if got := rows[0].Str("bio"); got != "v2" {
		t.Fatalf("cached bio = %q, want v2", got)
	}
	st := s.g.Stats()
	if st.Hits < 1 {
		t.Fatalf("read not served from cache: %+v", st)
	}
	if st.TriggerUpdates < 1 {
		t.Fatalf("trigger update never applied: %+v", st)
	}
	if bs := s.g.InvStats(); bs.Enqueued == 0 || bs.Applied+bs.Coalesced != bs.Enqueued {
		t.Fatalf("bus stats inconsistent: %+v", bs)
	}
}

// While a miss's repopulation is still on the bus, later reads of the key are
// answered with what it loaded — no second database load, no refused Add — and
// see what the cache is about to hold. The memo goes when the bus is done with
// the op: applied, or coalesced away under a later invalidation, after which a
// read must go back to the database.
func TestAsyncPendingPopulateAnswersRepeatedMisses(t *testing.T) {
	s := newAsyncStackWindow(t, Invalidate, time.Hour)
	if _, err := s.reg.Insert("Profile", orm.Fields{"user_id": 1, "bio": "v1"}); err != nil {
		t.Fatal(err)
	}
	s.g.FlushInvalidations()
	key := "cg:profile:1"
	read := func(wantBio string, wantHits, wantMisses int64) {
		t.Helper()
		rows, err := s.reg.Objects("Profile").Filter("user_id", 1).All()
		if err != nil || len(rows) != 1 || rows[0].Str("bio") != wantBio {
			t.Fatalf("read = %v, %v; want one row with bio %q", rows, err, wantBio)
		}
		if st := s.g.Stats(); st.Hits != wantHits || st.Misses != wantMisses {
			t.Fatalf("hits/misses = %d/%d, want %d/%d", st.Hits, st.Misses, wantHits, wantMisses)
		}
	}
	read("v1", 0, 1) // loads, publishes the populate
	read("v1", 1, 1) // the populate is pending: no second load
	if _, ok := s.cache.Get(key); ok {
		t.Fatal("the populate landed inside an hour-long window; the reads above proved nothing")
	}
	s.g.FlushInvalidations()
	if _, ok := s.cache.Get(key); !ok || s.g.Stats().PopulateRefused != 0 {
		t.Fatalf("after the drain: cached %v, %d refused populates", ok, s.g.Stats().PopulateRefused)
	}

	// Invalidate, read (a miss whose populate stays pending), invalidate
	// again: the second delete coalesces the populate away, and the next read
	// must not be served the value it carried.
	update := func(bio string) {
		t.Helper()
		if _, err := s.reg.Objects("Profile").Filter("user_id", 1).Update(orm.Fields{"bio": bio}); err != nil {
			t.Fatal(err)
		}
	}
	update("v2")
	s.g.FlushInvalidations()
	read("v2", 1, 2)
	update("v3")
	read("v2", 2, 2) // as stale as the cache would be, by the bus lag
	s.g.FlushInvalidations()
	read("v3", 2, 3)
}

func TestAsyncCountIncrementsSerializeWithPopulate(t *testing.T) {
	s := newAsyncStack(t, UpdateInPlace)
	ts := time.Unix(1000, 0)

	// Seed two posts, populate the count, then interleave inserts with the
	// pending populate — per-key FIFO on the bus must keep the count exact.
	for i := 0; i < 2; i++ {
		if _, err := s.reg.Insert("Wall", orm.Fields{"user_id": 7, "content": "x", "date_posted": ts}); err != nil {
			t.Fatal(err)
		}
	}
	n, err := s.reg.Objects("Wall").Filter("user_id", 7).Count()
	if err != nil || n != 2 {
		t.Fatalf("count=%d err=%v", n, err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.reg.Insert("Wall", orm.Fields{"user_id": 7, "content": "y", "date_posted": ts}); err != nil {
			t.Fatal(err)
		}
	}
	s.g.FlushInvalidations()
	n, err = s.reg.Objects("Wall").Filter("user_id", 7).Count()
	if err != nil || n != 5 {
		t.Fatalf("count after async incrs = %d (err=%v), want 5", n, err)
	}
}

func TestAsyncInvalidateStrategyDropsKeys(t *testing.T) {
	s := newAsyncStack(t, Invalidate)

	if _, err := s.reg.Insert("Profile", orm.Fields{"user_id": 3, "bio": "a"}); err != nil {
		t.Fatal(err)
	}
	s.g.FlushInvalidations()
	if _, err := s.reg.Objects("Profile").Filter("user_id", 3).All(); err != nil {
		t.Fatal(err)
	}
	s.g.FlushInvalidations()

	if _, err := s.reg.Objects("Profile").Filter("user_id", 3).Update(orm.Fields{"bio": "b"}); err != nil {
		t.Fatal(err)
	}
	s.g.FlushInvalidations()
	rows, err := s.reg.Objects("Profile").Filter("user_id", 3).All()
	if err != nil || len(rows) != 1 || rows[0].Str("bio") != "b" {
		t.Fatalf("rows=%v err=%v", rows, err)
	}
	if st := s.g.Stats(); st.TriggerDeletes == 0 {
		t.Fatalf("no invalidations recorded: %+v", st)
	}
}

func TestAsyncDisabledHasNoBus(t *testing.T) {
	s := newStack(t)
	if bs := s.g.InvStats(); bs != (s.g.InvStats()) || bs.Enqueued != 0 {
		t.Fatalf("sync genie reports bus activity: %+v", bs)
	}
	// Flush/Close are harmless no-ops in sync mode.
	s.g.FlushInvalidations()
	s.g.Close()
}
