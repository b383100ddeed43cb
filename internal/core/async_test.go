package core

import (
	"fmt"
	"testing"
	"time"

	"cachegenie/internal/kvcache"
	"cachegenie/internal/orm"
	"cachegenie/internal/rowlist"
	"cachegenie/internal/sqldb"
)

// newAsyncStack builds the standard test stack with the invalidation bus
// armed (async trigger propagation).
func newAsyncStack(t testing.TB, strategy Strategy) *stack {
	t.Helper()
	s, _ := newAsyncStackWindow(t, strategy, time.Millisecond)
	return s
}

// newAsyncStackWindow is newAsyncStack with the bus's window given: under a
// long one nothing reaches the cache until FlushInvalidations. The Genie
// reaches the store through the returned countingCache.
func newAsyncStackWindow(t testing.TB, strategy Strategy, window time.Duration) (*stack, *countingCache) {
	t.Helper()
	var cc *countingCache
	s := newStackConfig(t, func(store *kvcache.Store) kvcache.Cache {
		cc = &countingCache{Store: store}
		return cc
	}, Config{AsyncInvalidation: true, BatchWindow: window})
	s.cacheable(t, Spec{
		Name: "profile", Class: FeatureQuery, MainModel: "Profile",
		WhereFields: []string{"user_id"}, Strategy: strategy,
	})
	s.cacheable(t, Spec{
		Name: "wall_count", Class: CountQuery, MainModel: "Wall",
		WhereFields: []string{"user_id"}, Strategy: strategy,
	})
	return s, cc
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
// see what the cache is about to hold. The memo goes when the bus has applied
// the op's window — stored, or overtaken by a later invalidation in it — after
// which a read must go back to the database.
func TestAsyncPendingPopulateAnswersRepeatedMisses(t *testing.T) {
	s, _ := newAsyncStackWindow(t, Invalidate, time.Hour)
	if _, err := s.reg.Insert("Profile", orm.Fields{"user_id": 1, "bio": "v1"}); err != nil {
		t.Fatal(err)
	}
	s.g.FlushInvalidations()
	key := s.g.Objects()[0].MakeKey(sqldb.I64(1))
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
	// again: the second delete empties the key after the populate in their
	// window, and the next read must not be served the value it carried.
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

// TestAsyncWindowComposesPerKey runs each case's ops inside one long bus
// window and checks what the window's flush sent to the cache and what the
// key holds after it: per key, a window's ops reach the cache as one op in one
// batch, which the node replays in record order.
func TestAsyncWindowComposesPerKey(t *testing.T) {
	const profileKey, countKey = "cg:profile:{1}", "cg:wall_count:{1}"
	type env struct {
		t *testing.T
		s *stack
	}
	profile := func(e env, bio string) {
		if _, err := e.s.reg.Insert("Profile", orm.Fields{"user_id": 1, "bio": bio}); err != nil {
			e.t.Fatal(err)
		}
	}
	update := func(e env, bio string) {
		if _, err := e.s.reg.Objects("Profile").Filter("user_id", 1).Update(orm.Fields{"bio": bio}); err != nil {
			e.t.Fatal(err)
		}
	}
	read := func(e env) {
		if _, err := e.s.reg.Objects("Profile").Filter("user_id", 1).All(); err != nil {
			e.t.Fatal(err)
		}
	}
	post := func(e env) {
		if _, err := e.s.reg.Insert("Wall", orm.Fields{"user_id": 1, "content": "x", "date_posted": time.Unix(1000, 0)}); err != nil {
			e.t.Fatal(err)
		}
	}
	count := func(e env) {
		if _, err := e.s.reg.Objects("Wall").Filter("user_id", 1).Count(); err != nil {
			e.t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name     string
		strategy Strategy
		// setup runs, and is flushed, before the window; window runs inside it.
		setup, window func(env)
		key           string
		batches       string
		// want is the key's entry after the window: "" for absent, a count,
		// or the number of cached profile rows as "rows=N".
		want string
	}{
		{
			name: "two deletes of a key reach the cache as one delete", strategy: Invalidate,
			setup:  func(e env) { profile(e, "v1"); e.s.g.FlushInvalidations(); read(e) },
			window: func(e env) { update(e, "v2"); update(e, "v3") },
			key:    profileKey, batches: "[[delete]]", want: "",
		},
		{
			name: "incrs sum", strategy: UpdateInPlace,
			setup:  func(e env) { post(e); post(e); e.s.g.FlushInvalidations(); count(e) },
			window: func(e env) { post(e); post(e); post(e) },
			key:    countKey, batches: "[[incr]]", want: "5",
		},
		{
			name: "populate then delete leaves the key absent", strategy: Invalidate,
			setup:  func(e env) { profile(e, "v1") },
			window: func(e env) { read(e); update(e, "v2") },
			key:    profileKey, batches: "[[edit]]", want: "",
		},
		{
			name: "delete then populate leaves the populated entry", strategy: Invalidate,
			setup:  func(e env) { profile(e, "v1") },
			window: func(e env) { update(e, "v2"); read(e) },
			key:    profileKey, batches: "[[edit]]", want: "rows=1",
		},
		{
			name: "populate then list edit leaves the edited list", strategy: UpdateInPlace,
			setup:  func(e env) { profile(e, "v1") },
			window: func(e env) { read(e); profile(e, "v2") },
			key:    profileKey, batches: "[[edit]]", want: "rows=2",
		},
		{
			name: "populate then incr leaves the exact count", strategy: UpdateInPlace,
			setup:  func(e env) { post(e); post(e) },
			window: func(e env) { count(e); post(e) },
			key:    countKey, batches: "[[edit]]", want: "3",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, cc := newAsyncStackWindow(t, tc.strategy, time.Hour)
			e := env{t, s}
			tc.setup(e)
			s.g.FlushInvalidations()
			cc.reset()
			tc.window(e)
			s.g.FlushInvalidations()
			if got := fmt.Sprint(cc.batches); got != tc.batches {
				t.Errorf("the window reached the cache as %s, want %s", got, tc.batches)
			}
			for _, op := range cc.perOp {
				if op != "get" { // a read's own lookup
					t.Errorf("the window made per-op cache calls: %v", cc.perOp)
					break
				}
			}
			got := ""
			if raw, ok := s.cache.Get(tc.key); !ok {
			} else if tc.key == countKey {
				got = string(raw)
			} else if p, err := rowlist.Decode(raw); err != nil {
				t.Fatalf("cached %s does not decode: %v", tc.key, err)
			} else {
				got = fmt.Sprintf("rows=%d", len(p.Rows))
			}
			if got != tc.want {
				t.Errorf("%s holds %q after the window, want %q", tc.key, got, tc.want)
			}
			if _, ok := s.g.pending.Load(tc.key); ok {
				t.Errorf("%s is still pending after its window was applied", tc.key)
			}
			// Whatever the cache holds now matches the database.
			co := s.g.Objects()[0]
			if tc.key == countKey {
				co = s.g.Objects()[1]
			}
			checkAgainstDB(t, s, co, sqldb.I64(1))
		})
	}
}

// TestAsyncWindowEditsAListOnce: two statements that edit one cached list in
// one bus window reach the cache as one edit in one batch, which carries both
// edits, not as an exchange per edit.
func TestAsyncWindowEditsAListOnce(t *testing.T) {
	s, cc := newAsyncStackWindow(t, UpdateInPlace, time.Hour)
	for _, bio := range []string{"v1", "v2"} {
		if _, err := s.reg.Insert("Profile", orm.Fields{"user_id": 1, "bio": bio}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.reg.Objects("Profile").Filter("user_id", 1).All(); err != nil {
		t.Fatal(err)
	}
	s.g.FlushInvalidations()
	cc.reset()
	if _, err := s.reg.Insert("Profile", orm.Fields{"user_id": 1, "bio": "v3"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.db.Exec("UPDATE profiles SET bio = 'v4' WHERE bio = 'v1'"); err != nil {
		t.Fatal(err)
	}
	s.g.FlushInvalidations()
	if got := fmt.Sprint(cc.batches); got != "[[edit]]" || len(cc.perOp) != 0 {
		t.Fatalf("two list edits reached the cache as batches %s and per-op calls %v, want [[edit]] and none", got, cc.perOp)
	}
	before := s.g.Stats().Hits
	checkAgainstDB(t, s, s.g.Objects()[0], sqldb.I64(1))
	if s.g.Stats().Hits != before+1 {
		t.Fatal("the edited list was not served from the cache")
	}
}

// TestAsyncEditLandsOnAConcurrentWrite is the bus route of
// checkEditLandsOnAConcurrentWrite.
func TestAsyncEditLandsOnAConcurrentWrite(t *testing.T) {
	s, cc := newAsyncStackWindow(t, UpdateInPlace, time.Hour)
	checkEditLandsOnAConcurrentWrite(t, s, cc, s.g.Objects()[0])
}
