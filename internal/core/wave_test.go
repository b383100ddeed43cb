package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"cachegenie/internal/kvcache"
	"cachegenie/internal/orm"
	"cachegenie/internal/sqldb"
)

func wallCountSpec() Spec {
	return Spec{Name: "wall_count", Class: CountQuery, MainModel: "Wall", WhereFields: []string{"user_id"}}
}

// newClassesStack declares one object of every class on a counting stack and gives
// users 1 and 2 a profile, a wall post and a group each.
func newClassesStack(t *testing.T) (*stack, *countingCache) {
	s, cc := newCountingStack(t)
	s.cacheable(t, profileSpec(UpdateInPlace))
	s.cacheable(t, wallCountSpec())
	s.cacheable(t, topkSpec(3, 2))
	s.cacheable(t, linkSpec())
	for uid := 1; uid <= 2; uid++ {
		if _, err := s.reg.Insert("Profile", orm.Fields{"user_id": uid, "bio": fmt.Sprint("bio ", uid)}); err != nil {
			t.Fatal(err)
		}
		postAt(s, t, uid, fmt.Sprint("post ", uid), time.Unix(int64(1000+uid), 0))
		g, err := s.reg.Insert("Group", orm.Fields{"name": fmt.Sprint("group ", uid)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.reg.Insert("Membership", orm.Fields{"user_id": uid, "group_id": g.ID()}); err != nil {
			t.Fatal(err)
		}
	}
	cc.reset()
	return s, cc
}

// One wave over all four cache classes is one batch of gets, cold and warm;
// what it returns is what the same queries return one at a time; and a query
// no object answers rides along to the database untouched.
func TestWaveReadsEveryClassInOneBatch(t *testing.T) {
	s, cc := newClassesStack(t)
	run := func() (profile orm.Object, n int64, posts, groups, all []orm.Object) {
		w := s.reg.Wave()
		p := w.Get(s.reg.Objects("Profile").Filter("user_id", 1))
		c := w.Count(s.reg.Objects("Wall").Filter("user_id", 1))
		ps := w.All(wallQS(s, 1, 2))
		gs := w.All(groupsOf(s, 1))
		un := w.All(s.reg.Objects("Group")) // no cached object matches
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return *p, *c, *ps, *gs, *un
	}
	for _, temp := range []string{"cold", "warm"} {
		before, selects := s.g.Stats(), s.db.Stats().Selects
		profile, n, posts, groups, all := run()
		if profile.Str("bio") != "bio 1" || n != 1 || len(posts) != 1 || len(groups) != 1 || len(all) != 2 {
			t.Errorf("%s wave returned %v, %d, %v, %v, %v", temp, profile, n, posts, groups, all)
		}
		if len(cc.batches) != 1 || kindCounts(cc.batches[0]) != "4 get" || len(cc.perOp) != map[string]int{"cold": 4, "warm": 0}[temp] {
			t.Errorf("%s wave reached the cache as batches %v and ops %v, want one batch of 4 gets (and 4 adds when cold)", temp, cc.batches, cc.perOp)
		}
		after := s.g.Stats()
		hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
		if want := map[string][2]int64{"cold": {0, 4}, "warm": {4, 0}}[temp]; hits != want[0] || misses != want[1] {
			t.Errorf("%s wave counted %d hits and %d misses", temp, hits, misses)
		}
		if got, want := s.db.Stats().Selects-selects, misses+1; got != want {
			t.Errorf("%s wave ran %d SELECTs, want %d", temp, got, want)
		}
		cc.reset()
	}
	if st := s.g.Stats(); st.Waves != 2 || st.WaveKeys != 8 {
		t.Errorf("Waves = %d, WaveKeys = %d, want 2 and 8", st.Waves, st.WaveKeys)
	}
}

// A key two queries of one wave share is fetched once and, cold, loaded from
// the database once: the parked answer serves the first, and the second reads
// the cache after the first has populated it.
func TestWaveDuplicateKeyCostsOneFetchOneLoad(t *testing.T) {
	s, cc := newClassesStack(t)
	wave := func() {
		w := s.reg.Wave()
		a := w.Get(s.reg.Objects("Profile").Filter("user_id", 1))
		b := w.Get(s.reg.Objects("Profile").Filter("user_id", 1))
		w.Get(s.reg.Objects("Profile").Filter("user_id", 2))
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		if a.Str("bio") != "bio 1" || b.Str("bio") != "bio 1" {
			t.Errorf("the shared key answered %v and %v", *a, *b)
		}
	}
	selects := s.db.Stats().Selects
	wave()
	if len(cc.batches) != 1 || kindCounts(cc.batches[0]) != "2 get" {
		t.Errorf("batches %v, want one carrying the 2 distinct keys", cc.batches)
	}
	if got := fmt.Sprint(cc.perOp); got != "[add get add]" {
		t.Errorf("per-op calls %s, want [add get add]: populate, the second lookup's own get, populate", got)
	}
	if got := s.db.Stats().Selects - selects; got != 2 {
		t.Errorf("%d SELECTs for 2 distinct cold keys", got)
	}
	if st := s.g.Stats(); st.Misses != 2 || st.Hits != 1 {
		t.Errorf("hits %d, misses %d; want 1 and 2", st.Hits, st.Misses)
	}
}

// A wave of a single cacheable query is a plain get: no batch is built.
func TestWaveOfOneKeyIsAPlainGet(t *testing.T) {
	s, cc := newClassesStack(t)
	w := s.reg.Wave()
	w.Get(s.reg.Objects("Profile").Filter("user_id", 1))
	w.All(s.reg.Objects("Group"))
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if len(cc.batches) != 0 || fmt.Sprint(cc.perOp) != "[get add]" {
		t.Errorf("batches %v, per-op calls %v; want none and [get add]", cc.batches, cc.perOp)
	}
	if st := s.g.Stats(); st.Waves != 0 {
		t.Errorf("Waves = %d for a one-key wave", st.Waves)
	}
}

// getOnlyCache hides the store's batch entry point, as a cache without one.
type getOnlyCache struct{ kvcache.Cache }

// A cache that cannot batch answers a wave through the per-op fallback.
func TestWaveOverCacheWithoutBatching(t *testing.T) {
	s := newStackOver(t, func(store *kvcache.Store) kvcache.Cache { return getOnlyCache{store} })
	s.cacheable(t, profileSpec(UpdateInPlace))
	s.cacheable(t, wallCountSpec())
	if _, err := s.reg.Insert("Profile", orm.Fields{"user_id": 1, "bio": "b"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		w := s.reg.Wave()
		p := w.Get(s.reg.Objects("Profile").Filter("user_id", 1))
		n := w.Count(s.reg.Objects("Wall").Filter("user_id", 1))
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		if p.Str("bio") != "b" || *n != 0 {
			t.Errorf("round %d: %v, %d", i, *p, *n)
		}
	}
	if st := s.g.Stats(); st.Hits != 2 || st.Misses != 2 {
		t.Errorf("hits %d, misses %d; want 2 and 2", st.Hits, st.Misses)
	}
}

// Keys render their first value as the placement tag the ring routes on, a
// string value can neither open nor close a tag, and a key costs one
// allocation.
func TestMakeKeyGolden(t *testing.T) {
	s := newStack(t)
	co := s.cacheable(t, profileSpec(UpdateInPlace))
	at := time.Date(2012, 3, 4, 5, 6, 7, 8, time.UTC)
	for _, tc := range []struct {
		vals []sqldb.Value
		want string
	}{
		{nil, "cg:user_profile"},
		{[]sqldb.Value{sqldb.I64(42)}, "cg:user_profile:{42}"},
		{[]sqldb.Value{sqldb.I64(-7), sqldb.Bool(true), sqldb.Bool(false)}, "cg:user_profile:{-7}:1:0"},
		{[]sqldb.Value{sqldb.Time(at)}, "cg:user_profile:{1330837567000000}"},
		{[]sqldb.Value{sqldb.F64(1.5), sqldb.F64(1e21), sqldb.F64(-0.25)}, "cg:user_profile:{1.5}:1e+21:-0.25"},
		{[]sqldb.Value{{Null: true}, sqldb.I64(1)}, "cg:user_profile:{~null~}:1"},
		{[]sqldb.Value{sqldb.Str("a b:c%d")}, "cg:user_profile:{a%20b%3Ac%25d}"},
		// Every byte a protocol key refuses is escaped too, so the key is
		// still one a cache node accepts.
		{[]sqldb.Value{sqldb.Str("tab\tnl\r\n\x00\x1f\x7f~")}, "cg:user_profile:{tab%09nl%0D%0A%00%1F%7F~}"},
		// An empty first value leaves an empty tag: the ring hashes the
		// whole key.
		{[]sqldb.Value{sqldb.Str(""), sqldb.Str("plain")}, "cg:user_profile:{}:plain"},
		// Braces are escaped wherever they occur, so the tag is always
		// exactly the first value.
		{[]sqldb.Value{sqldb.Str("}{x}"), sqldb.Str("{y}")}, "cg:user_profile:{%7D%7Bx%7D}:%7By%7D"},
	} {
		if got := co.MakeKey(tc.vals...); got != tc.want {
			t.Errorf("MakeKey(%v) = %q, want %q", tc.vals, got, tc.want)
		}
	}
	vals := []sqldb.Value{sqldb.I64(123456), sqldb.Str("some user name")}
	if n := testing.AllocsPerRun(100, func() { _ = co.MakeKey(vals...) }); n > 1 {
		t.Errorf("MakeKey allocates %.0f times, want at most 1", n)
	}
}

// Reads dispatch on a published snapshot of the declared objects, so they
// neither block on nor race with a registration in progress.
func TestReadsDoNotSerialiseOnRegistration(t *testing.T) {
	s := newStack(t)
	s.cacheable(t, profileSpec(UpdateInPlace))
	if _, err := s.reg.Insert("Profile", orm.Fields{"user_id": 1, "bio": "b"}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := s.reg.Objects("Profile").Filter("user_id", 1).Get(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		spec := wallCountSpec()
		spec.Name = fmt.Sprint("wall_count_", i)
		s.cacheable(t, spec)
	}
	wg.Wait()
	// The registration lock is free to hold while reads proceed.
	s.g.mu.Lock()
	_, err := s.reg.Objects("Profile").Filter("user_id", 1).Get()
	s.g.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if n, err := s.reg.Objects("Wall").Filter("user_id", 1).Count(); err != nil || n != 0 {
		t.Errorf("count through the first of 20 registered count objects: %d, %v", n, err)
	}
}
