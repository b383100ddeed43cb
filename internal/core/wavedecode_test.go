package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"cachegenie/internal/cacheproto"
	"cachegenie/internal/kvcache"
	"cachegenie/internal/orm"
	"cachegenie/internal/rowlist"
	"cachegenie/internal/sqldb"
)

// parkedHit is one entry of a hand-built wave: the object read and the value the
// batch found for it (nil for a miss).
type parkedHit struct {
	co  *CachedObject
	raw []byte
}

// parkWave builds the lookups a wave's batch leaves behind for entries and
// decodes them as readWave does.
func parkWave(entries []parkedHit) waveReads {
	reads := make(waveReads, len(entries))
	for i, e := range entries {
		reads[i] = lookup{co: e.co, parked: true, hit: e.raw != nil, raw: e.raw}
	}
	decodeWave(reads)
	return reads
}

func wallRows(n int) []sqldb.Row {
	rows := make([]sqldb.Row, n)
	for i := range rows {
		rows[i] = sqldb.Row{sqldb.I64(int64(i + 1)), sqldb.I64(1), sqldb.Str(fmt.Sprint("post ", i)), sqldb.Time(time.Unix(int64(1000-i), 0))}
	}
	return rows
}

// badRowPayload frames as a one-row payload, but its row's null flag is 2.
func badRowPayload(t *testing.T) []byte {
	t.Helper()
	b := rowlist.Encode(rowlist.List{Rows: []sqldb.Row{{sqldb.I64(1)}}})
	b[9] = 2 // version, flag, count, row length, 4-byte value count, type, null flag
	if _, err := rowlist.FrameOf(b); err != nil {
		t.Fatalf("the bad row's payload does not frame: %v", err)
	}
	if _, err := rowlist.Decode(b); err == nil {
		t.Fatal("the bad row's payload decodes")
	}
	return b
}

// A wave's hits decode, together, to exactly what decoding each on its own
// gives: empty lists, a top-K list holding more than K, a count entry and a
// miss among them. A corrupt entry mid-wave — one that does not frame, one
// that frames and then fails — is left undecoded, raw bytes kept, for its
// lookup to drop and reload; its siblings on either side still decode.
func TestWaveDecodeEqualsDecodePayload(t *testing.T) {
	s := newStack(t)
	feature := s.cacheable(t, profileSpec(UpdateInPlace))
	topk := s.cacheable(t, topkSpec(2, 3))
	count := s.cacheable(t, wallCountSpec())
	entries := []parkedHit{
		{feature, rowlist.Encode(rowlist.List{Rows: goldenRows()})},
		{feature, rowlist.Encode(rowlist.List{Exhaustive: true})},
		{count, []byte("12")},
		{topk, rowlist.Encode(rowlist.List{Rows: wallRows(5)})},
		{feature, []byte("garbage")},
		{feature, badRowPayload(t)},
		{feature, nil},
		{topk, rowlist.Encode(rowlist.List{Exhaustive: true, Rows: wallRows(1)})},
		{feature, rowlist.Encode(rowlist.List{Rows: wallRows(10)})},
	}
	reads := parkWave(entries)
	for i, e := range entries {
		l := &reads[i]
		want, err := rowlist.Decode(e.raw)
		switch {
		case e.raw == nil || e.co == count:
			if l.decoded || !slices.Equal(l.raw, e.raw) {
				t.Errorf("entry %d (miss or count): decoded %v, raw %q", i, l.decoded, l.raw)
			}
		case err != nil:
			if l.decoded || !slices.Equal(l.raw, e.raw) {
				t.Errorf("corrupt entry %d: decoded %v, raw %q kept", i, l.decoded, l.raw)
			}
		case !l.decoded || !reflect.DeepEqual(l.rows, want.Rows):
			t.Errorf("entry %d: wave decode %v (decoded %v), decodePayload %v", i, l.rows, l.decoded, want.Rows)
		}
	}
	// The top-K list holds K plus the reserve; its lookup serves the first K.
	rows, err := topk.rows(&reads[3])
	if want := wallRows(2); err != nil || !reflect.DeepEqual(rows, want) || cap(rows) != 2 {
		t.Errorf("top-K hit served %v (cap %d, %v), want %v", rows, cap(rows), err, want)
	}
}

// On a stack: the corrupt entry in the middle of a wave costs its own key one
// miss, one SELECT and a repopulate; every other key of the wave is a hit,
// and the wave returns what it returned before the corruption.
func TestWaveCorruptEntryMidWaveReloadsAlone(t *testing.T) {
	s, _ := newClassesStack(t)
	run := func() string {
		w := s.reg.Wave()
		p1 := w.Get(s.reg.Objects("Profile").Filter("user_id", 1))
		posts := w.All(wallQS(s, 1, 2))
		groups := w.All(groupsOf(s, 1))
		p2 := w.Get(s.reg.Objects("Profile").Filter("user_id", 2))
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(p1.Str("bio"), *posts, *groups, p2.Str("bio"))
	}
	want := run()
	var co *CachedObject
	for _, o := range s.g.Objects() {
		if o.Spec().Name == "latest_wall_posts" {
			co = o
		}
	}
	key := co.MakeKey(sqldb.I64(1))
	good, ok := s.cache.Get(key)
	if !ok {
		t.Fatalf("%s not cached after a cold wave", key)
	}
	for _, bad := range [][]byte{[]byte("garbage"), badRowPayload(t)} {
		s.cache.Set(key, bad, 0)
		before, selects := s.g.Stats(), s.db.Stats().Selects
		if got := run(); got != want {
			t.Errorf("with %q parked mid-wave the wave returned %s, want %s", bad, got, want)
		}
		after := s.g.Stats()
		if after.Misses-before.Misses != 1 || after.Hits-before.Hits != 3 || s.db.Stats().Selects-selects != 1 {
			t.Errorf("with %q: %d misses, %d hits, %d SELECTs; want 1, 3 and 1", bad,
				after.Misses-before.Misses, after.Hits-before.Hits, s.db.Stats().Selects-selects)
		}
		if got, _ := s.cache.Get(key); !slices.Equal(got, good) {
			t.Errorf("%s reloaded as %q, want %q", key, got, good)
		}
	}
}

// Everything a wave hands out is capped to its own: appending to a decoded
// row, a decoded list, a wave's []Object or a batch result's Data never
// writes into what a sibling holds.
func TestWaveResultsAppendAlone(t *testing.T) {
	s := newStack(t)
	feature := s.cacheable(t, profileSpec(UpdateInPlace))
	reads := parkWave([]parkedHit{
		{feature, rowlist.Encode(rowlist.List{Rows: goldenRows()})},
		{feature, rowlist.Encode(rowlist.List{Rows: goldenRows()})},
	})
	a, b := reads[0].rows, reads[1].rows
	_ = append(a, sqldb.Row{sqldb.I64(99)})
	for i := range a {
		_ = append(a[i], sqldb.Str("grown")) // the last row of a ends where b begins
	}
	if !rowsEqual(a, goldenRows()) || !rowsEqual(b, goldenRows()) {
		t.Errorf("appending to one decoded list changed a list: %v / %v", a, b)
	}

	// A wave's Objects.
	s.cacheable(t, topkSpec(3, 1))
	for uid := 1; uid <= 2; uid++ {
		for i := 0; i < 2; i++ {
			postAt(s, t, uid, fmt.Sprint("u", uid, " p", i), time.Unix(int64(100*uid+i), 0))
		}
	}
	for pass := 0; pass < 2; pass++ { // cold, then from the cache
		w := s.reg.Wave()
		first, second := w.All(wallQS(s, 1, 3)), w.All(wallQS(s, 2, 3))
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprint(*second)
		_ = append(*first, (*first)[0])
		if got := fmt.Sprint(*second); got != want || len(*second) != 2 {
			t.Errorf("pass %d: appending to one query's Objects changed the next's: %s, want %s", pass, got, want)
		}
	}

	// A batch's values, from the store and over the wire.
	srv := cacheproto.NewServer(kvcache.New(0))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	cli, err := cacheproto.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cli.Close() })
	for name, c := range map[string]kvcache.Cache{"store": kvcache.New(0), "client": cli} {
		ops := make([]kvcache.BatchOp, 3)
		for i := range ops {
			key := fmt.Sprint("k", i)
			c.Set(key, []byte(fmt.Sprint("value ", i)), 0)
			ops[i] = kvcache.BatchOp{Kind: kvcache.BatchGet, Key: key}
		}
		res := c.ApplyBatch(ops)
		_ = append(res[0].Data, "xxxxxxxx"...)
		_ = append(res[1].Data, "yyyyyyyy"...)
		for i, r := range res {
			if want := fmt.Sprint("value ", i); string(r.Data) != want {
				t.Errorf("%s: after appends result %d reads %q, want %q", name, i, r.Data, want)
			}
		}
	}
}

// TestWaveReadAllocs is the ceiling on the Genie's side of a warm wave: the
// same handful of allocations for four descriptors as for ten — the lookups,
// their values, one string holding every key, the batch and its results, one
// slab of values, and one decode for every list — not a few per query.
func TestWaveReadAllocs(t *testing.T) {
	store := kvcache.New(0, kvcache.WithShards(1))
	s := newStackOver(t, func(*kvcache.Store) kvcache.Cache { return store })
	s.cacheable(t, profileSpec(UpdateInPlace))
	s.cacheable(t, wallCountSpec())
	s.cacheable(t, topkSpec(3, 2))
	s.cacheable(t, linkSpec())
	declare := func(w *orm.Wave, uid int) {
		w.Get(s.reg.Objects("Profile").Filter("user_id", uid))
		w.Count(s.reg.Objects("Wall").Filter("user_id", uid))
		w.All(wallQS(s, uid, 3))
		w.All(groupsOf(s, int64(uid)))
	}
	for uid := 1; uid <= 3; uid++ {
		if _, err := s.reg.Insert("Profile", orm.Fields{"user_id": uid, "bio": fmt.Sprint("bio ", uid)}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			postAt(s, t, uid, fmt.Sprint("post ", i), time.Unix(int64(1000*uid+i), 0))
		}
		g, err := s.reg.Insert("Group", orm.Fields{"name": fmt.Sprint("group ", uid)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.reg.Insert("Membership", orm.Fields{"user_id": uid, "group_id": g.ID()}); err != nil {
			t.Fatal(err)
		}
	}
	small, large := s.reg.Wave(), s.reg.Wave()
	declare(small, 1)
	for uid := 1; uid <= 3; uid++ {
		declare(large, uid)
	}
	large.Descriptors = large.Descriptors[:10]
	offer := func(w *orm.Wave) {
		w.State = nil
		for _, d := range w.Descriptors {
			var err error
			if d.Kind == orm.KindCount {
				_, _, err = s.g.InterceptCount(d)
			} else {
				_, _, err = s.g.InterceptRows(d)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	offer(small)
	offer(large) // warm
	warm := s.g.Stats()
	allocs := map[int]float64{}
	for _, w := range []*orm.Wave{small, large} {
		allocs[len(w.Descriptors)] = testing.AllocsPerRun(50, func() { offer(w) })
	}
	if got := s.g.Stats(); got.Misses != warm.Misses || got.Hits == warm.Hits {
		t.Fatalf("the measured waves were not warm: %+v", got)
	}
	t.Logf("allocations per warm wave: %v", allocs)
	const ceiling = 10
	if allocs[4] != allocs[10] || allocs[10] > ceiling {
		t.Errorf("a warm wave of 4 descriptors costs %.0f allocations and one of 10 costs %.0f; want the same, at most %d",
			allocs[4], allocs[10], ceiling)
	}
}
