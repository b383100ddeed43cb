package core

import (
	"fmt"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"cachegenie/internal/kvcache"
	"cachegenie/internal/orm"
	"cachegenie/internal/sqldb"
)

// checkCache is the oracle for the paper's promise: every entry the store
// holds for a cached object equals what the object's query template returns
// from the database now. It parses each cg: key back to its object and lookup
// values, and compares the entry with the database by class:
//
//   - a count equals COUNT(*);
//   - a feature or link list holds the query's rows, each as often as the
//     query returns it, in any order;
//   - a top-K list is the head of the database's order (rows that tie on the
//     sort value in either order), holds at least min(K, matching rows), and
//     if marked exhaustive holds every matching row.
//
// It skips a key that is not CacheGenie's and the entries of an Expiry
// object, which promises only its TTL. It returns one line per violating
// entry, and an error for a cg: key it cannot attribute: one that names no
// object, or whose parsed lookup values do not render it again.
func checkCache(store *kvcache.Store, g *Genie, db *sqldb.DB) (violations []string, err error) {
	objects := map[string]*CachedObject{}
	for _, co := range g.Objects() {
		objects[co.spec.Name] = co
	}
	keys := store.Keys()
	slices.Sort(keys)
	for _, key := range keys {
		rest, ok := strings.CutPrefix(key, "cg:")
		if !ok {
			continue
		}
		name, _, _ := strings.Cut(rest, ":")
		co := objects[name]
		if co == nil {
			return violations, fmt.Errorf("oracle: %s names no cached object", key)
		}
		if co.spec.Strategy == Expiry {
			continue
		}
		vals, err := co.parseKey(key)
		if err != nil {
			return violations, err
		}
		raw, ok := store.GetQuiet(key)
		if !ok {
			continue // gone since it was listed
		}
		v, err := co.check(db, key, vals, raw)
		if err != nil {
			return violations, err
		}
		if v != "" {
			violations = append(violations, v)
		}
	}
	return violations, nil
}

// parseKey parses a key of co back to its lookup values; the parse counts only
// if the values render the same key again.
func (co *CachedObject) parseKey(key string) ([]sqldb.Value, error) {
	keyed := co.model
	if co.linkThrough != nil {
		keyed = co.linkThrough
	}
	body, _ := strings.CutPrefix(key, "cg:"+co.spec.Name+":{")
	tag, tail, _ := strings.Cut(body, "}")
	fields := []string{tag}
	if tail != "" {
		fields = append(fields, strings.Split(strings.TrimPrefix(tail, ":"), ":")...)
	}
	if len(fields) != len(co.whereIdx) {
		return nil, fmt.Errorf("oracle: %s does not name %d lookup values", key, len(co.whereIdx))
	}
	vals := make([]sqldb.Value, len(fields))
	for i, f := range fields {
		typ := sqldb.TypeInt // the primary key's
		if c := co.whereIdx[i]; c > 0 {
			typ = keyed.Fields[c-1].Type
		}
		var err error
		switch {
		case f == "~null~":
			vals[i] = sqldb.Value{Type: typ, Null: true}
		case typ == sqldb.TypeText:
			f, err = url.PathUnescape(f)
			vals[i] = sqldb.Str(f)
		case typ == sqldb.TypeFloat:
			vals[i].Type = typ
			vals[i].F, err = strconv.ParseFloat(f, 64)
		default:
			vals[i].Type = typ
			vals[i].I, err = strconv.ParseInt(f, 10, 64)
		}
		if err != nil {
			return nil, fmt.Errorf("oracle: %s: %w", key, err)
		}
	}
	if again := co.MakeKey(vals...); again != key {
		return nil, fmt.Errorf("oracle: %s parses to values that render %s", key, again)
	}
	return vals, nil
}

// check compares one stored entry of co with the database, returning the
// violation it finds or "".
func (co *CachedObject) check(db *sqldb.DB, key string, vals []sqldb.Value, raw []byte) (string, error) {
	sql := co.sql
	if co.spec.Class == TopKQuery {
		sql, _, _ = strings.Cut(sql, " LIMIT ") // every matching row, in order
	}
	rs, err := db.Query(sql, vals...)
	if err != nil {
		return "", fmt.Errorf("oracle: %s: %w", key, err)
	}
	want := rs.Rows
	if co.spec.Class == CountQuery {
		if n, ok := parseCount(raw); !ok || n != want[0][0].I {
			return fmt.Sprintf("%s: cached count %q, database %d", key, raw, want[0][0].I), nil
		}
		return "", nil
	}
	p, err := decodePayload(raw)
	if err != nil {
		return fmt.Sprintf("%s: undecodable entry: %v", key, err), nil
	}
	if co.spec.Class != TopKQuery {
		if got, want := renderSet(p.rows), renderSet(want); got != want {
			return fmt.Sprintf("%s: cached rows\n%s\ndatabase rows\n%s", key, got, want), nil
		}
		return "", nil
	}
	m, n := len(p.rows), len(want)
	switch {
	case m < min(co.spec.K, n):
		return fmt.Sprintf("%s: cached %d rows, short of min(K=%d, %d in the database)", key, m, co.spec.K, n), nil
	case p.exhaustive && m != n:
		return fmt.Sprintf("%s: marked exhaustive with %d rows, database %d", key, m, n), nil
	}
	inDB := map[string]bool{}
	for _, r := range want {
		inDB[fmt.Sprint(r)] = true
	}
	for i, r := range p.rows {
		if i >= n || sqldb.Compare(r[co.sortIdx], want[i][co.sortIdx]) != 0 || !inDB[fmt.Sprint(r)] ||
			findRowByPK(p.rows[:i], rowPK(r)) >= 0 {
			return fmt.Sprintf("%s: cached row %d %v is not the head of the database's order\n%s\ndatabase order\n%s",
				key, i, r, renderList(p.rows), renderList(want)), nil
		}
	}
	return "", nil
}

// renderList renders rows one per line; renderSet does so sorted, for lists
// whose order means nothing.
func renderList(rows []sqldb.Row) string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	return strings.Join(out, "\n")
}

func renderSet(rows []sqldb.Row) string {
	out := strings.Split(renderList(rows), "\n")
	slices.Sort(out)
	return strings.Join(out, "\n")
}

// stale runs the oracle over s's store once the bus has drained, and returns
// what it found as one error.
func (s *stack) stale() error {
	s.g.FlushInvalidations()
	violations, err := checkCache(s.cache, s.g, s.db)
	if err == nil && len(violations) > 0 {
		err = fmt.Errorf("the cache differs from the database:\n%s", strings.Join(violations, "\n"))
	}
	return err
}

// requireFresh fails t on anything the oracle finds in s's store.
func (s *stack) requireFresh(t testing.TB) {
	t.Helper()
	if err := s.stale(); err != nil {
		t.Fatal(err)
	}
}

// checkAgainstDB reads co cache-first for vals, which caches the entry if it
// was not, and runs the oracle over everything the store holds.
func checkAgainstDB(t *testing.T, s *stack, co *CachedObject, vals ...sqldb.Value) {
	t.Helper()
	var err error
	if co.spec.Class == CountQuery {
		_, err = co.Count(vals...)
	} else {
		_, err = co.Rows(vals...)
	}
	if err != nil {
		t.Fatal(err)
	}
	s.requireFresh(t)
}

// TestOracleContract pins what the oracle accepts and refuses: after one read
// of each class it passes; it skips a foreign key and an Expiry object's
// entry; each planted entry is exactly one violation; and a cg: key naming no
// object is an error.
func TestOracleContract(t *testing.T) {
	s := newStack(t)
	profile := s.cacheable(t, profileSpec(UpdateInPlace))
	count := s.cacheable(t, Spec{Name: "wall_count", Class: CountQuery, MainModel: "Wall", WhereFields: []string{"user_id"}})
	topk := s.cacheable(t, topkSpec(2, 1))
	link := s.cacheable(t, friendWallSpec(UpdateInPlace))
	expiry := s.cacheable(t, Spec{Name: "profile_ttl", Class: FeatureQuery, MainModel: "Profile",
		WhereFields: []string{"user_id"}, Strategy: Expiry, TTL: time.Hour, Opaque: true})
	if _, err := s.reg.Insert("Profile", orm.Fields{"user_id": 1, "bio": "b"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.reg.Insert("Membership", orm.Fields{"user_id": 1, "group_id": 10}); err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1e6, 0)
	for i := 0; i < 4; i++ {
		postAt(s, t, 10, fmt.Sprintf("p%d", i), base.Add(time.Duration(i)*time.Minute))
	}
	one, ten := sqldb.I64(1), sqldb.I64(10)
	checkAgainstDB(t, s, profile, one)
	checkAgainstDB(t, s, count, ten)
	checkAgainstDB(t, s, topk, ten)
	checkAgainstDB(t, s, link, one)
	checkAgainstDB(t, s, expiry, one)
	if n := s.cache.Len(); n != 5 {
		t.Fatalf("the store holds %d entries after five reads", n)
	}

	decoded := func(key string) payload {
		raw, _ := s.cache.Get(key)
		p, err := decodePayload(raw)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	top := decoded(topk.MakeKey(ten)).rows // p3 p2 p1 of four
	edited := slices.Clone(decoded(profile.MakeKey(one)).rows[0])
	edited[2] = sqldb.Str("not the bio")
	for _, c := range []struct {
		name, key string
		value     []byte
		violation bool
	}{
		{"an Expiry object's entry", expiry.MakeKey(one), []byte("garbage"), false},
		{"a foreign key", "session:1", []byte("garbage"), false},
		{"a count off by one", count.MakeKey(ten), []byte("3"), true},
		{"a wrong feature row set", profile.MakeKey(one), encodePayload(payload{rows: []sqldb.Row{edited}}), true},
		{"an undecodable link entry", link.MakeKey(one), []byte("garbage"), true},
		{"a top-K list that skips a row", topk.MakeKey(ten), encodePayload(payload{rows: []sqldb.Row{top[0], top[2]}}), true},
		{"a top-K list short of K", topk.MakeKey(ten), encodePayload(payload{rows: top[:1]}), true},
		{"an exhaustive top-K list missing rows", topk.MakeKey(ten), encodePayload(payload{exhaustive: true, rows: top[:2]}), true},
	} {
		saved, held := s.cache.Get(c.key)
		s.cache.Set(c.key, c.value, 0)
		violations, err := checkCache(s.cache, s.g, s.db)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want := 0
		if c.violation {
			want = 1
		}
		if len(violations) != want || want == 1 && !strings.HasPrefix(violations[0], c.key+": ") {
			t.Errorf("%s: the oracle found %q, want %d violation of %s", c.name, violations, want, c.key)
		}
		if held {
			s.cache.Set(c.key, saved, 0)
		} else {
			s.cache.Delete(c.key)
		}
	}
	s.requireFresh(t)

	s.cache.Set("cg:no_such_object:{1}", []byte("1"), 0)
	if _, err := checkCache(s.cache, s.g, s.db); err == nil {
		t.Error("a cg: key naming no object passed the oracle")
	}
}
