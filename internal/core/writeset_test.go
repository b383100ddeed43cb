package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"cachegenie/internal/kvcache"
	"cachegenie/internal/orm"
	"cachegenie/internal/sqldb"
)

// countingCache counts how the Genie reaches the store: per-op calls by name
// and every batch with the kinds it carried. beforeBatch, when set, runs
// ahead of each batch (numbered from 1 since the last reset), which is how a
// test lands a racing write between a flush's two batches.
type countingCache struct {
	*kvcache.Store
	perOp       []string
	batches     [][]kvcache.BatchOpKind
	beforeBatch func(n int)
}

func (c *countingCache) reset() { c.perOp, c.batches = nil, nil }

func (c *countingCache) Get(key string) ([]byte, bool) {
	c.perOp = append(c.perOp, "get")
	return c.Store.Get(key)
}

func (c *countingCache) Gets(key string) ([]byte, uint64, bool) {
	c.perOp = append(c.perOp, "gets")
	return c.Store.Gets(key)
}

func (c *countingCache) Set(key string, value []byte, ttl time.Duration) {
	c.perOp = append(c.perOp, "set")
	c.Store.Set(key, value, ttl)
}

func (c *countingCache) Add(key string, value []byte, ttl time.Duration) bool {
	c.perOp = append(c.perOp, "add")
	return c.Store.Add(key, value, ttl)
}

func (c *countingCache) Cas(key string, value []byte, ttl time.Duration, cas uint64) kvcache.CasResult {
	c.perOp = append(c.perOp, "cas")
	return c.Store.Cas(key, value, ttl, cas)
}

func (c *countingCache) Delete(key string) bool {
	c.perOp = append(c.perOp, "delete")
	return c.Store.Delete(key)
}

func (c *countingCache) Incr(key string, delta int64) (int64, bool) {
	c.perOp = append(c.perOp, "incr")
	return c.Store.Incr(key, delta)
}

func (c *countingCache) ApplyBatch(ops []kvcache.BatchOp) []kvcache.BatchResult {
	kinds := make([]kvcache.BatchOpKind, len(ops))
	for i, op := range ops {
		kinds[i] = op.Kind
	}
	c.batches = append(c.batches, kinds)
	if c.beforeBatch != nil {
		c.beforeBatch(len(c.batches))
	}
	return c.Store.ApplyBatch(ops)
}

// kindCounts renders one batch as "3 gets, 2 incr".
func kindCounts(kinds []kvcache.BatchOpKind) string {
	n := map[string]int{}
	for _, k := range kinds {
		n[k.String()]++
	}
	var parts []string
	for name, c := range n {
		parts = append(parts, fmt.Sprintf("%d %s", c, name))
	}
	sort.Strings(parts)
	return strings.Join(parts, ", ")
}

func newCountingStack(t *testing.T) (*stack, *countingCache) {
	var cc *countingCache
	s := newStackOver(t, func(store *kvcache.Store) kvcache.Cache {
		cc = &countingCache{Store: store}
		return cc
	})
	return s, cc
}

// friendWallSpec is the social app's friend_bookmarks shape on the test
// schema: a user's list holds the wall posts of everyone they follow, a
// Membership row (user_id, group_id) reading "user_id follows group_id".
func friendWallSpec(strategy Strategy) Spec {
	return Spec{
		Name: "friend_wall", Class: LinkQuery, MainModel: "Wall",
		WhereFields: []string{"user_id"}, Strategy: strategy,
		Link: &Link{
			ThroughModel: "Membership", SourceField: "user_id",
			JoinField: "group_id", TargetField: "user_id",
		},
	}
}

// checkAgainstDB evaluates co cache-first for vals and compares with its own
// query template run straight on the database.
func checkAgainstDB(t *testing.T, s *stack, co *CachedObject, vals ...sqldb.Value) {
	t.Helper()
	rs, err := s.db.Query(co.QueryTemplate(), vals...)
	if err != nil {
		t.Fatal(err)
	}
	if co.Spec().Class == CountQuery {
		n, err := co.Count(vals...)
		if err != nil || n != rs.Rows[0][0].I {
			t.Fatalf("%s%v: cache says %d (%v), database says %d", co.Spec().Name, vals, n, err, rs.Rows[0][0].I)
		}
		return
	}
	rows, err := co.Rows(vals...)
	if err != nil {
		t.Fatal(err)
	}
	render := func(rows []sqldb.Row) string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = fmt.Sprint(r)
		}
		if co.Spec().Class != TopKQuery {
			sort.Strings(out) // a set; only top-K lists are ordered
		} else if len(out) > co.Spec().K {
			out = out[:co.Spec().K]
		}
		return strings.Join(out, "\n")
	}
	if got, want := render(rows), render(rs.Rows); got != want {
		t.Fatalf("%s%v: cache says\n%s\ndatabase says\n%s", co.Spec().Name, vals, got, want)
	}
}

// TestWriteSetOneInsertTwoBatches is the CreateBM shape: one inserted row
// whose triggers touch the author's own list, top-K list and counter and the
// list of every follower, cached or not. It must reach the cache in two
// batches and through nothing else.
func TestWriteSetOneInsertTwoBatches(t *testing.T) {
	s, cc := newCountingStack(t)
	feature := s.cacheable(t, Spec{Name: "wall_of_user", Class: FeatureQuery, MainModel: "Wall", WhereFields: []string{"user_id"}})
	count := s.cacheable(t, Spec{Name: "wall_count", Class: CountQuery, MainModel: "Wall", WhereFields: []string{"user_id"}})
	topk := s.cacheable(t, topkSpec(3, 1))
	link := s.cacheable(t, friendWallSpec(UpdateInPlace))
	const author, followers = 10, 8
	for f := 1; f <= followers; f++ {
		if _, err := s.reg.Insert("Membership", orm.Fields{"user_id": f, "group_id": author}); err != nil {
			t.Fatal(err)
		}
	}
	base := time.Unix(1e6, 0)
	postAt(s, t, author, "first", base)
	// Cache the author's three objects and every other follower's list.
	all := []sqldb.Value{sqldb.I64(author)}
	for _, co := range []*CachedObject{feature, count, topk} {
		checkAgainstDB(t, s, co, all...)
	}
	for f := 1; f <= followers; f += 2 {
		checkAgainstDB(t, s, link, sqldb.I64(int64(f)))
	}

	before := s.g.Stats()
	cc.reset()
	postAt(s, t, author, "second", base.Add(time.Minute))
	if len(cc.perOp) != 0 {
		t.Fatalf("the insert's triggers made per-op cache calls: %v", cc.perOp)
	}
	if len(cc.batches) != 2 {
		t.Fatalf("the insert's triggers made %d batches, want 2: %v", len(cc.batches), cc.batches)
	}
	// 2 own lists + 8 follower lists read and the counter bumped; then the 2
	// own lists and the 4 cached follower lists swapped.
	if got, want := kindCounts(cc.batches[0]), "1 incr, 10 gets"; got != want {
		t.Errorf("first batch carried %s, want %s", got, want)
	}
	if got, want := kindCounts(cc.batches[1]), "6 cas"; got != want {
		t.Errorf("second batch carried %s, want %s", got, want)
	}
	after := s.g.Stats()
	if up, skip := after.TriggerUpdates-before.TriggerUpdates, after.TriggerSkips-before.TriggerSkips; up != 7 || skip != 4 {
		t.Errorf("counted %d updates and %d skips, want 7 and 4 (one per logical op)", up, skip)
	}
	for _, co := range []*CachedObject{feature, count, topk} {
		checkAgainstDB(t, s, co, all...)
	}
	for f := 1; f <= followers; f++ {
		checkAgainstDB(t, s, link, sqldb.I64(int64(f)))
	}
}

// TestWriteSetComposesSameKeyMutations: a statement that changes many rows
// of one cached list edits that list once — one gets, one cas — and sums its
// counter adjustments into one incr, while the counters keep counting every
// logical op.
func TestWriteSetComposesSameKeyMutations(t *testing.T) {
	s, cc := newCountingStack(t)
	feature := s.cacheable(t, profileSpec(UpdateInPlace))
	count := s.cacheable(t, Spec{Name: "profile_count", Class: CountQuery, MainModel: "Profile", WhereFields: []string{"user_id"}})
	for i := 0; i < 3; i++ {
		if _, err := s.reg.Insert("Profile", orm.Fields{"user_id": 1, "bio": fmt.Sprintf("v%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	one := sqldb.I64(1)
	checkAgainstDB(t, s, feature, one)
	checkAgainstDB(t, s, count, one)

	before := s.g.Stats()
	cc.reset()
	if _, err := s.db.Exec("UPDATE profiles SET bio = 'same' WHERE user_id = 1"); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(cc.batches); got != "[[gets] [cas]]" || len(cc.perOp) != 0 {
		t.Fatalf("3-row update reached the cache as batches %s and per-op calls %v, want [[gets] [cas]] and none", got, cc.perOp)
	}
	if up := s.g.Stats().TriggerUpdates - before.TriggerUpdates; up != 3 {
		t.Fatalf("counted %d trigger updates for 3 updated rows", up)
	}
	checkAgainstDB(t, s, feature, one)

	before = s.g.Stats()
	cc.reset()
	if _, err := s.db.Exec("DELETE FROM profiles WHERE user_id = 1"); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(cc.batches); got != "[[gets incr] [cas]]" || len(cc.perOp) != 0 {
		t.Fatalf("3-row delete reached the cache as batches %s and per-op calls %v, want [[gets incr] [cas]] and none", got, cc.perOp)
	}
	if up := s.g.Stats().TriggerUpdates - before.TriggerUpdates; up != 6 {
		t.Fatalf("counted %d trigger updates for 3 list removals and 3 decrements", up)
	}
	if raw, _ := s.cache.Get(count.MakeKey(one)); string(raw) != "0" {
		t.Fatalf("cached count after the delete = %q, want 0", raw)
	}
	checkAgainstDB(t, s, feature, one)
	checkAgainstDB(t, s, count, one)
}

// TestWriteSetConflictFallsBackToCasLoop lands a write on the key between
// the flush's two batches. The cas loses, and the key must still converge to
// the database's answer through its own gets/cas loop.
func TestWriteSetConflictFallsBackToCasLoop(t *testing.T) {
	s, cc := newCountingStack(t)
	topk := s.cacheable(t, topkSpec(3, 2))
	base := time.Unix(1e6, 0)
	var ids []int64
	for i := 0; i < 6; i++ {
		ids = append(ids, postAt(s, t, 1, fmt.Sprintf("p%d", i), base.Add(time.Duration(i)*time.Minute)).ID())
	}
	one := sqldb.I64(1)
	checkAgainstDB(t, s, topk, one) // caches K+reserve = 5 of the 6
	key := topk.MakeKey(one)

	cc.reset()
	cc.beforeBatch = func(n int) {
		if n == 2 { // same bytes, new token
			raw, _ := s.cache.Get(key)
			s.cache.Set(key, raw, 0)
		}
	}
	if _, err := s.db.Exec("DELETE FROM wall WHERE id = $1 OR id = $2", sqldb.I64(ids[5]), sqldb.I64(ids[4])); err != nil {
		t.Fatal(err)
	}
	cc.beforeBatch = nil
	st := s.g.Stats()
	if st.CasRetries != 1 || s.g.casFallbacks.Load() != 1 {
		t.Fatalf("cas retries %d, fallbacks %d; want 1 and 1", st.CasRetries, s.g.casFallbacks.Load())
	}
	if got := strings.Join(cc.perOp, " "); got != "gets cas gets cas" {
		t.Fatalf("fallback ran %q, want each of the two removals' own gets and cas", got)
	}
	checkAgainstDB(t, s, topk, one)
}

// TestWriteSetFailedStatementLeavesCacheUntouched: a trigger error on a later
// row aborts the statement, and the rows before it must not have reached the
// cache.
func TestWriteSetFailedStatementLeavesCacheUntouched(t *testing.T) {
	s, cc := newCountingStack(t)
	feature := s.cacheable(t, profileSpec(UpdateInPlace))
	count := s.cacheable(t, Spec{Name: "profile_count", Class: CountQuery, MainModel: "Profile", WhereFields: []string{"user_id"}})
	for _, bio := range []string{"a", "b", "veto"} {
		if _, err := s.reg.Insert("Profile", orm.Fields{"user_id": 1, "bio": bio}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.db.CreateTrigger(sqldb.Trigger{Name: "veto", Table: "profiles", Op: sqldb.TrigDelete,
		Fn: func(q sqldb.Queryer, ev sqldb.TriggerEvent) error {
			if ev.Old[2].S == "veto" {
				return errors.New("vetoed")
			}
			return nil
		}}); err != nil {
		t.Fatal(err)
	}
	one := sqldb.I64(1)
	checkAgainstDB(t, s, feature, one)
	checkAgainstDB(t, s, count, one)

	cc.reset()
	if _, err := s.db.Exec("DELETE FROM profiles WHERE user_id = 1"); err == nil {
		t.Fatal("delete with a vetoing trigger succeeded")
	}
	if len(cc.perOp) != 0 || len(cc.batches) != 0 {
		t.Fatalf("the aborted statement reached the cache: per-op %v, batches %v", cc.perOp, cc.batches)
	}
	checkAgainstDB(t, s, feature, one) // all three rows are back
	checkAgainstDB(t, s, count, one)
}

// TestLinkTargetJoinColumnUpdate is the regression test for a target-table
// UPDATE that changes the join column: the row must leave the lists of the
// sources joined to the old value and enter those joined to the new one.
func TestLinkTargetJoinColumnUpdate(t *testing.T) {
	for _, strategy := range []Strategy{UpdateInPlace, Invalidate} {
		t.Run(strategy.String(), func(t *testing.T) {
			s := newStack(t)
			link := s.cacheable(t, friendWallSpec(strategy))
			for follower, followed := range map[int]int{1: 10, 2: 20} {
				if _, err := s.reg.Insert("Membership", orm.Fields{"user_id": follower, "group_id": followed}); err != nil {
					t.Fatal(err)
				}
			}
			postAt(s, t, 10, "moves from 10 to 20", time.Unix(1e6, 0))
			for _, follower := range []int64{1, 2} {
				checkAgainstDB(t, s, link, sqldb.I64(follower))
			}
			if _, err := s.db.Exec("UPDATE wall SET user_id = 20"); err != nil {
				t.Fatal(err)
			}
			for follower, want := range map[int64]int{1: 0, 2: 1} {
				rows, err := link.Rows(sqldb.I64(follower))
				if err != nil || len(rows) != want {
					t.Errorf("follower %d sees %d posts (%v), want %d", follower, len(rows), err, want)
				}
				checkAgainstDB(t, s, link, sqldb.I64(follower))
			}
		})
	}
}
