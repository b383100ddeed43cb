package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"cachegenie/internal/kvcache"
	"cachegenie/internal/orm"
	"cachegenie/internal/sqldb"
)

// countingCache counts how the Genie reaches the store: per-op calls by name
// and every batch with the kinds it carried. beforeBatch, when set, runs
// ahead of each batch (numbered from 1 since the last reset), which is how a
// test lands a racing write between a flush's two batches. A bus worker may
// count while a test reads, so counting is locked.
type countingCache struct {
	*kvcache.Store
	mu          sync.Mutex
	perOp       []string
	batches     [][]kvcache.BatchOpKind
	beforeBatch func(n int)
}

func (c *countingCache) reset() {
	c.mu.Lock()
	c.perOp, c.batches = nil, nil
	c.mu.Unlock()
}

func (c *countingCache) count(op string) {
	c.mu.Lock()
	c.perOp = append(c.perOp, op)
	c.mu.Unlock()
}

func (c *countingCache) Get(key string) ([]byte, bool) {
	c.count("get")
	return c.Store.Get(key)
}

func (c *countingCache) Gets(key string) ([]byte, uint64, bool) {
	c.count("gets")
	return c.Store.Gets(key)
}

func (c *countingCache) Set(key string, value []byte, ttl time.Duration) {
	c.count("set")
	c.Store.Set(key, value, ttl)
}

func (c *countingCache) Add(key string, value []byte, ttl time.Duration) bool {
	c.count("add")
	return c.Store.Add(key, value, ttl)
}

func (c *countingCache) Cas(key string, value []byte, ttl time.Duration, cas uint64) kvcache.CasResult {
	c.count("cas")
	return c.Store.Cas(key, value, ttl, cas)
}

func (c *countingCache) Delete(key string) bool {
	c.count("delete")
	return c.Store.Delete(key)
}

func (c *countingCache) Incr(key string, delta int64) (int64, bool) {
	c.count("incr")
	return c.Store.Incr(key, delta)
}

func (c *countingCache) ApplyBatch(ops []kvcache.BatchOp) []kvcache.BatchResult {
	kinds := make([]kvcache.BatchOpKind, len(ops))
	for i, op := range ops {
		kinds[i] = op.Kind
	}
	c.mu.Lock()
	c.batches = append(c.batches, kinds)
	n := len(c.batches)
	c.mu.Unlock()
	if c.beforeBatch != nil {
		c.beforeBatch(n)
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

// friendWallQS is the ORM read friendWallSpec answers.
func friendWallQS(s *stack, userID int) *orm.QuerySet {
	return s.reg.Objects("Wall").Via("Membership", "user_id", "group_id", "user_id").Filter("user_id", userID)
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

// TestWriteSetConflictFallsBackToCasLoop lands a write on the key between a
// synchronous statement's two flush batches. The cas loses, and the fallback
// is to delete the key for the next read to reload.
func TestWriteSetConflictFallsBackToCasLoop(t *testing.T) {
	s, cc := newCountingStack(t)
	checkLostCasDeletesKey(t, s, cc, s.cacheable(t, profileSpec(UpdateInPlace)))
}

// checkLostCasDeletesKey caches co's list for user 1, then inserts a row
// with another writer's set landing between the gets and the cas. The insert
// must reach the cache as [gets] [cas] [delete], count one cas retry, and
// leave the key uncached; both flush routes share this rule.
func checkLostCasDeletesKey(t *testing.T, s *stack, cc *countingCache, co *CachedObject) {
	t.Helper()
	one := sqldb.I64(1)
	key := co.MakeKey(one)
	if _, err := s.reg.Insert("Profile", orm.Fields{"user_id": 1, "bio": "v1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.reg.Objects("Profile").Filter("user_id", 1).All(); err != nil {
		t.Fatal(err)
	}
	s.g.FlushInvalidations()
	cc.reset()
	cc.beforeBatch = func(n int) {
		if n == 2 { // between the gets and the cas: another writer's set
			raw, _ := s.cache.Get(key)
			s.cache.Set(key, raw, 0)
		}
	}
	if _, err := s.reg.Insert("Profile", orm.Fields{"user_id": 1, "bio": "v2"}); err != nil {
		t.Fatal(err)
	}
	s.g.FlushInvalidations()
	cc.beforeBatch = nil
	if got := fmt.Sprint(cc.batches); got != "[[gets] [cas] [delete]]" || len(cc.perOp) != 0 {
		t.Fatalf("the insert reached the cache as batches %s and per-op calls %v, want [[gets] [cas] [delete]] and none", got, cc.perOp)
	}
	if n := s.g.Stats().CasRetries; n != 1 {
		t.Fatalf("cas retries %d, want 1", n)
	}
	if _, ok := s.cache.Get(key); ok {
		t.Fatal("the key that lost its cas is still cached")
	}
	checkAgainstDB(t, s, co, one)
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
