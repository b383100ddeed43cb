package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"cachegenie/internal/cacheproto"
	"cachegenie/internal/kvcache"
	"cachegenie/internal/orm"
	"cachegenie/internal/rowlist"
	"cachegenie/internal/sqldb"
)

// countingCache counts how the Genie reaches the store: per-op calls by name
// and every batch with the kinds it carried. beforeBatch, when set, runs
// ahead of each batch (numbered from 1 since the last reset), which is how a
// test lands another writer's write just before a flush; loseBatch, when set
// and true for a batch, keeps the batch from the store and answers every op
// not found, as a lost exchange does. A bus worker may count while a test
// reads, so counting is locked.
type countingCache struct {
	*kvcache.Store
	mu          sync.Mutex
	perOp       []string
	batches     [][]kvcache.BatchOpKind
	beforeBatch func(n int)
	loseBatch   func(n int) bool
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
	if c.loseBatch != nil && c.loseBatch(n) {
		return make([]kvcache.BatchResult, len(ops))
	}
	return c.Store.ApplyBatch(ops)
}

// kindCounts renders one batch as "3 edit, 2 incr".
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

// TestWriteSetOneInsertOneExchange is the CreateBM shape: one inserted row
// whose triggers touch the author's own list, top-K list and counter and the
// list of every follower, cached or not. It must reach the cache in one batch
// and through nothing else.
func TestWriteSetOneInsertOneExchange(t *testing.T) {
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
	if len(cc.batches) != 1 {
		t.Fatalf("the insert's triggers made %d batches, want 1: %v", len(cc.batches), cc.batches)
	}
	// 2 own lists + 8 follower lists edited and the counter bumped; the store
	// applies the edits of the 2 own lists and the 4 cached follower lists.
	if got, want := kindCounts(cc.batches[0]), "1 incr, 10 edit"; got != want {
		t.Errorf("the batch carried %s, want %s", got, want)
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
// of one cached list sends that list one edit carrying every change, and sums
// its counter adjustments into one incr, while the counters keep counting
// every logical op.
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
	if got := fmt.Sprint(cc.batches); got != "[[edit]]" || len(cc.perOp) != 0 {
		t.Fatalf("3-row update reached the cache as batches %s and per-op calls %v, want [[edit]] and none", got, cc.perOp)
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
	if got := fmt.Sprint(cc.batches); got != "[[edit incr]]" || len(cc.perOp) != 0 {
		t.Fatalf("3-row delete reached the cache as batches %s and per-op calls %v, want [[edit incr]] and none", got, cc.perOp)
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

// TestWriteSetShortListCountsEveryEdit: a statement whose second removal
// uses up a top-K list's reserve still counts its later edits of the list as
// updates, as they apply to the short list, and the recompute that replaces
// the list as one more.
func TestWriteSetShortListCountsEveryEdit(t *testing.T) {
	s := newStack(t)
	co := s.cacheable(t, topkSpec(3, 1))
	base := time.Unix(200000, 0)
	var posts []orm.Object
	for i := 0; i < 10; i++ {
		posts = append(posts, postAt(s, t, 1, fmt.Sprintf("p%d", i), base.Add(time.Duration(i)*time.Minute)))
	}
	one := sqldb.I64(1)
	checkAgainstDB(t, s, co, one) // caches the newest 4: K = 3 and a reserve of 1
	before := s.g.Stats()
	if _, err := s.db.Exec(fmt.Sprintf("DELETE FROM wall WHERE id >= %d", posts[7].ID())); err != nil {
		t.Fatal(err)
	}
	after := s.g.Stats()
	up, skip, rec := after.TriggerUpdates-before.TriggerUpdates, after.TriggerSkips-before.TriggerSkips, after.Recomputes-before.Recomputes
	if up != 4 || skip != 0 || rec != 1 {
		t.Errorf("counted %d updates, %d skips and %d recomputes; want 4 (3 removals and the recompute), 0 and 1", up, skip, rec)
	}
	checkAgainstDB(t, s, co, one)
}

// TestWriteSetEditLandsOnAConcurrentWrite is the synchronous route of
// checkEditLandsOnAConcurrentWrite.
func TestWriteSetEditLandsOnAConcurrentWrite(t *testing.T) {
	s, cc := newCountingStack(t)
	checkEditLandsOnAConcurrentWrite(t, s, cc, s.cacheable(t, profileSpec(UpdateInPlace)))
}

// checkEditLandsOnAConcurrentWrite caches co's list for user 1, then inserts
// a row with another writer's set landing on the key just before the flush.
// A flush reads nothing it could find changed: its one edit applies to the
// list the key holds when it arrives, so the insert reaches the cache as
// [[edit]], counts no cas retry, and leaves the key cached and fresh; both
// flush routes share this rule.
func checkEditLandsOnAConcurrentWrite(t *testing.T, s *stack, cc *countingCache, co *CachedObject) {
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
		if n == 1 { // just before the flush: another writer's set
			raw, _ := s.cache.Get(key)
			s.cache.Set(key, raw, 0)
		}
	}
	before := s.g.Stats()
	if _, err := s.reg.Insert("Profile", orm.Fields{"user_id": 1, "bio": "v2"}); err != nil {
		t.Fatal(err)
	}
	s.g.FlushInvalidations()
	cc.beforeBatch = nil
	if got := fmt.Sprint(cc.batches); got != "[[edit]]" || len(cc.perOp) != 0 {
		t.Fatalf("the insert reached the cache as batches %s and per-op calls %v, want [[edit]] and none", got, cc.perOp)
	}
	after := s.g.Stats()
	if after.CasRetries != 0 || after.TriggerUpdates-before.TriggerUpdates != 1 {
		t.Fatalf("cas retries %d, updates %d; want 0 and 1", after.CasRetries, after.TriggerUpdates-before.TriggerUpdates)
	}
	if raw, ok := s.cache.Get(key); !ok {
		t.Fatal("the edited key is no longer cached")
	} else if l, err := rowlist.Decode(raw); err != nil || len(l.Rows) != 2 {
		t.Fatalf("the edited key holds %d rows (%v), want 2", len(l.Rows), err)
	}
	checkAgainstDB(t, s, co, one)
}

// TestWriteSetOversizedEditDropsTheKey: an edit grows with its ops, not with
// its list. An UPDATE of every row of a cached feature list carries each row
// twice, old and new, so a list well under the wire's 1 MB value cap makes an
// edit over it, which the client cannot send. The flush must then drop the
// key instead of leaving the list as it was.
func TestWriteSetOversizedEditDropsTheKey(t *testing.T) {
	s := newStackOver(t, func(store *kvcache.Store) kvcache.Cache {
		srv := cacheproto.NewServer(store)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cli, err := cacheproto.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			_ = cli.Close()
			_ = srv.Close()
		})
		return cli
	})
	co := s.cacheable(t, Spec{Name: "wall_feature", Class: FeatureQuery, MainModel: "Wall", WhereFields: []string{"user_id"}})
	const rows = 600
	for i := 0; i < rows; i++ {
		postAt(s, t, 7, strings.Repeat("a", 1000), time.Unix(int64(i), 0))
	}
	seven := sqldb.I64(7)
	checkAgainstDB(t, s, co, seven)
	key := co.MakeKey(seven)
	if raw, ok := s.cache.GetQuiet(key); !ok || len(raw) > 1<<20 {
		t.Fatalf("list cached %v in %d bytes, want cached under 1 MB", ok, len(raw))
	}
	before := s.g.Stats()
	if _, err := s.reg.Objects("Wall").Filter("user_id", 7).Update(orm.Fields{"content": strings.Repeat("b", 1000)}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.cache.GetQuiet(key); ok {
		t.Fatal("the list is still cached after an edit too large to send")
	}
	after := s.g.Stats()
	if skips, dels := after.TriggerSkips-before.TriggerSkips, after.TriggerDeletes-before.TriggerDeletes; skips != rows || dels != 1 {
		t.Errorf("counted %d skips and %d deletes, want %d and 1", skips, dels, rows)
	}
	checkAgainstDB(t, s, co, seven)
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
