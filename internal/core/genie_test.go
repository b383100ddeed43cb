package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"cachegenie/internal/kvcache"
	"cachegenie/internal/orm"
	"cachegenie/internal/sqldb"
)

// stack is a full test stack: engine + ORM + cache + genie.
type stack struct {
	db    *sqldb.DB
	reg   *orm.Registry
	cache *kvcache.Store
	g     *Genie
}

func newStack(t testing.TB) *stack {
	t.Helper()
	return newStackOver(t, func(store *kvcache.Store) kvcache.Cache { return store })
}

// newStackOver builds the stack with the Genie talking to wrap(store).
func newStackOver(t testing.TB, wrap func(*kvcache.Store) kvcache.Cache) *stack {
	t.Helper()
	return newStackConfig(t, wrap, Config{})
}

// newStackConfig is newStackOver with the rest of the Genie's Config given.
func newStackConfig(t testing.TB, wrap func(*kvcache.Store) kvcache.Cache, cfg Config) *stack {
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
	reg.MustRegister(&orm.ModelDef{
		Name:  "Group",
		Table: "groups",
		Fields: []orm.FieldDef{
			{Name: "name", Type: sqldb.TypeText, NotNull: true},
		},
	})
	reg.MustRegister(&orm.ModelDef{
		Name:  "Membership",
		Table: "membership",
		Fields: []orm.FieldDef{
			{Name: "user_id", Type: sqldb.TypeInt, NotNull: true},
			{Name: "group_id", Type: sqldb.TypeInt, NotNull: true},
		},
		Indexes: [][]string{{"user_id"}, {"group_id"}},
	})
	if err := reg.CreateTables(); err != nil {
		t.Fatal(err)
	}
	cache := kvcache.New(0)
	cfg.Registry, cfg.DB, cfg.Cache = reg, db, wrap(cache)
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return &stack{db: db, reg: reg, cache: cache, g: g}
}

func (s *stack) cacheable(t testing.TB, spec Spec) *CachedObject {
	t.Helper()
	co, err := s.g.Cacheable(spec)
	if err != nil {
		t.Fatal(err)
	}
	return co
}

func profileSpec(strategy Strategy) Spec {
	return Spec{
		Name: "user_profile", Class: FeatureQuery, MainModel: "Profile",
		WhereFields: []string{"user_id"}, Strategy: strategy,
	}
}

func TestFeatureQueryTransparentHit(t *testing.T) {
	s := newStack(t)
	s.cacheable(t, profileSpec(UpdateInPlace))
	_, err := s.reg.Insert("Profile", orm.Fields{"user_id": 42, "bio": "hello"})
	if err != nil {
		t.Fatal(err)
	}
	selBefore := s.db.Stats().Selects

	// First read: miss, populates.
	o, err := s.reg.Objects("Profile").Filter("user_id", 42).Get()
	if err != nil || o.Str("bio") != "hello" {
		t.Fatalf("o=%v err=%v", o, err)
	}
	// Second read: must be served from cache (no new SELECT).
	o2, err := s.reg.Objects("Profile").Filter("user_id", 42).Get()
	if err != nil || o2.Str("bio") != "hello" {
		t.Fatal(err)
	}
	if got := s.db.Stats().Selects - selBefore; got != 1 {
		t.Fatalf("SELECTs = %d, want 1 (second read cached)", got)
	}
	st := s.g.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFeatureQueryUpdateInPlace(t *testing.T) {
	s := newStack(t)
	s.cacheable(t, profileSpec(UpdateInPlace))
	_, _ = s.reg.Insert("Profile", orm.Fields{"user_id": 42, "bio": "v1"})

	// Warm the cache.
	if _, err := s.reg.Objects("Profile").Filter("user_id", 42).Get(); err != nil {
		t.Fatal(err)
	}
	// Write through the ORM: the trigger must update the cached entry.
	if _, err := s.reg.Objects("Profile").Filter("user_id", 42).Update(orm.Fields{"bio": "v2"}); err != nil {
		t.Fatal(err)
	}
	selBefore := s.db.Stats().Selects
	o, err := s.reg.Objects("Profile").Filter("user_id", 42).Get()
	if err != nil {
		t.Fatal(err)
	}
	if o.Str("bio") != "v2" {
		t.Fatalf("bio = %q, want updated value from cache", o.Str("bio"))
	}
	if s.db.Stats().Selects != selBefore {
		t.Fatal("read after update hit the database; expected in-place cache update")
	}
	if s.g.Stats().TriggerUpdates == 0 {
		t.Fatal("no trigger updates recorded")
	}
}

func TestFeatureQueryInvalidateStrategy(t *testing.T) {
	s := newStack(t)
	co := s.cacheable(t, profileSpec(Invalidate))
	_, _ = s.reg.Insert("Profile", orm.Fields{"user_id": 42, "bio": "v1"})
	_, _ = s.reg.Insert("Profile", orm.Fields{"user_id": 43, "bio": "other"})

	// Warm both entries.
	_, _ = s.reg.Objects("Profile").Filter("user_id", 42).Get()
	_, _ = s.reg.Objects("Profile").Filter("user_id", 43).Get()

	// Update user 42: only 42's entry is invalidated (paper §3.2 — unlike
	// template-based schemes, 43 stays cached).
	_, _ = s.reg.Objects("Profile").Filter("user_id", 42).Update(orm.Fields{"bio": "v2"})
	if _, ok := s.cache.Get(co.MakeKey(sqldb.I64(42))); ok {
		t.Fatal("user 42's entry should be invalidated")
	}
	if _, ok := s.cache.Get(co.MakeKey(sqldb.I64(43))); !ok {
		t.Fatal("user 43's entry should survive (fine-grained invalidation)")
	}
	// Next read repopulates with fresh data.
	o, err := s.reg.Objects("Profile").Filter("user_id", 42).Get()
	if err != nil || o.Str("bio") != "v2" {
		t.Fatalf("o=%v err=%v", o, err)
	}
}

func TestFeatureQueryInsertAndDeleteMaintainList(t *testing.T) {
	s := newStack(t)
	s.cacheable(t, profileSpec(UpdateInPlace))
	_, _ = s.reg.Insert("Profile", orm.Fields{"user_id": 7, "bio": "a"})
	objs, _ := s.reg.Objects("Profile").Filter("user_id", 7).All()
	if len(objs) != 1 {
		t.Fatalf("warm read = %d", len(objs))
	}
	// Insert another row for the same user; trigger appends to cached list.
	_, _ = s.reg.Insert("Profile", orm.Fields{"user_id": 7, "bio": "b"})
	objs, _ = s.reg.Objects("Profile").Filter("user_id", 7).All()
	if len(objs) != 2 {
		t.Fatalf("after insert = %d rows, want 2 (from cache)", len(objs))
	}
	// Delete one; trigger removes from cached list.
	if _, err := s.reg.Objects("Profile").Filter("id", objs[0].ID()).Delete(); err != nil {
		t.Fatal(err)
	}
	objs, _ = s.reg.Objects("Profile").Filter("user_id", 7).All()
	if len(objs) != 1 {
		t.Fatalf("after delete = %d rows, want 1", len(objs))
	}
}

func TestCountQueryIncrementalUpdates(t *testing.T) {
	s := newStack(t)
	s.cacheable(t, Spec{
		Name: "wall_count", Class: CountQuery, MainModel: "Wall",
		WhereFields: []string{"user_id"},
	})
	for i := 0; i < 3; i++ {
		_, _ = s.reg.Insert("Wall", orm.Fields{"user_id": 1, "content": "x"})
	}
	n, err := s.reg.Objects("Wall").Filter("user_id", 1).Count()
	if err != nil || n != 3 {
		t.Fatalf("count = %d err=%v", n, err)
	}
	// Insert/delete adjust the cached count without a DB read.
	_, _ = s.reg.Insert("Wall", orm.Fields{"user_id": 1, "content": "y"})
	selBefore := s.db.Stats().Selects
	n, _ = s.reg.Objects("Wall").Filter("user_id", 1).Count()
	if n != 4 {
		t.Fatalf("count after insert = %d", n)
	}
	if s.db.Stats().Selects != selBefore {
		t.Fatal("count read hit the database")
	}
	_, _ = s.reg.Objects("Wall").Filter("user_id", 1).FilterOp("id", "<=", 2).Delete()
	n, _ = s.reg.Objects("Wall").Filter("user_id", 1).Count()
	if n != 2 {
		t.Fatalf("count after delete = %d", n)
	}
}

func topkSpec(k, reserve int) Spec {
	return Spec{
		Name: "latest_wall_posts", Class: TopKQuery, MainModel: "Wall",
		WhereFields: []string{"user_id"},
		SortField:   "date_posted", SortDesc: true, K: k, Reserve: reserve,
	}
}

func wallQS(s *stack, userID int, limit int) *orm.QuerySet {
	return s.reg.Objects("Wall").Filter("user_id", userID).OrderBy("-date_posted").Limit(limit)
}

func postAt(s *stack, t testing.TB, userID int, content string, at time.Time) orm.Object {
	o, err := s.reg.Insert("Wall", orm.Fields{
		"user_id": userID, "content": content, "date_posted": at,
	})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestTopKInsertMaintainsOrder(t *testing.T) {
	s := newStack(t)
	s.cacheable(t, topkSpec(3, 2))
	base := time.Unix(100000, 0)
	for i := 0; i < 5; i++ {
		postAt(s, t, 1, fmt.Sprintf("p%d", i), base.Add(time.Duration(i)*time.Minute))
	}
	objs, err := wallQS(s, 1, 3).All()
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 3 || objs[0].Str("content") != "p4" {
		t.Fatalf("top = %v", objs)
	}
	// A new newest post must appear at the head, served from cache.
	postAt(s, t, 1, "newest", base.Add(time.Hour))
	selBefore := s.db.Stats().Selects
	objs, _ = wallQS(s, 1, 3).All()
	if objs[0].Str("content") != "newest" {
		t.Fatalf("head = %q", objs[0].Str("content"))
	}
	if s.db.Stats().Selects != selBefore {
		t.Fatal("top-K read hit the database after insert")
	}
	// A post older than the cached window must not disturb the top.
	postAt(s, t, 1, "ancient", base.Add(-time.Hour))
	objs, _ = wallQS(s, 1, 3).All()
	if objs[0].Str("content") != "newest" || len(objs) != 3 {
		t.Fatalf("after old insert: %v", objs)
	}
}

func TestTopKDeleteUsesReserveThenRecomputes(t *testing.T) {
	s := newStack(t)
	s.cacheable(t, topkSpec(3, 1))
	base := time.Unix(200000, 0)
	var posts []orm.Object
	for i := 0; i < 10; i++ {
		posts = append(posts, postAt(s, t, 1, fmt.Sprintf("p%d", i), base.Add(time.Duration(i)*time.Minute)))
	}
	// Warm: cache holds top 4 (K=3 + reserve=1), not exhaustive.
	if _, err := wallQS(s, 1, 3).All(); err != nil {
		t.Fatal(err)
	}
	// Delete the newest: reserve absorbs it, no recompute needed.
	_, _ = s.reg.Objects("Wall").Filter("id", posts[9].ID()).Delete()
	recBefore := s.g.Stats().Recomputes
	objs, _ := wallQS(s, 1, 3).All()
	if len(objs) != 3 || objs[0].Str("content") != "p8" {
		t.Fatalf("after delete: %v", objs)
	}
	if s.g.Stats().Recomputes != recBefore {
		t.Fatal("reserve should have absorbed the first delete")
	}
	// Delete two more: reserve exhausted; trigger must recompute from DB.
	_, _ = s.reg.Objects("Wall").Filter("id", posts[8].ID()).Delete()
	_, _ = s.reg.Objects("Wall").Filter("id", posts[7].ID()).Delete()
	objs, _ = wallQS(s, 1, 3).All()
	if len(objs) != 3 || objs[0].Str("content") != "p6" {
		t.Fatalf("after recompute: %v", objs)
	}
	if s.g.Stats().Recomputes == 0 {
		t.Fatal("expected a recompute")
	}
}

func TestTopKUpdateResorts(t *testing.T) {
	s := newStack(t)
	s.cacheable(t, topkSpec(5, 2))
	base := time.Unix(300000, 0)
	for i := 0; i < 5; i++ {
		postAt(s, t, 1, fmt.Sprintf("p%d", i), base.Add(time.Duration(i)*time.Minute))
	}
	_, _ = wallQS(s, 1, 5).All()
	// Bump p0's timestamp to the top.
	_, err := s.reg.Objects("Wall").Filter("user_id", 1).FilterOp("id", "<=", 1).
		Update(orm.Fields{"date_posted": base.Add(2 * time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	objs, _ := wallQS(s, 1, 5).All()
	if objs[0].Str("content") != "p0" {
		t.Fatalf("head = %q, want p0 after re-sort", objs[0].Str("content"))
	}
}

// TestTopKInsertBelowAShortWindow: a removal leaves a non-exhaustive list
// short of its limit, and a post older than everything it holds must not be
// appended, since database rows the list lacks sort between; a later removal
// would promote it into the served K.
func TestTopKInsertBelowAShortWindow(t *testing.T) {
	s := newStack(t)
	co := s.cacheable(t, topkSpec(2, 1))
	base := time.Unix(400000, 0)
	posts := map[string]orm.Object{}
	for i, name := range []string{"d", "c", "b", "a"} { // a is the newest
		posts[name] = postAt(s, t, 1, name, base.Add(time.Duration(i)*time.Minute))
	}
	if _, err := wallQS(s, 1, 2).All(); err != nil { // caches a b c
		t.Fatal(err)
	}
	if _, err := s.reg.Objects("Wall").Filter("id", posts["a"].ID()).Delete(); err != nil {
		t.Fatal(err)
	}
	postAt(s, t, 1, "e", base.Add(-time.Minute))
	if _, err := s.reg.Objects("Wall").Filter("id", posts["b"].ID()).Delete(); err != nil {
		t.Fatal(err)
	}
	objs, err := wallQS(s, 1, 2).All()
	if err != nil {
		t.Fatal(err)
	}
	if got := contents(objs); got != "c d" {
		t.Fatalf("served top-2 %q, want \"c d\"", got)
	}
	checkAgainstDB(t, s, co, sqldb.I64(1))
}

// TestTopKUpdateMovesIntoTheWindow: an update that gives a post outside the
// cached window the newest date moves it to the head of the list.
func TestTopKUpdateMovesIntoTheWindow(t *testing.T) {
	s := newStack(t)
	co := s.cacheable(t, topkSpec(2, 1))
	base := time.Unix(450000, 0)
	var posts []orm.Object
	for i := 5; i >= 1; i-- { // post 1 is the newest
		posts = append(posts, postAt(s, t, 1, fmt.Sprintf("post %d", i), base.Add(time.Duration(-i)*time.Minute)))
	}
	if _, err := wallQS(s, 1, 2).All(); err != nil { // caches posts 1 2 3
		t.Fatal(err)
	}
	if _, err := s.reg.Objects("Wall").Filter("id", posts[0].ID()).Update(orm.Fields{"date_posted": base.Add(time.Hour)}); err != nil {
		t.Fatal(err)
	}
	objs, err := wallQS(s, 1, 2).All()
	if err != nil {
		t.Fatal(err)
	}
	if got := contents(objs); got != "post 5 post 1" {
		t.Fatalf("served top-2 %q, want \"post 5 post 1\"", got)
	}
	checkAgainstDB(t, s, co, sqldb.I64(1))
}

// contents joins the content field of wall posts.
func contents(objs []orm.Object) string {
	out := make([]string, len(objs))
	for i, o := range objs {
		out[i] = o.Str("content")
	}
	return strings.Join(out, " ")
}

func linkSpec() Spec {
	return Spec{
		Name: "user_groups", Class: LinkQuery, MainModel: "Group",
		WhereFields: []string{"user_id"},
		Link: &Link{
			ThroughModel: "Membership", SourceField: "user_id",
			JoinField: "group_id", TargetField: "id",
		},
	}
}

func groupsOf(s *stack, userID int64) *orm.QuerySet {
	return s.reg.Objects("Group").
		Via("Membership", "user_id", "group_id", "id").
		Filter("user_id", userID)
}

func TestLinkQueryMembershipChanges(t *testing.T) {
	s := newStack(t)
	s.cacheable(t, linkSpec())
	gGo, _ := s.reg.Insert("Group", orm.Fields{"name": "go"})
	gDB, _ := s.reg.Insert("Group", orm.Fields{"name": "dbs"})
	m1, _ := s.reg.Insert("Membership", orm.Fields{"user_id": 1, "group_id": gGo.ID()})

	objs, err := groupsOf(s, 1).All()
	if err != nil || len(objs) != 1 || objs[0].Str("name") != "go" {
		t.Fatalf("objs=%v err=%v", objs, err)
	}
	// Join a second group: the through-table trigger appends the joined row.
	_, _ = s.reg.Insert("Membership", orm.Fields{"user_id": 1, "group_id": gDB.ID()})
	selBefore := s.db.Stats().Selects
	objs, _ = groupsOf(s, 1).All()
	if len(objs) != 2 {
		t.Fatalf("after join: %d groups", len(objs))
	}
	if s.db.Stats().Selects != selBefore {
		t.Fatal("link read hit the database after membership insert")
	}
	// Leave the first group.
	_, _ = s.reg.Objects("Membership").Filter("id", m1.ID()).Delete()
	objs, _ = groupsOf(s, 1).All()
	if len(objs) != 1 || objs[0].Str("name") != "dbs" {
		t.Fatalf("after leave: %v", objs)
	}
}

// TestLinkUnfollowDropsEveryJoinedRow: a relation row joins every target row
// with its join value, so an unfollow takes all the unfollowed user's posts
// out of the follower's list, not one.
func TestLinkUnfollowDropsEveryJoinedRow(t *testing.T) {
	s := newStack(t)
	co := s.cacheable(t, friendWallSpec(UpdateInPlace))
	follow, err := s.reg.Insert("Membership", orm.Fields{"user_id": 1, "group_id": 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		postAt(s, t, 10, fmt.Sprintf("p%d", i), time.Unix(int64(1e6+i), 0))
	}
	friendWall := func() []orm.Object {
		objs, err := friendWallQS(s, 1).All()
		if err != nil {
			t.Fatal(err)
		}
		return objs
	}
	if n := len(friendWall()); n != 3 {
		t.Fatalf("user 1 sees %d posts of the user they follow, want 3", n)
	}
	if _, err := s.reg.Objects("Membership").Filter("id", follow.ID()).Delete(); err != nil {
		t.Fatal(err)
	}
	if objs := friendWall(); len(objs) != 0 {
		t.Fatalf("after the unfollow user 1 sees %d posts (%s), want 0", len(objs), contents(objs))
	}
	checkAgainstDB(t, s, co, sqldb.I64(1))
}

func TestLinkQueryTargetUpdatePropagates(t *testing.T) {
	s := newStack(t)
	s.cacheable(t, linkSpec())
	g1, _ := s.reg.Insert("Group", orm.Fields{"name": "oldname"})
	_, _ = s.reg.Insert("Membership", orm.Fields{"user_id": 1, "group_id": g1.ID()})
	_, _ = s.reg.Insert("Membership", orm.Fields{"user_id": 2, "group_id": g1.ID()})
	_, _ = groupsOf(s, 1).All()
	_, _ = groupsOf(s, 2).All()

	// Rename the group: both users' cached lists must reflect it.
	_, err := s.reg.Objects("Group").Filter("id", g1.ID()).Update(orm.Fields{"name": "newname"})
	if err != nil {
		t.Fatal(err)
	}
	for _, uid := range []int64{1, 2} {
		objs, _ := groupsOf(s, uid).All()
		if len(objs) != 1 || objs[0].Str("name") != "newname" {
			t.Fatalf("user %d sees %v", uid, objs)
		}
	}
	// Delete the group entirely.
	_, _ = s.reg.Objects("Group").Filter("id", g1.ID()).Delete()
	objs, _ := groupsOf(s, 1).All()
	if len(objs) != 0 {
		t.Fatalf("after group delete: %v", objs)
	}
}

func TestOpaqueObjectNotIntercepted(t *testing.T) {
	s := newStack(t)
	spec := profileSpec(UpdateInPlace)
	spec.Opaque = true
	co := s.cacheable(t, spec)
	_, _ = s.reg.Insert("Profile", orm.Fields{"user_id": 5, "bio": "x"})

	// Transparent path must go to the DB both times.
	selBefore := s.db.Stats().Selects
	_, _ = s.reg.Objects("Profile").Filter("user_id", 5).Get()
	_, _ = s.reg.Objects("Profile").Filter("user_id", 5).Get()
	if got := s.db.Stats().Selects - selBefore; got != 2 {
		t.Fatalf("SELECTs = %d, want 2 (opaque object not intercepted)", got)
	}
	// Manual evaluation uses the cache.
	rows, err := co.Rows(sqldb.I64(5))
	if err != nil || len(rows) != 1 {
		t.Fatalf("rows=%v err=%v", rows, err)
	}
	rows, _ = co.Rows(sqldb.I64(5))
	if len(rows) != 1 || s.g.Stats().Hits != 1 {
		t.Fatal("manual evaluate should hit the cache")
	}
}

func TestExpiryStrategyInstallsNoTriggers(t *testing.T) {
	s := newStack(t)
	spec := profileSpec(Expiry)
	spec.TTL = time.Minute
	co := s.cacheable(t, spec)
	if len(co.Triggers()) != 0 {
		t.Fatalf("expiry object installed %d triggers", len(co.Triggers()))
	}
	if n := len(s.db.Triggers("profiles", sqldb.TrigInsert)); n != 0 {
		t.Fatalf("%d DB triggers installed", n)
	}
}

func TestTriggerGenerationCounts(t *testing.T) {
	s := newStack(t)
	feature := s.cacheable(t, profileSpec(UpdateInPlace))
	link := s.cacheable(t, linkSpec())
	if n := len(feature.Triggers()); n != 3 {
		t.Fatalf("feature triggers = %d, want 3", n)
	}
	if n := len(link.Triggers()); n != 6 {
		t.Fatalf("link triggers = %d, want 6 (3 per underlying table)", n)
	}
	if lines := feature.TriggerSourceLines(); lines < 20 {
		t.Fatalf("feature trigger source only %d lines", lines)
	}
	for _, tr := range link.Triggers() {
		if tr.Source == "" {
			t.Fatalf("trigger %s has no source listing", tr.Name)
		}
	}
}

func TestDuplicateSpecRejected(t *testing.T) {
	s := newStack(t)
	s.cacheable(t, profileSpec(UpdateInPlace))
	if _, err := s.g.Cacheable(profileSpec(UpdateInPlace)); err == nil {
		t.Fatal("duplicate cached object accepted")
	}
}

// TestCacheableFailureLeavesNothingBehind: a declaration whose triggers
// cannot all be installed — here the link object's target table does not exist
// yet, after its relation table's three triggers went in — leaves no trigger,
// no declared object and no interception behind, and the same spec succeeds
// once the table exists.
func TestCacheableFailureLeavesNothingBehind(t *testing.T) {
	db := sqldb.MustOpen(sqldb.Config{})
	group := &orm.ModelDef{Name: "Group", Table: "groups",
		Fields: []orm.FieldDef{{Name: "name", Type: sqldb.TypeText, NotNull: true}}}
	membership := &orm.ModelDef{Name: "Membership", Table: "membership", Fields: []orm.FieldDef{
		{Name: "user_id", Type: sqldb.TypeInt, NotNull: true},
		{Name: "group_id", Type: sqldb.TypeInt, NotNull: true},
	}}
	create := func(defs ...*orm.ModelDef) {
		t.Helper()
		reg := orm.NewRegistry(db)
		for _, d := range defs {
			reg.MustRegister(d)
		}
		if err := reg.CreateTables(); err != nil {
			t.Fatal(err)
		}
	}
	reg := orm.NewRegistry(db)
	reg.MustRegister(group)
	reg.MustRegister(membership)
	g, err := New(Config{Registry: reg, DB: db, Cache: kvcache.New(0)})
	if err != nil {
		t.Fatal(err)
	}
	create(membership)
	if _, err := g.Cacheable(linkSpec()); err == nil {
		t.Fatal("declared a link object over a missing target table")
	}
	if n, objs, intercepted := len(db.AllTriggers()), len(g.Objects()), len((*g.byModel.Load())["Group"]); n+objs+intercepted != 0 {
		t.Fatalf("the failed declaration left %d triggers, %d objects and %d intercepting objects", n, objs, intercepted)
	}
	create(group)
	co, err := g.Cacheable(linkSpec())
	if err != nil {
		t.Fatalf("retry once the tables exist: %v", err)
	}
	if n := len(db.AllTriggers()); n != 6 || len(g.Objects()) != 1 || len(co.Triggers()) != 6 {
		t.Fatalf("retry installed %d triggers and declared %d objects, want 6 and 1", n, len(g.Objects()))
	}
}

func TestSpecValidation(t *testing.T) {
	s := newStack(t)
	bad := []Spec{
		{},
		{Name: "x"},
		{Name: "x", MainModel: "Profile"},
		{Name: "x", Class: FeatureQuery, MainModel: "Profile"},
		{Name: "x:y", Class: FeatureQuery, MainModel: "Profile", WhereFields: []string{"user_id"}},
		{Name: "x", Class: TopKQuery, MainModel: "Wall", WhereFields: []string{"user_id"}},
		{Name: "x", Class: LinkQuery, MainModel: "Group", WhereFields: []string{"user_id"}},
		{Name: "x", Class: FeatureQuery, MainModel: "Profile", WhereFields: []string{"no_such_field"}},
		{Name: "x", Class: FeatureQuery, MainModel: "NoModel", WhereFields: []string{"user_id"}},
		{Name: "x", Class: FeatureQuery, MainModel: "Profile", WhereFields: []string{"user_id"}, Strategy: Expiry},
	}
	for i, spec := range bad {
		if _, err := s.g.Cacheable(spec); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestEvictionFallsBackToDatabase(t *testing.T) {
	db := sqldb.MustOpen(sqldb.Config{})
	reg := orm.NewRegistry(db)
	reg.MustRegister(&orm.ModelDef{
		Name: "Profile", Table: "profiles",
		Fields: []orm.FieldDef{
			{Name: "user_id", Type: sqldb.TypeInt, NotNull: true},
			{Name: "bio", Type: sqldb.TypeText},
		},
		Indexes: [][]string{{"user_id"}},
	})
	if err := reg.CreateTables(); err != nil {
		t.Fatal(err)
	}
	cache := kvcache.New(600) // tiny: a couple of entries
	g, err := New(Config{Registry: reg, DB: db, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Cacheable(profileSpec(UpdateInPlace)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		_, _ = reg.Insert("Profile", orm.Fields{"user_id": i, "bio": fmt.Sprintf("b%d", i)})
	}
	// Read all, forcing evictions, then read them back: answers must stay
	// correct via DB fallback.
	for round := 0; round < 2; round++ {
		for i := 1; i <= 20; i++ {
			o, err := reg.Objects("Profile").Filter("user_id", i).Get()
			if err != nil || o.Str("bio") != fmt.Sprintf("b%d", i) {
				t.Fatalf("round %d user %d: %v %v", round, i, o, err)
			}
		}
	}
	if cache.Stats().Evictions == 0 {
		t.Fatal("test did not exercise eviction")
	}
}

// TestNeverStaleProperty is the paper's core consistency claim: readers may
// see dirty (uncommitted) data but never stale data. A random schedule of
// reads and writes over all four classes, with follows, unfollows and updates
// that move a post in its owner's order or to another owner, runs under both
// maintaining strategies, synchronously and on the bus, and the oracle checks
// every cached entry after every step.
func TestNeverStaleProperty(t *testing.T) {
	for _, strategy := range []Strategy{UpdateInPlace, Invalidate} {
		t.Run(strategy.String(), func(t *testing.T) {
			for _, mode := range []string{"sync", "async"} {
				t.Run(mode, func(t *testing.T) { neverStale(t, strategy, mode == "async", 31) })
			}
		})
	}
}

// neverStale runs the property's schedule drawn from seed.
func neverStale(t *testing.T, strategy Strategy, async bool, seed int64) {
	s := newStackConfig(t, func(store *kvcache.Store) kvcache.Cache { return store }, Config{AsyncInvalidation: async})
	count := Spec{Name: "wall_count", Class: CountQuery, MainModel: "Wall", WhereFields: []string{"user_id"}}
	topk := topkSpec(5, 2)
	count.Strategy, topk.Strategy = strategy, strategy
	for _, spec := range []Spec{profileSpec(strategy), count, topk, friendWallSpec(strategy)} {
		s.cacheable(t, spec)
	}
	rng := rand.New(rand.NewSource(seed))
	base := time.Unix(500000, 0)
	var wallIDs []int64
	follows := map[[2]int]bool{}
	for step := 0; step < 800; step++ {
		uid, other := 1+rng.Intn(5), 1+rng.Intn(5)
		date := base.Add(time.Duration(rng.Intn(100000)) * time.Second)
		post := int64(0)
		if len(wallIDs) > 0 {
			post = wallIDs[rng.Intn(len(wallIDs))]
		}
		wall := s.reg.Objects("Wall")
		var what string
		var err error
		switch rng.Intn(14) {
		case 0, 1:
			what = fmt.Sprintf("user %d adds a profile", uid)
			_, err = s.reg.Insert("Profile", orm.Fields{"user_id": uid, "bio": fmt.Sprintf("s%d", step)})
		case 2:
			what = fmt.Sprintf("user %d edits their profiles", uid)
			_, err = s.reg.Objects("Profile").Filter("user_id", uid).Update(orm.Fields{"bio": fmt.Sprintf("u%d", step)})
		case 3:
			what = fmt.Sprintf("user %d deletes their profiles", uid)
			_, err = s.reg.Objects("Profile").Filter("user_id", uid).Delete()
		case 4, 5:
			what = fmt.Sprintf("user %d posts", uid)
			var o orm.Object
			if o, err = s.reg.Insert("Wall", orm.Fields{"user_id": uid, "content": fmt.Sprintf("w%d", step), "date_posted": date}); err == nil {
				wallIDs = append(wallIDs, o.ID())
			}
		case 6:
			what = fmt.Sprintf("post %d is deleted", post)
			_, err = wall.Filter("id", post).Delete()
		case 7:
			what = fmt.Sprintf("post %d is redated", post)
			_, err = wall.Filter("id", post).Update(orm.Fields{"date_posted": date})
		case 8:
			what = fmt.Sprintf("post %d moves to user %d", post, other)
			_, err = wall.Filter("id", post).Update(orm.Fields{"user_id": other})
		case 9:
			what = fmt.Sprintf("user %d follows user %d", uid, other)
			if !follows[[2]int{uid, other}] {
				follows[[2]int{uid, other}] = true
				_, err = s.reg.Insert("Membership", orm.Fields{"user_id": uid, "group_id": other})
			}
		case 10:
			what = fmt.Sprintf("user %d unfollows user %d", uid, other)
			delete(follows, [2]int{uid, other})
			_, err = s.reg.Objects("Membership").Filter("user_id", uid).Filter("group_id", other).Delete()
		default:
			what = fmt.Sprintf("user %d's pages are read", uid)
			if _, err = s.reg.Objects("Profile").Filter("user_id", uid).All(); err == nil {
				_, err = wall.Filter("user_id", uid).Count()
			}
			if err == nil {
				_, err = wallQS(s, uid, 5).All()
			}
			if err == nil {
				_, err = friendWallQS(s, uid).All()
			}
		}
		if err != nil {
			t.Fatalf("seed %d, step %d, %s: %v", seed, step, what, err)
		}
		if err := s.stale(); err != nil {
			t.Fatalf("seed %d, step %d, after %s: %v", seed, step, what, err)
		}
	}
}

func TestStatsExposed(t *testing.T) {
	s := newStack(t)
	s.cacheable(t, profileSpec(UpdateInPlace))
	_, _ = s.reg.Insert("Profile", orm.Fields{"user_id": 1, "bio": "x"})
	_, _ = s.reg.Objects("Profile").Filter("user_id", 1).Get()
	_, _ = s.reg.Objects("Profile").Filter("user_id", 1).Get()
	st := s.g.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if len(s.g.Objects()) != 1 {
		t.Fatalf("objects = %d", len(s.g.Objects()))
	}
}
