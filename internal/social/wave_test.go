package social

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"cachegenie/internal/cacheproto"
	"cachegenie/internal/cluster"
	"cachegenie/internal/core"
	"cachegenie/internal/kvcache"
	"cachegenie/internal/orm"
	"cachegenie/internal/sqldb"
)

// recConn is the registry's connection with every statement written down, so
// two stacks can be compared on the exact SQL they sent and in what order.
type recConn struct {
	db  *sqldb.DB
	log []string
}

func (c *recConn) Exec(sql string, args ...sqldb.Value) (sqldb.Result, error) {
	c.log = append(c.log, fmt.Sprint(sql, args))
	return c.db.Exec(sql, args...)
}

func (c *recConn) Query(sql string, args ...sqldb.Value) (*sqldb.ResultSet, error) {
	c.log = append(c.log, fmt.Sprint(sql, args))
	return c.db.Query(sql, args...)
}

// recInterceptor is an orm.Interceptor decorator that knows nothing of waves:
// it forwards the two methods and writes down what came back. With sequential
// set it also strips the wave off every descriptor, which makes the Genie
// answer the very same page handlers one lookup at a time — the reference the
// batched path is compared against.
//
// On an async stack it drains the invalidation bus around every query, so
// what a query finds in the cache depends on what was published before it and
// not on how far the bus workers happened to get.
type recInterceptor struct {
	inner      *core.Genie
	sequential bool
	seen       int
	log        []string
}

func (r *recInterceptor) forward(d *orm.QueryDescriptor) *orm.QueryDescriptor {
	r.seen++
	r.inner.FlushInvalidations()
	if !r.sequential {
		return d
	}
	alone := *d
	alone.Wave = nil
	return &alone
}

func (r *recInterceptor) InterceptRows(d *orm.QueryDescriptor) ([]sqldb.Row, bool, error) {
	rows, ok, err := r.inner.InterceptRows(r.forward(d))
	r.inner.FlushInvalidations()
	r.log = append(r.log, fmt.Sprint(d.Model.Name, d.Filters, rows, ok, err))
	return rows, ok, err
}

func (r *recInterceptor) InterceptCount(d *orm.QueryDescriptor) (int64, bool, error) {
	n, ok, err := r.inner.InterceptCount(r.forward(d))
	r.inner.FlushInvalidations()
	r.log = append(r.log, fmt.Sprint(d.Model.Name, d.Filters, n, ok, err))
	return n, ok, err
}

// tier is a test stack's cache tier: nodes loopback cacheproto servers behind
// a ring of pools at the given replication factor, or with nodes == 0 one
// in-process store.
type tier struct {
	nodes, replicas int
	async           bool
}

func (tr tier) String() string {
	mode := "sync"
	if tr.async {
		mode = "async"
	}
	if tr.nodes == 0 {
		return "store/" + mode
	}
	return fmt.Sprintf("ring%dR%d/%s", tr.nodes, tr.replicas, mode)
}

type waveStack struct {
	app     *App
	genie   *core.Genie
	conn    *recConn
	icept   *recInterceptor // nil unless decorated
	cache   kvcache.Cache
	pools   []*cacheproto.Pool
	servers []*cacheproto.Server
}

// newWaveStack builds a seeded, cached app over tr. decorate puts a
// recInterceptor between the ORM and the Genie.
func newWaveStack(t testing.TB, tr tier, decorate, sequential bool) *waveStack {
	t.Helper()
	st := &waveStack{conn: &recConn{db: sqldb.MustOpen(sqldb.Config{})}}
	reg := orm.NewRegistry(st.conn)
	if err := RegisterModels(reg); err != nil {
		t.Fatal(err)
	}
	if err := reg.CreateTables(); err != nil {
		t.Fatal(err)
	}
	st.cache = kvcache.New(0)
	if tr.nodes > 0 {
		var nodes []kvcache.Cache
		for i := 0; i < tr.nodes; i++ {
			srv := cacheproto.NewServer(kvcache.New(0))
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			pool := cacheproto.NewPoolWithConfig(cacheproto.PoolConfig{Addr: addr})
			st.servers = append(st.servers, srv)
			st.pools = append(st.pools, pool)
			nodes = append(nodes, pool)
		}
		ring, err := cluster.NewRing(nodes, cluster.WithReplicas(tr.replicas))
		if err != nil {
			t.Fatal(err)
		}
		st.cache = ring
	}
	var err error
	// An async stack's bus holds trigger ops until someone drains it (a window
	// no test outlasts), so what a page reads does not depend on worker timing.
	st.genie, err = core.New(core.Config{Registry: reg, DB: st.conn.db, Cache: st.cache,
		AsyncInvalidation: tr.async, BatchWindow: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		st.genie.Close()
		for _, p := range st.pools {
			_ = p.Close()
		}
		for _, s := range st.servers {
			_ = s.Close()
		}
	})
	if decorate {
		st.icept = &recInterceptor{inner: st.genie, sequential: sequential}
		reg.SetInterceptor(st.icept)
	}
	if st.app, err = NewApp(reg, st.genie, core.UpdateInPlace); err != nil {
		t.Fatal(err)
	}
	var tick int64
	base := time.Date(2012, 1, 1, 0, 0, 0, 0, time.UTC)
	st.app.SetClock(func() time.Time { tick++; return base.Add(time.Duration(tick) * time.Millisecond) })
	// The cache is empty while seeding: every trigger would find nothing.
	st.conn.db.SetTriggersEnabled(false)
	err = st.app.Seed(SeedConfig{
		Users: 30, UniqueBookmarks: 20, MaxBookmarksPer: 8,
		MaxFriendsPer: 4, MaxInvitesPer: 3, MaxWallPosts: 5,
	}, rand.New(rand.NewSource(1)))
	st.conn.db.SetTriggersEnabled(true)
	if err != nil {
		t.Fatal(err)
	}
	st.conn.log = nil
	return st
}

// checkouts is the number of connections checked out of the node pools so
// far: one per exchange with a cache node.
func (st *waveStack) checkouts() int64 {
	var n int64
	for _, p := range st.pools {
		s := p.Stats()
		n += s.Dials + s.Reuses
	}
	return n
}

// page runs one page and, on an async stack, drains the bus so the next page
// sees its effects on every stack alike.
func (st *waveStack) page(t testing.TB, p PageType, uid, seq int64) {
	t.Helper()
	if err := st.app.RunPage(p, uid, seq); err != nil {
		t.Fatalf("%s uid %d seq %d: %v", p, uid, seq, err)
	}
	st.genie.FlushInvalidations()
}

// trips runs fn and returns how many node exchanges it made.
func (st *waveStack) trips(t testing.TB, fn func() error) int64 {
	t.Helper()
	before := st.checkouts()
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	return st.checkouts() - before
}

// fullPageUsers lists the seeded users whose "my bookmarks" page shows
// detailFanout different bookmarks: the full 17 lookups, no key twice.
func fullPageUsers(t testing.TB, st *waveStack) []int64 {
	t.Helper()
	var uids []int64
	for uid := int64(1); uid <= int64(st.app.NumUsers); uid++ {
		insts, err := st.app.Reg.Objects("BookmarkInstance").Filter("user_id", uid).
			OrderBy("-saved_at").Limit(detailFanout).NoCache().All()
		if err != nil {
			t.Fatal(err)
		}
		distinct := map[int64]bool{}
		for _, inst := range insts {
			distinct[inst.Int("bookmark_id")] = true
		}
		if len(distinct) == detailFanout {
			uids = append(uids, uid)
		}
	}
	if len(uids) == 0 {
		t.Fatal("no seeded user has a full page of distinct bookmarks")
	}
	return uids
}

// sequentialLookupBM is LookupBM written against the one-query-at-a-time
// QuerySet API, as every handler was before waves.
func sequentialLookupBM(a *App, uid int64) error {
	if _, err := a.Reg.Objects("User").Filter("id", uid).Get(); err != nil {
		return err
	}
	if _, err := a.Reg.Objects("Profile").Filter("user_id", uid).All(); err != nil {
		return err
	}
	if _, err := a.Reg.Objects("Friendship").Filter("from_user_id", uid).Count(); err != nil {
		return err
	}
	if _, err := a.Reg.Objects("FriendInvitation").
		Filter("to_user_id", uid).Filter("status", InviteStatusPending).Count(); err != nil {
		return err
	}
	if _, err := a.Reg.Objects("BookmarkInstance").Filter("user_id", uid).Count(); err != nil {
		return err
	}
	if _, err := a.Reg.Objects("WallPost").Filter("user_id", uid).
		OrderBy("-date_posted").Limit(detailFanout).All(); err != nil {
		return err
	}
	instances, err := a.Reg.Objects("BookmarkInstance").
		Filter("user_id", uid).OrderBy("-saved_at").Limit(TopKBookmarks).All()
	if err != nil {
		return err
	}
	for i, inst := range instances {
		if i >= detailFanout {
			break
		}
		bid := inst.Int("bookmark_id")
		if _, err := a.Reg.Objects("Bookmark").Filter("id", bid).All(); err != nil {
			return err
		}
		if _, err := a.Reg.Objects("BookmarkInstance").Filter("bookmark_id", bid).Count(); err != nil {
			return err
		}
	}
	return nil
}

// Waves change how the Genie talks to the cache and nothing else: over the
// same seeded page stream with writes interleaved, a stack whose pages batch
// and one answering the same handlers one lookup at a time return the same
// objects, count the same hits and misses, and send the database the same
// statements in the same order.
func TestWaveEqualsSequential(t *testing.T) {
	for _, tr := range []tier{
		{0, 0, false}, {0, 0, true},
		{2, 1, false}, {2, 1, true},
		{2, 2, false}, {2, 2, true},
	} {
		t.Run(tr.String(), func(t *testing.T) {
			for seed := int64(1); seed <= 2; seed++ {
				waved := newWaveStack(t, tr, true, false)
				plain := newWaveStack(t, tr, true, true)
				rng := rand.New(rand.NewSource(seed))
				for seq := int64(1); seq <= 120; seq++ {
					p := PageTypes()[rng.Intn(len(PageTypes()))]
					uid := int64(1 + rng.Intn(12))
					waved.page(t, p, uid, seq)
					plain.page(t, p, uid, seq)
				}
				if !reflect.DeepEqual(waved.icept.log, plain.icept.log) {
					t.Errorf("seed %d: the two stacks answered %d and %d queries differently: first at %s",
						seed, len(waved.icept.log), len(plain.icept.log), firstDiff(waved.icept.log, plain.icept.log))
				}
				if !reflect.DeepEqual(waved.conn.log, plain.conn.log) {
					t.Errorf("seed %d: SQL sequences differ: first at %s", seed, firstDiff(waved.conn.log, plain.conn.log))
				}
				ws, ps := waved.genie.Stats(), plain.genie.Stats()
				if ws.Hits != ps.Hits || ws.Misses != ps.Misses || ws.Hits == 0 || ws.Misses == 0 {
					t.Errorf("seed %d: hits/misses %d/%d batched, %d/%d sequential", seed, ws.Hits, ws.Misses, ps.Hits, ps.Misses)
				}
				if ws.Waves == 0 || ws.WaveKeys < 2*ws.Waves || ps.Waves != 0 {
					t.Errorf("seed %d: waves %d carrying %d keys batched, %d sequential", seed, ws.Waves, ws.WaveKeys, ps.Waves)
				}
			}
		})
	}
}

func firstDiff(a, b []string) string {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			other := "(nothing)"
			if i < len(b) {
				other = b[i]
			}
			return fmt.Sprintf("#%d\n  batched:    %s\n  sequential: %s", i, a[i], other)
		}
	}
	return fmt.Sprintf("#%d (batched log is a prefix)", len(a))
}

// A corrupt entry found by a wave's batched read is dropped and reloaded from
// the database, exactly as a corrupt entry found by a plain Get is.
func TestWaveDropsAndReloadsCorruptEntry(t *testing.T) {
	st := newWaveStack(t, tier{nodes: 2, replicas: 1}, false, false)
	const uid = 3
	st.page(t, PageLookupBM, uid, 1)
	rowsKey := st.app.Objects["user_by_id"].MakeKey(sqldb.I64(uid))
	countKey := st.app.Objects["bookmark_count_of_user"].MakeKey(sqldb.I64(uid))
	good, ok := st.cache.Get(rowsKey)
	if !ok {
		t.Fatalf("%s is not cached after the page", rowsKey)
	}
	st.cache.Set(rowsKey, []byte("garbage"), 0)
	st.cache.Set(countKey, []byte("12x"), 0)
	before, sql := st.genie.Stats(), len(st.conn.log)
	st.page(t, PageLookupBM, uid, 2)
	after := st.genie.Stats()
	if after.Misses-before.Misses != 2 || len(st.conn.log)-sql != 2 {
		t.Errorf("two corrupt entries cost %d misses and %d statements, want 2 and 2",
			after.Misses-before.Misses, len(st.conn.log)-sql)
	}
	if got, _ := st.cache.Get(rowsKey); string(got) != string(good) {
		t.Errorf("%s reloaded as %q, want %q", rowsKey, got, good)
	}
	if got, _ := st.cache.Get(countKey); string(got) == "12x" {
		t.Errorf("%s still holds the corrupt count", countKey)
	}
}

// A node that dies mid-run turns the wave keys it owned into misses the
// database answers; no page sees an error.
func TestWaveSurvivesNodeKill(t *testing.T) {
	st := newWaveStack(t, tier{nodes: 2, replicas: 1}, false, false)
	for uid := int64(1); uid <= 6; uid++ {
		st.page(t, PageLookupBM, uid, uid)
	}
	if err := st.servers[0].Close(); err != nil {
		t.Fatal(err)
	}
	before, sql := st.genie.Stats(), len(st.conn.log)
	for uid := int64(1); uid <= 6; uid++ {
		st.page(t, PageLookupBM, uid, 100+uid)
		st.page(t, PageLookupFBM, uid, 200+uid)
	}
	after := st.genie.Stats()
	if after.Misses == before.Misses || len(st.conn.log) == sql {
		t.Error("the dead node's keys were not reloaded from the database")
	}
	if after.Hits == before.Hits {
		t.Error("the surviving node served nothing")
	}
}

// An interceptor decorator that forwards the two methods and has never heard
// of waves sees every query of every wave, and the stack beneath it makes
// exactly the exchanges it makes undecorated.
func TestWaveIsTransparentToDecorators(t *testing.T) {
	const uid = 4
	run := func(decorate bool) (trips int64, st *waveStack) {
		st = newWaveStack(t, tier{nodes: 2, replicas: 1}, decorate, false)
		st.page(t, PageLookupBM, uid, 1)
		return st.trips(t, func() error { return st.app.LookupBM(uid) }), st
	}
	bare, _ := run(false)
	decorated, st := run(true)
	if bare != decorated || bare == 0 {
		t.Errorf("a warm LookupBM made %d exchanges undecorated, %d decorated", bare, decorated)
	}
	seen := st.icept.seen
	if err := sequentialLookupBM(st.app, uid); err != nil {
		t.Fatal(err)
	}
	if batched, sequential := seen/2, st.icept.seen-seen; batched != sequential {
		t.Errorf("the decorator saw %d queries per batched page, %d from the sequential handler", batched, sequential)
	}
}

// The round-trip gate. On a warm two-node ring every page costs at most one
// exchange per node per wave, and a wave whose keys all place by the page's
// user — the chrome and the user's lists — is one exchange; a wave of one key
// is a plain get; and a handler written against the sequential API still pays
// one exchange per query.
func TestWaveRoundTrips(t *testing.T) {
	st := newWaveStack(t, tier{nodes: 2, replicas: 1}, false, false)
	uid := fullPageUsers(t, st)[0]
	st.page(t, PageLookupBM, uid, 1)
	st.page(t, PageLookupFBM, uid, 2)
	misses := st.genie.Stats().Misses

	if n := st.trips(t, func() error {
		w := st.app.Reg.Wave() // LookupBM's first wave
		st.app.pageChrome(w, uid)
		w.All(st.app.Reg.Objects("BookmarkInstance").
			Filter("user_id", uid).OrderBy("-saved_at").Limit(TopKBookmarks))
		return w.Run()
	}); n != 1 {
		t.Errorf("the first wave of a warm LookupBM made %d node exchanges, want 1", n)
	}
	if n := st.trips(t, func() error { return st.app.LookupBM(uid) }); n > 3 {
		t.Errorf("warm LookupBM made %d node exchanges, want at most 3 (1 + 2 nodes)", n)
	}
	if n := st.trips(t, func() error { return st.app.LookupFBM(uid) }); n > 3 {
		t.Errorf("warm LookupFBM made %d node exchanges, want at most 3", n)
	}
	if n := st.trips(t, func() error {
		w := st.app.Reg.Wave()
		w.Get(st.app.Reg.Objects("User").Filter("id", uid))
		return w.Run()
	}); n != 1 {
		t.Errorf("a wave of one query made %d node exchanges, want 1", n)
	}
	const queries = 6 + 1 + 2*detailFanout
	if n := st.trips(t, func() error { return sequentialLookupBM(st.app, uid) }); n != queries {
		t.Errorf("the sequential LookupBM made %d node exchanges for its %d queries", n, queries)
	}
	if got := st.genie.Stats().Misses; got != misses {
		t.Errorf("%d misses on warm pages", got-misses)
	}
}

// The page chrome requires the signed-in user to exist, in a wave as before.
func TestPageOfUnknownUserFails(t *testing.T) {
	app, _, _ := newApp(t, true, core.UpdateInPlace)
	if err := app.LookupBM(9999); !errors.Is(err, orm.ErrNotFound) {
		t.Errorf("LookupBM of an unknown user: %v, want ErrNotFound", err)
	}
}

// BenchmarkLookupBMWave is a warm "my bookmarks" page over a two-node loopback
// ring: the read path the waves exist for. trips/page is node exchanges.
func BenchmarkLookupBMWave(b *testing.B) {
	st := newWaveStack(b, tier{nodes: 2, replicas: 1}, false, false)
	uids := fullPageUsers(b, st)
	for _, uid := range uids {
		st.page(b, PageLookupBM, uid, uid)
	}
	before := st.checkouts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.app.LookupBM(uids[i%len(uids)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(st.checkouts()-before)/float64(b.N), "trips/page")
}
