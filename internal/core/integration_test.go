package core

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"cachegenie/internal/cacheproto"
	"cachegenie/internal/cluster"
	"cachegenie/internal/kvcache"
	"cachegenie/internal/orm"
	"cachegenie/internal/rowlist"
	"cachegenie/internal/sqldb"
)

// TestGenieOverRemoteCache runs CacheGenie against a cache reached through
// the memcached text protocol over TCP, exactly as the paper deploys it:
// triggers talk to a remote cache server.
func TestGenieOverRemoteCache(t *testing.T) {
	store := kvcache.New(0)
	srv := cacheproto.NewServer(store)
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
	g, err := New(Config{Registry: reg, DB: db, Cache: cli})
	if err != nil {
		t.Fatal(err)
	}
	co, err := g.Cacheable(Spec{
		Name: "profile_remote", Class: FeatureQuery, MainModel: "Profile",
		WhereFields: []string{"user_id"},
	})
	if err != nil {
		t.Fatal(err)
	}

	_, _ = reg.Insert("Profile", orm.Fields{"user_id": 9, "bio": "v1"})
	o, err := reg.Objects("Profile").Filter("user_id", 9).Get()
	if err != nil || o.Str("bio") != "v1" {
		t.Fatalf("o=%v err=%v", o, err)
	}
	// The entry must physically live in the remote store.
	if _, ok := store.Get(co.MakeKey(sqldb.I64(9))); !ok {
		t.Fatal("entry not in remote store")
	}
	// Trigger-driven update crosses the wire too.
	_, _ = reg.Objects("Profile").Filter("user_id", 9).Update(orm.Fields{"bio": "v2"})
	selBefore := db.Stats().Selects
	o, _ = reg.Objects("Profile").Filter("user_id", 9).Get()
	if o.Str("bio") != "v2" {
		t.Fatalf("bio = %q", o.Str("bio"))
	}
	if db.Stats().Selects != selBefore {
		t.Fatal("read after update hit the database")
	}
}

// TestGenieOverCacheCluster runs CacheGenie against a consistent-hash ring
// of three stores (the paper's "single logical cache across many cache
// servers").
func TestGenieOverCacheCluster(t *testing.T) {
	stores := []*kvcache.Store{kvcache.New(0), kvcache.New(0), kvcache.New(0)}
	ring, err := cluster.NewRing([]kvcache.Cache{stores[0], stores[1], stores[2]})
	if err != nil {
		t.Fatal(err)
	}
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
	g, err := New(Config{Registry: reg, DB: db, Cache: ring})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Cacheable(Spec{
		Name: "profile_ring", Class: FeatureQuery, MainModel: "Profile",
		WhereFields: []string{"user_id"},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 60; i++ {
		_, _ = reg.Insert("Profile", orm.Fields{"user_id": i, "bio": fmt.Sprintf("b%d", i)})
		if _, err := reg.Objects("Profile").Filter("user_id", i).Get(); err != nil {
			t.Fatal(err)
		}
	}
	// Keys spread across nodes, no duplicates.
	total := 0
	nodesUsed := 0
	for _, s := range stores {
		if n := s.Len(); n > 0 {
			nodesUsed++
			total += n
		}
	}
	if nodesUsed < 2 || total != 60 {
		t.Fatalf("keys on %d nodes, total %d (want spread, 60)", nodesUsed, total)
	}
	// Updates route to the right node.
	_, _ = reg.Objects("Profile").Filter("user_id", 30).Update(orm.Fields{"bio": "fresh"})
	o, _ := reg.Objects("Profile").Filter("user_id", 30).Get()
	if o.Str("bio") != "fresh" {
		t.Fatalf("bio = %q", o.Str("bio"))
	}
}

// newLoopbackRingStack is the test stack over two cache nodes on loopback
// TCP, each a cacheproto server reached through a pool, joined in a ring that
// keeps every key on both (R = 2).
func newLoopbackRingStack(t *testing.T, cfg Config) *stack {
	t.Helper()
	second := kvcache.New(0)
	s := newStackConfig(t, func(first *kvcache.Store) kvcache.Cache {
		var nodes []kvcache.Cache
		for _, store := range []*kvcache.Store{first, second} {
			srv := cacheproto.NewServer(store)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			p := cacheproto.NewPoolWithConfig(cacheproto.PoolConfig{Addr: addr})
			t.Cleanup(func() {
				p.Close()
				_ = srv.Close()
			})
			nodes = append(nodes, p)
		}
		ring, err := cluster.NewRing(nodes, cluster.WithReplicas(2))
		if err != nil {
			t.Fatal(err)
		}
		return ring
	}, cfg)
	s.replicas = []*kvcache.Store{s.cache, second}
	return s
}

// TestWriteSetEditReachesBothReplicasInOneRound: at R = 2 a statement's list
// edit is a plain mutation, which the ring sends to both replicas in the
// flush's one round; each replays it on its own copy, so both end holding
// the same bytes, and no round of sets follows to copy one replica's result
// to the other.
func TestWriteSetEditReachesBothReplicasInOneRound(t *testing.T) {
	stores := []*kvcache.Store{kvcache.New(0), kvcache.New(0)}
	nodes := []*countingCache{{Store: stores[0]}, {Store: stores[1]}}
	ring, err := cluster.NewRing([]kvcache.Cache{nodes[0], nodes[1]}, cluster.WithReplicas(2))
	if err != nil {
		t.Fatal(err)
	}
	s := newStackOver(t, func(*kvcache.Store) kvcache.Cache { return ring })
	co := s.cacheable(t, topkSpec(3, 2))
	base := time.Unix(1e6, 0)
	for i := 0; i < 4; i++ {
		postAt(s, t, 7, fmt.Sprintf("p%d", i), base.Add(time.Duration(i)*time.Minute))
	}
	if _, err := wallQS(s, 7, 3).All(); err != nil { // a miss: its add reaches both
		t.Fatal(err)
	}
	key := co.MakeKey(sqldb.I64(7))
	nodes[0].reset()
	nodes[1].reset()
	postAt(s, t, 7, "newest", base.Add(time.Hour))
	for i, n := range nodes {
		if got := fmt.Sprint(n.batches); got != "[[edit]]" || len(n.perOp) != 0 {
			t.Errorf("node %d received batches %s and per-op calls %v, want [[edit]] and none", i, got, n.perOp)
		}
	}
	a, okA := stores[0].GetQuiet(key)
	b, okB := stores[1].GetQuiet(key)
	if !okA || !okB || string(a) != string(b) {
		t.Fatalf("replicas hold %x (%v) and %x (%v), want the same entry", a, okA, b, okB)
	}
	if l, err := rowlist.Decode(a); err != nil || len(l.Rows) != 5 || l.Rows[0][2].S != "newest" {
		t.Fatalf("replicated list = %+v, %v; want the new post first of K+reserve=5", l, err)
	}
	s.replicas = stores
	s.requireFresh(t)
}

// TestWriteSetEditLostOnOneReplicaDropsTheKey: at R = 2 a replica that misses
// an edit would keep the list the other replica moved past, and later edits
// would apply on top of it. The ring reports such an edit failed, and the
// flush drops the key on both replicas in its next round, so the oracle finds
// both stores fresh, before and after a read repopulates them.
func TestWriteSetEditLostOnOneReplicaDropsTheKey(t *testing.T) {
	stores := []*kvcache.Store{kvcache.New(0), kvcache.New(0)}
	nodes := []*countingCache{{Store: stores[0]}, {Store: stores[1]}}
	ring, err := cluster.NewRing([]kvcache.Cache{nodes[0], nodes[1]}, cluster.WithReplicas(2))
	if err != nil {
		t.Fatal(err)
	}
	s := newStackOver(t, func(*kvcache.Store) kvcache.Cache { return ring })
	s.replicas = stores
	co := s.cacheable(t, topkSpec(3, 2))
	base := time.Unix(1e6, 0)
	for i := 0; i < 4; i++ {
		postAt(s, t, 7, fmt.Sprintf("p%d", i), base.Add(time.Duration(i)*time.Minute))
	}
	checkAgainstDB(t, s, co, sqldb.I64(7))
	key := co.MakeKey(sqldb.I64(7))
	nodes[0].reset()
	nodes[1].reset()
	nodes[1].loseBatch = func(n int) bool { return n == 1 }
	before := s.g.Stats()
	postAt(s, t, 7, "newest", base.Add(time.Hour))
	nodes[1].loseBatch = nil
	for i, n := range nodes {
		if got := fmt.Sprint(n.batches); got != "[[edit] [delete]]" {
			t.Errorf("node %d received batches %s, want [[edit] [delete]]", i, got)
		}
		if _, ok := stores[i].GetQuiet(key); ok {
			t.Errorf("replica %d still holds the list after an edit one replica lost", i)
		}
	}
	after := s.g.Stats()
	if skips, dels := after.TriggerSkips-before.TriggerSkips, after.TriggerDeletes-before.TriggerDeletes; skips != 1 || dels != 1 {
		t.Errorf("counted %d skips and %d deletes, want 1 and 1", skips, dels)
	}
	s.requireFresh(t)
	postAt(s, t, 7, "newer still", base.Add(2*time.Hour)) // edits nothing: the key is gone
	checkAgainstDB(t, s, co, sqldb.I64(7))
	postAt(s, t, 7, "newest of all", base.Add(3*time.Hour))
	s.requireFresh(t)
}

// TestCacheRestartColdStart simulates the cache server restarting (flush):
// the system must degrade to database reads and repopulate, never serving
// wrong data.
func TestCacheRestartColdStart(t *testing.T) {
	s := newStack(t)
	s.cacheable(t, profileSpec(UpdateInPlace))
	for i := 1; i <= 10; i++ {
		_, _ = s.reg.Insert("Profile", orm.Fields{"user_id": i, "bio": fmt.Sprintf("b%d", i)})
		_, _ = s.reg.Objects("Profile").Filter("user_id", i).Get()
	}
	s.cache.FlushAll() // cache restart

	for i := 1; i <= 10; i++ {
		o, err := s.reg.Objects("Profile").Filter("user_id", i).Get()
		if err != nil || o.Str("bio") != fmt.Sprintf("b%d", i) {
			t.Fatalf("user %d after restart: %v %v", i, o, err)
		}
	}
	// And writes after the restart keep everything consistent again.
	_, _ = s.reg.Objects("Profile").Filter("user_id", 5).Update(orm.Fields{"bio": "post-restart"})
	o, _ := s.reg.Objects("Profile").Filter("user_id", 5).Get()
	if o.Str("bio") != "post-restart" {
		t.Fatalf("bio = %q", o.Str("bio"))
	}
}

// TestConcurrentWritersCasStorm hammers one top-K key from many goroutines;
// each statement's edit lands on the list the store holds when it arrives,
// which must keep the list exactly consistent with the DB.
func TestConcurrentWritersCasStorm(t *testing.T) {
	s := newStack(t)
	co := s.cacheable(t, topkSpec(10, 3))
	base := time.Unix(9e5, 0)
	// Warm the key.
	postAt(s, t, 7, "seed", base)
	if _, err := wallQS(s, 7, 10).All(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 30; i++ {
				_, err := s.reg.Insert("Wall", orm.Fields{
					"user_id": 7, "content": fmt.Sprintf("g%d-%d", g, i),
					"date_posted": base.Add(time.Duration(rng.Intn(1e6)) * time.Millisecond),
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	checkAgainstDB(t, s, co, sqldb.I64(7))
}

// TestTriggerSourceListingsAreComplete sanity-checks the generated trigger
// programs: every trigger has a listing mentioning its table, op and the
// cache operations it performs.
func TestTriggerSourceListingsAreComplete(t *testing.T) {
	s := newStack(t)
	objects := []*CachedObject{
		s.cacheable(t, profileSpec(UpdateInPlace)),
		s.cacheable(t, Spec{
			Name: "wall_count", Class: CountQuery, MainModel: "Wall",
			WhereFields: []string{"user_id"},
		}),
		s.cacheable(t, topkSpec(5, 2)),
		s.cacheable(t, linkSpec()),
	}
	for _, co := range objects {
		for _, tr := range co.Triggers() {
			src := tr.Source
			if len(src) == 0 {
				t.Fatalf("%s: empty source", tr.Name)
			}
			for _, want := range []string{tr.Table, "cache", co.Spec().Name} {
				if !strings.Contains(src, want) {
					t.Errorf("%s: source does not mention %q", tr.Name, want)
				}
			}
		}
	}
}
