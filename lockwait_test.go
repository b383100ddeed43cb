package cachegenie

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cachegenie/internal/core"
	"cachegenie/internal/kvcache"
	"cachegenie/internal/obs"
	"cachegenie/internal/orm"
	"cachegenie/internal/social"
	"cachegenie/internal/sqldb"
)

// TestWriteDurableLockWaits runs a load shaped like geniebench's
// write_durable — two closed-loop clients, half the pages writes (CreateBM
// and AcceptFR 1:1, the rest LookupBM and LookupFBM 5:3), skewed users,
// update-in-place triggers, a durable database with fsync on — over one
// in-process cache store, and logs the engine's table-lock waits. Early lock
// release frees a committing writer's locks before its fsync, which is where
// those waits went. Every page must succeed, and RegisterMetrics must export
// the counts Stats reports. Run with -v to read the counts.
func TestWriteDurableLockWaits(t *testing.T) {
	const clients, pages = 2, 300
	db, err := sqldb.Open(sqldb.Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	reg := orm.NewRegistry(db)
	if err := social.RegisterModels(reg); err != nil {
		t.Fatal(err)
	}
	if err := reg.CreateTables(); err != nil {
		t.Fatal(err)
	}
	genie, err := core.New(core.Config{Registry: reg, DB: db, Cache: kvcache.New(0)})
	if err != nil {
		t.Fatal(err)
	}
	defer genie.Close()
	app, err := social.NewApp(reg, genie, core.UpdateInPlace)
	if err != nil {
		t.Fatal(err)
	}
	var tick atomic.Int64
	base := time.Date(2012, 1, 1, 0, 0, 0, 0, time.UTC)
	app.SetClock(func() time.Time { return base.Add(time.Duration(tick.Add(1)) * time.Millisecond) })
	const users = 200
	db.SetTriggersEnabled(false) // the cache is empty while seeding
	err = app.Seed(social.SeedConfig{
		Users: users, UniqueBookmarks: 100, MaxBookmarksPer: 8,
		MaxFriendsPer: 10, MaxInvitesPer: 6, MaxWallPosts: 12,
	}, rand.New(rand.NewSource(1)))
	db.SetTriggersEnabled(true)
	if err != nil {
		t.Fatal(err)
	}
	before := db.Stats()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c) + 7))
			for i := 0; i < pages; i++ {
				uid := int64(rng.Intn(rng.Intn(users)+1) + 1) // skewed toward low ids
				typ := social.PageLookupFBM
				switch u := rng.Float64(); {
				case u < 0.25:
					typ = social.PageCreateBM
				case u < 0.5:
					typ = social.PageAcceptFR
				case u < 0.5+0.5*5/8:
					typ = social.PageLookupBM
				}
				if err := app.RunPage(typ, uid, int64(1<<20+i*clients+c)); err != nil {
					t.Errorf("client %d page %d (%s uid %d): %v", c, i, typ, uid, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	after := db.Stats()
	waits, nanos := after.LockWaits-before.LockWaits, after.LockWaitNanos-before.LockWaitNanos
	t.Logf("%d pages: %d lock waits, %.1f ms waited (%.1f us per wait)", clients*pages, waits, float64(nanos)/1e6,
		float64(nanos)/1e3/max(float64(waits), 1))
	if waits < 0 || nanos < 0 || (waits == 0) != (nanos == 0) {
		t.Fatalf("lock waits %d took %d ns: counts disagree", waits, nanos)
	}

	m := obs.NewRegistry()
	db.RegisterMetrics(m)
	snap := m.Snapshot()
	if got := snap.Counters["cachegenie_db_lock_waits_total"]; got != after.LockWaits {
		t.Fatalf("cachegenie_db_lock_waits_total = %d, Stats().LockWaits = %d", got, after.LockWaits)
	}
	if got := snap.Counters["cachegenie_db_lock_wait_seconds_total"]; got != after.LockWaitNanos {
		t.Fatalf("cachegenie_db_lock_wait_seconds_total holds %d ns, Stats().LockWaitNanos = %d", got, after.LockWaitNanos)
	}
}
