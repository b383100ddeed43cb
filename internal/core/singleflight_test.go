package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cachegenie/internal/kvcache"
	"cachegenie/internal/orm"
	"cachegenie/internal/sqldb"
)

// TestFlightGroupCoalesces: while a load is in flight, every do() of the
// same key parks and shares the leader's result — exactly one load runs.
func TestFlightGroupCoalesces(t *testing.T) {
	fg := newFlightGroup()
	var loads atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_, _, _ = fg.do("k", func() (any, error) {
			close(started)
			<-release
			loads.Add(1)
			return "value", nil
		})
	}()
	<-started

	const waiters = 16
	var wg sync.WaitGroup
	results := make([]string, waiters)
	shareds := make([]bool, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, shared, err := fg.do("k", func() (any, error) {
				loads.Add(1)
				return "value", nil
			})
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			results[i] = v.(string)
			shareds[i] = shared
		}(i)
	}
	// Give the waiters time to park on the in-flight call, then let the
	// leader finish.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	if n := loads.Load(); n != 1 {
		t.Fatalf("%d loads ran, want exactly 1", n)
	}
	for i := range results {
		if results[i] != "value" || !shareds[i] {
			t.Fatalf("waiter %d: result %q shared=%v", i, results[i], shareds[i])
		}
	}
}

// TestFlightGroupSharesError: a failed load fails every parked waiter with
// the leader's error — nobody hangs, nobody re-runs the load inside the
// same flight.
func TestFlightGroupSharesError(t *testing.T) {
	fg := newFlightGroup()
	boom := errors.New("db down")
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_, _, _ = fg.do("k", func() (any, error) {
			close(started)
			<-release
			return nil, boom
		})
	}()
	<-started
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = fg.do("k", func() (any, error) {
				t.Error("waiter ran its own load inside the leader's flight")
				return nil, nil
			})
		}(i)
	}
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != boom {
			t.Fatalf("waiter %d: err = %v, want the leader's error", i, err)
		}
	}
}

// TestFlightGroupForgetsFinishedCalls: the flight is per miss, not forever —
// a later do() of the same key runs a fresh load.
func TestFlightGroupForgetsFinishedCalls(t *testing.T) {
	fg := newFlightGroup()
	var loads int
	for i := 0; i < 3; i++ {
		v, shared, err := fg.do("k", func() (any, error) {
			loads++
			return loads, nil
		})
		if err != nil || shared || v.(int) != i+1 {
			t.Fatalf("call %d: v=%v shared=%v err=%v", i, v, shared, err)
		}
	}
}

// stampedeStack builds a stack whose statements each take 20ms and with
// single-flight enabled, so concurrent misses genuinely overlap in time.
func stampedeStack(t *testing.T) (*sqldb.DB, *orm.Registry, *Genie) {
	t.Helper()
	slow := func(c sqldb.Cost) {
		if c == sqldb.CostStatement {
			time.Sleep(20 * time.Millisecond)
		}
	}
	db := sqldb.MustOpen(sqldb.Config{Cost: slow})
	reg := orm.NewRegistry(db)
	reg.MustRegister(&orm.ModelDef{
		Name:  "Wall",
		Table: "wall",
		Fields: []orm.FieldDef{
			{Name: "user_id", Type: sqldb.TypeInt, NotNull: true},
			{Name: "content", Type: sqldb.TypeText},
		},
		Indexes: [][]string{{"user_id"}},
	})
	if err := reg.CreateTables(); err != nil {
		t.Fatal(err)
	}
	g, err := New(Config{Registry: reg, DB: db, Cache: kvcache.New(0), SingleFlight: true})
	if err != nil {
		t.Fatal(err)
	}
	return db, reg, g
}

// TestSingleFlightStampede: a flash crowd stampeding one evicted page costs
// the database one SELECT, not one per request. This is the -race drill for
// the coalesced miss path too.
func TestSingleFlightStampede(t *testing.T) {
	const crowd = 32
	db, reg, g := stampedeStack(t)
	co, err := g.Cacheable(Spec{
		Name: "wall_page", Class: FeatureQuery, MainModel: "Wall",
		WhereFields: []string{"user_id"}, Strategy: UpdateInPlace,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Insert("Wall", orm.Fields{"user_id": 7, "content": "celebrity post"}); err != nil {
		t.Fatal(err)
	}
	// The insert's trigger may have populated the key; knock it out so the
	// crowd hits a cold key.
	g.Cache().Delete(co.MakeKey(sqldb.I64(7)))
	selBefore := db.Stats().Selects

	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < crowd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			rows, err := co.Rows(sqldb.I64(7))
			if err != nil {
				t.Errorf("reader %d: %v", i, err)
				return
			}
			if len(rows) != 1 || rows[0][2].S != "celebrity post" {
				t.Errorf("reader %d: rows = %v", i, rows)
			}
		}(i)
	}
	close(start)
	wg.Wait()

	if got := db.Stats().Selects - selBefore; got != 1 {
		t.Fatalf("stampede of %d cost %d SELECTs, want 1", crowd, got)
	}
	st := g.Stats()
	if st.FlightLeads != 1 || st.FlightShared != crowd-1 {
		t.Fatalf("FlightLeads = %d, FlightShared = %d, want 1 and %d", st.FlightLeads, st.FlightShared, crowd-1)
	}
	if st.Misses != crowd {
		t.Fatalf("Misses = %d, want %d (every request missed, one loaded)", st.Misses, crowd)
	}
}
