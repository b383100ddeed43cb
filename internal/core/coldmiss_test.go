package core

import (
	"sync"
	"testing"
	"time"

	"cachegenie/internal/kvcache"
	"cachegenie/internal/orm"
	"cachegenie/internal/rowlist"
	"cachegenie/internal/sqldb"
)

// TestColdMissStampede: a crowd of concurrent readers of one cold key all
// get the database's rows, each miss running its own load, and the cache ends
// up holding the database's value. Statements take 20ms so the misses overlap;
// this is the -race drill for the miss path.
func TestColdMissStampede(t *testing.T) {
	const crowd = 32
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
	g, err := New(Config{Registry: reg, DB: db, Cache: kvcache.New(0)})
	if err != nil {
		t.Fatal(err)
	}
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
	key := co.MakeKey(sqldb.I64(7))
	g.Cache().Delete(key)

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

	if st := g.Stats(); st.Misses == 0 || st.Hits+st.Misses != crowd {
		t.Fatalf("Hits = %d, Misses = %d, want %d reads with at least one miss", st.Hits, st.Misses, crowd)
	}
	raw, ok := g.Cache().Get(key)
	if !ok {
		t.Fatal("no reader repopulated the cold key")
	}
	p, err := rowlist.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rows) != 1 || p.Rows[0][2].S != "celebrity post" {
		t.Fatalf("cached rows = %v, want the database's row", p.Rows)
	}
}
