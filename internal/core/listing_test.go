package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"cachegenie/internal/orm"
	"cachegenie/internal/sqldb"
)

var updateGoldens = flag.Bool("update", false, "rewrite the trigger goldens under testdata/triggers")

// listingSpecs is one cached object per class on the test stack, under
// strategy.
func listingSpecs(strategy Strategy) []Spec {
	specs := []Spec{
		profileSpec(strategy),
		{Name: "wall_count", Class: CountQuery, MainModel: "Wall", WhereFields: []string{"user_id"}},
		topkSpec(5, 2),
		linkSpec(),
	}
	for i := range specs {
		specs[i].Strategy = strategy
	}
	return specs
}

// TestTriggerGoldens pins every generated trigger of one cached object per
// class and strategy: its name, table, op, the tables it declares it reads,
// and its listing. Run with -update to rewrite testdata/triggers; the diff of
// the goldens is then the complete list of listing changes.
func TestTriggerGoldens(t *testing.T) {
	for _, strategy := range []Strategy{UpdateInPlace, Invalidate} {
		for _, spec := range listingSpecs(strategy) {
			co := newStack(t).cacheable(t, spec)
			var b strings.Builder
			for _, tr := range co.Triggers() {
				fmt.Fprintf(&b, "==== %s\ntable: %s\nop: %s\nreads: %v\n\n%s\n", tr.Name, tr.Table, tr.Op, tr.ReadsTables, tr.Source)
			}
			path := filepath.Join("testdata", "triggers", spec.Name+"-"+strategy.String()+".golden")
			if *updateGoldens {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if b.String() != string(want) {
				t.Errorf("%s: the generated triggers differ from the golden; run with -update and read the diff", path)
			}
		}
	}
}

// TestListingsNameOnlyTheirTablesColumns: every column a listing reads off a
// row of the trigger's table names a column that table has.
func TestListingsNameOnlyTheirTablesColumns(t *testing.T) {
	rowCol := regexp.MustCompile(`\b(?:old_row|new_row|row)\['(\w+)'\]`)
	for _, strategy := range []Strategy{UpdateInPlace, Invalidate} {
		s := newStack(t)
		for _, spec := range listingSpecs(strategy) {
			for _, tr := range s.cacheable(t, spec).Triggers() {
				schema, err := s.db.Schema(tr.Table)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range rowCol.FindAllStringSubmatch(tr.Source, -1) {
					if schema.ColIndex(m[1]) < 0 {
						t.Errorf("%s (%s): %s names a column %s does not have", tr.Name, strategy, m[0], tr.Table)
					}
				}
			}
		}
	}
}

// TestCountInvalidateUpdateDeletesOnlyAMovedKey: an UPDATE that keeps a row's
// key changes no count, so under Invalidate it deletes nothing. The listing
// says so, and the engine does so.
func TestCountInvalidateUpdateDeletesOnlyAMovedKey(t *testing.T) {
	s := newStack(t)
	co := s.cacheable(t, Spec{Name: "wall_count", Class: CountQuery, MainModel: "Wall",
		WhereFields: []string{"user_id"}, Strategy: Invalidate})
	for _, tr := range co.Triggers() {
		if tr.Op != sqldb.TrigUpdate {
			continue
		}
		guard := strings.Index(tr.Source, "\nif old_row['user_id'] != new_row['user_id']:\n")
		if guard < 0 || strings.Contains(tr.Source, "\nelse:") {
			t.Fatalf("%s does not delete under a test for a moved key:\n%s", tr.Name, tr.Source)
		}
		for _, line := range strings.Split(tr.Source, "\n") {
			if strings.Contains(line, "ws.delete(") && !strings.HasPrefix(line, "    ") {
				t.Errorf("%s deletes whether or not the key moved: %q", tr.Name, line)
			}
		}
	}

	post, err := s.reg.Insert("Wall", orm.Fields{"user_id": 1, "content": "a"})
	if err != nil {
		t.Fatal(err)
	}
	one := sqldb.I64(1)
	cached := func() bool { _, ok := s.cache.Get(co.MakeKey(one)); return ok }
	if n, err := co.Count(one); err != nil || n != 1 || !cached() {
		t.Fatalf("count = %d (%v), cached %v; want 1, cached", n, err, cached())
	}
	if _, err := s.reg.Objects("Wall").Filter("id", post.ID()).Update(orm.Fields{"content": "b"}); err != nil {
		t.Fatal(err)
	}
	if !cached() {
		t.Fatal("an update that kept the key deleted the count")
	}
	if _, err := s.reg.Objects("Wall").Filter("id", post.ID()).Update(orm.Fields{"user_id": 2}); err != nil {
		t.Fatal(err)
	}
	if cached() {
		t.Fatal("an update that moved the row kept its old key's count")
	}
}
