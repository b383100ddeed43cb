package orm

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cachegenie/internal/sqldb"
)

// waveSpy is an interceptor that writes down, for each descriptor it is
// offered, what it could see of the wave at that moment, and answers Profile
// queries like fakeInterceptor.
type waveSpy struct {
	fakeInterceptor
	seen []string
}

func (s *waveSpy) note(d *QueryDescriptor) {
	w := d.Wave
	if w == nil {
		s.seen = append(s.seen, d.Model.Name+" alone")
		return
	}
	if w.State == nil {
		w.State = new(int)
	}
	*w.State.(*int)++
	s.seen = append(s.seen, fmt.Sprintf("%s %d/%d listed=%v state=%d",
		d.Model.Name, d.WaveIndex, len(w.Descriptors), w.Descriptors[d.WaveIndex] == d, *w.State.(*int)))
}

func (s *waveSpy) InterceptRows(d *QueryDescriptor) ([]sqldb.Row, bool, error) {
	s.note(d)
	return s.fakeInterceptor.InterceptRows(d)
}

func (s *waveSpy) InterceptCount(d *QueryDescriptor) (int64, bool, error) {
	s.note(d)
	return s.fakeInterceptor.InterceptCount(d)
}

// A wave offers its queries to the interceptor one by one, in declaration
// order, through the same two methods a sequential query uses; each
// descriptor carries the wave, whose sibling list is complete before the
// first offer and whose State slot persists across them. Queries the
// interceptor is never consulted for run with the wave but are not listed.
func TestWaveOffersDescriptorsOneByOne(t *testing.T) {
	reg := newTestRegistry(t)
	for _, name := range []string{"ann", "bob"} {
		if _, err := reg.Insert("User", Fields{"username": name, "active": true}); err != nil {
			t.Fatal(err)
		}
	}
	spy := &waveSpy{fakeInterceptor: fakeInterceptor{
		rows:  []sqldb.Row{{sqldb.I64(1), sqldb.I64(42), sqldb.Str("cached"), sqldb.NullOf(sqldb.TypeTime)}},
		count: 77,
	}}
	reg.SetInterceptor(spy)

	w := reg.Wave()
	profile := w.Get(reg.Objects("Profile").Filter("user_id", 42))
	users := w.All(reg.Objects("User").OrderBy("username"))
	fresh := w.All(reg.Objects("User").Filter("username", "bob").NoCache())
	paged := w.All(reg.Objects("User").OrderBy("username").Offset(1))
	profiles := w.Count(reg.Objects("Profile"))
	active := w.Count(reg.Objects("User").Filter("active", true))
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if profile.Str("bio") != "cached" || *profiles != 77 {
		t.Errorf("intercepted results: %v, %d", *profile, *profiles)
	}
	if len(*users) != 2 || (*users)[0].Str("username") != "ann" || *active != 2 {
		t.Errorf("fall-through results: %v, %d", *users, *active)
	}
	if len(*fresh) != 1 || len(*paged) != 1 || (*paged)[0].Str("username") != "bob" {
		t.Errorf("queries outside the interceptor: %v, %v", *fresh, *paged)
	}
	want := []string{
		"Profile 0/4 listed=true state=1",
		"User 1/4 listed=true state=2",
		"Profile 2/4 listed=true state=3",
		"User 3/4 listed=true state=4",
	}
	if !reflect.DeepEqual(spy.seen, want) {
		t.Errorf("the interceptor saw\n  %s\nwant\n  %s", strings.Join(spy.seen, "\n  "), strings.Join(want, "\n  "))
	}

	// The sequential API is untouched: no wave on its descriptors.
	spy.seen = nil
	if _, err := reg.Objects("User").All(); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Objects("Profile").Count(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"User alone", "Profile alone"}; !reflect.DeepEqual(spy.seen, want) {
		t.Errorf("sequential queries were offered as %v", spy.seen)
	}
}

// Run stops at the first failing query, as the same calls in sequence would,
// and says which one it was.
func TestWaveStopsAtFirstError(t *testing.T) {
	reg := newTestRegistry(t)
	spy := &waveSpy{}
	reg.SetInterceptor(spy)
	w := reg.Wave()
	w.All(reg.Objects("Group"))
	w.Get(reg.Objects("User").Filter("username", "nobody"))
	after := w.Count(reg.Objects("Group"))
	err := w.Run()
	if !errors.Is(err, ErrNotFound) || !strings.Contains(err.Error(), "query 1 on User") {
		t.Fatalf("Run = %v, want ErrNotFound naming query 1 on User", err)
	}
	if len(spy.seen) != 2 || *after != 0 {
		t.Errorf("%d queries ran, want the wave to stop after the second", len(spy.seen))
	}

	for i := 0; i < 2; i++ {
		if _, err := reg.Insert("Group", Fields{"name": "g"}); err != nil {
			t.Fatal(err)
		}
	}
	w = reg.Wave()
	w.Get(reg.Objects("Group").Filter("name", "g"))
	if err := w.Run(); !errors.Is(err, ErrMultiple) {
		t.Errorf("Get of two rows: %v, want ErrMultiple", err)
	}
	// OneOrNone forgives the missing row, not the extra one.
	w = reg.Wave()
	nobody := w.OneOrNone(reg.Objects("User").Filter("username", "nobody"))
	w.OneOrNone(reg.Objects("Group").Filter("name", "g"))
	if err := w.Run(); !nobody.IsZero() || !errors.Is(err, ErrMultiple) || !strings.Contains(err.Error(), "query 1 on Group") {
		t.Errorf("OneOrNone: object %v, err %v; want the zero Object and ErrMultiple on query 1", *nobody, err)
	}
	w = reg.Wave()
	w.All(reg.Objects("NoSuchModel"))
	if err := w.Run(); err == nil || !strings.Contains(err.Error(), "unknown model") {
		t.Errorf("wave over an unknown model: %v", err)
	}
}

// Without an interceptor a wave is its queries run in order.
func TestWaveWithoutInterceptor(t *testing.T) {
	reg := newTestRegistry(t)
	if _, err := reg.Insert("User", Fields{"username": "ann"}); err != nil {
		t.Fatal(err)
	}
	w := reg.Wave()
	u := w.Get(reg.Objects("User").Filter("username", "ann"))
	n := w.Count(reg.Objects("User"))
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if u.Str("username") != "ann" || *n != 1 || len(w.Descriptors) != 0 {
		t.Errorf("got %v, %d, %d descriptors listed", *u, *n, len(w.Descriptors))
	}
}
