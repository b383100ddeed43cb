package orm

import "fmt"

// Wave is a set of queries whose lookups do not depend on each other's
// results — everything a page can ask knowing only the signed-in user, say,
// or every detail lookup keyed by the rows of a list it already holds. A
// handler declares them with All, Get, OneOrNone and Count, then calls Run once
// and reads the results; see the package comment for what the interceptor sees.
//
// A Wave is single-use and not safe for concurrent use.
type Wave struct {
	// Descriptors lists, in declaration order, the queries of the wave the
	// interceptor will be offered (a NoCache or Offset query runs with the
	// wave but is not among them). It is complete before the first one is
	// offered and must not be modified.
	Descriptors []*QueryDescriptor
	// State belongs to the interceptor. It is nil when the wave's first
	// descriptor arrives; whatever the interceptor parks here while answering
	// one descriptor it finds again on the wave's later ones.
	State any

	items []*waveItem
	// Most waves fit these; a longer one grows onto the heap.
	itemBuf [8]*waveItem
	descBuf [8]*QueryDescriptor
}

// waveItem is one declared query, the descriptor it is offered as, and the
// cells its result lands in — one allocation per query, as a sequential query
// pays for its descriptor alone.
type waveItem struct {
	q    *QuerySet
	one  bool            // Get, OneOrNone: at most one row
	none bool            // OneOrNone: no row is not an error
	d    QueryDescriptor // d.Wave is nil when the interceptor is not consulted
	objs []Object
	obj  Object
	n    int64
}

// Wave starts an empty wave on the registry.
func (r *Registry) Wave() *Wave {
	w := &Wave{}
	w.items, w.Descriptors = w.itemBuf[:0], w.descBuf[:0]
	return w
}

func (w *Wave) add(q *QuerySet, kind QueryKind) *waveItem {
	it := &waveItem{q: q, d: q.descriptorValue(kind)}
	if q.offered(kind) {
		it.d.Wave, it.d.WaveIndex = w, len(w.Descriptors)
		w.Descriptors = append(w.Descriptors, &it.d)
	}
	w.items = append(w.items, it)
	return it
}

// All declares q.All(); the objects are behind the returned pointer once Run
// has returned nil.
func (w *Wave) All(q *QuerySet) *[]Object { return &w.add(q, KindRows).objs }

// Get declares q.Get(): Run fails with ErrNotFound or ErrMultiple unless
// exactly one row matches.
func (w *Wave) Get(q *QuerySet) *Object {
	it := w.add(q, KindRows)
	it.one = true
	return &it.obj
}

// OneOrNone declares q.Get() for a row that may not exist: the object is the
// zero Object (IsZero) when nothing matches, and Run still fails with
// ErrMultiple on more than one.
func (w *Wave) OneOrNone(q *QuerySet) *Object {
	it := w.add(q, KindRows)
	it.one, it.none = true, true
	return &it.obj
}

// Count declares q.Count().
func (w *Wave) Count(q *QuerySet) *int64 { return &w.add(q, KindCount).n }

// Run executes the declared queries in declaration order, each exactly as its
// QuerySet method would — offered to the interceptor first, sent to the
// database if unanswered — and stops at the first error.
func (w *Wave) Run() error {
	for i, it := range w.items {
		if err := it.run(); err != nil {
			if it.q.model == nil { // the error already names the unknown model
				return fmt.Errorf("orm: wave query %d: %w", i, err)
			}
			return fmt.Errorf("orm: wave query %d on %s: %w", i, it.q.model.Name, err)
		}
	}
	return nil
}

func (it *waveItem) run() (err error) {
	var d *QueryDescriptor
	if it.d.Wave != nil {
		d = &it.d
	}
	if it.d.Kind == KindCount {
		it.n, err = it.q.count(d)
		return err
	}
	if it.objs, err = it.q.all(d); err == nil && it.one {
		if it.obj, err = one(it.objs); it.none && err == ErrNotFound {
			err = nil
		}
	}
	return err
}
