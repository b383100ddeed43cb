package orm

import (
	"fmt"

	"cachegenie/internal/sqldb"
)

// Wave is a set of queries whose lookups do not depend on each other's
// results — everything a page can ask knowing only the signed-in user, say,
// or every detail lookup keyed by the rows of a list it already holds. A
// handler declares them with All, Get, OneOrNone and Count, then calls Run once
// and reads the results; see the package comment for what the interceptor sees.
//
// A Wave keeps its own copy of each QuerySet declared in it, so the handler's
// QuerySets never leave its stack; changing one after declaring it changes
// nothing in the wave. A Wave is single-use and not safe for concurrent use.
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

	// head and tail link the declared items in order; free is what is left
	// of the chunk the next item goes into. Items never move: descriptors
	// and result cells point into them.
	head, tail *waveItem
	free       []waveItem
	// Most waves fit these; a longer one takes its further items in chunks of
	// waveChunk.
	descBuf [8]*QueryDescriptor
	chunk   [4]waveItem
}

// waveChunk is how many items a wave allocates at a time: a page's waves hold
// two to ten queries, and an item is a whole QuerySet, so bigger chunks would
// mostly carry empty slots.
const waveChunk = 3

// waveItem is one declared query — the wave's copy of its QuerySet, whose
// d is the descriptor it is offered as — and the cells its result lands in.
type waveItem struct {
	q    QuerySet // q.d.Wave is nil when the interceptor is not consulted
	next *waveItem
	one  bool // Get, OneOrNone: at most one row
	none bool // OneOrNone: no row is not an error
	// rows holds an All's rows between Run's two passes.
	rows []sqldb.Row
	objs []Object
	obj  Object
	n    int64
}

// Wave starts an empty wave on the registry.
func (r *Registry) Wave() *Wave {
	w := &Wave{}
	w.free, w.Descriptors = w.chunk[:], w.descBuf[:0]
	return w
}

func (w *Wave) add(q *QuerySet, kind QueryKind) *waveItem {
	if len(w.free) == 0 {
		w.free = make([]waveItem, waveChunk)
	}
	it := &w.free[0]
	w.free = w.free[1:]
	it.q = *q
	d := &it.q.d
	d.Kind, d.Filters, d.Order = kind, it.q.filters(), it.q.order()
	if it.q.offered(kind) {
		d.Wave, d.WaveIndex = w, len(w.Descriptors)
		w.Descriptors = append(w.Descriptors, d)
	}
	if w.tail == nil {
		w.head = it
	} else {
		w.tail.next = it
	}
	w.tail = it
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
// database if unanswered — and stops at the first error. The Objects of the
// wave's All queries are then views into one array sized to the rows that
// came back; each query's slice is capped to its own.
func (w *Wave) Run() error {
	var err error
	var stop *waveItem
	objects := 0
	for i, it := 0, w.head; it != nil; i, it = i+1, it.next {
		if err = it.run(); err != nil {
			if it.q.d.Model == nil { // the error already names the unknown model
				err = fmt.Errorf("orm: wave query %d: %w", i, err)
			} else {
				err = fmt.Errorf("orm: wave query %d on %s: %w", i, it.q.d.Model.Name, err)
			}
			stop = it
			break
		}
		objects += len(it.rows)
	}
	arena := make([]Object, objects)
	for it := w.head; it != stop; it = it.next {
		if !it.one && it.q.d.Kind == KindRows {
			n := len(it.rows)
			it.objs = it.q.objects(arena[:n:n], it.rows)
			arena, it.rows = arena[n:], nil
		}
	}
	return err
}

func (it *waveItem) run() (err error) {
	var d *QueryDescriptor
	if it.q.d.Wave != nil {
		d = &it.q.d
	}
	if it.q.d.Kind == KindCount {
		it.n, err = it.q.count(d)
		return err
	}
	rows, err := it.q.rows(d)
	if err != nil || !it.one {
		it.rows = rows
		return err
	}
	if it.obj, err = it.q.one(rows); it.none && err == ErrNotFound {
		err = nil
	}
	return err
}
