package core

import (
	"fmt"
	"sort"
	"strconv"

	"cachegenie/internal/kvcache"
	"cachegenie/internal/sqldb"
)

// opKind is what an op does to its key's cached entry (opNotes). The row-list
// edits are idempotent by primary key, except opAppend. Triggers record every
// kind but opPopulate, which a read miss publishes to the invalidation bus.
type opKind uint8

const (
	opInsert opKind = iota
	opRemove
	opReplace
	opAppend
	opUnlink
	opIncr
	opDelete
	opPopulate
)

var opNames = [...]string{"insert", "remove", "replace", "append", "unlink", "incr", "delete", "populate"}

// opNotes say what each kind does to the entry of its key; a trigger's listing
// quotes the note of every kind it records.
var opNotes = [...]string{
	opInsert:   "adds new unless a row with its id is cached: at its sort position in a top-K list, at the end of any other",
	opRemove:   "drops every cached row with old's id; a top-K list it leaves short of K rows has used up its reserve and is rebuilt from the database",
	opReplace:  "puts new in place of every cached row with its id: in a top-K list a new sort value removes old and inserts new, as remove and insert do; appended to a feature list that lacks it",
	opAppend:   "appends rows, the target rows joined: a link list holds a target row once per relation row that joins it to the source",
	opUnlink:   "drops one copy of each cached row whose link target field equals the join field of old, a relation row: every row it joined",
	opIncr:     "adds delta to a count; the flush sums a key's deltas",
	opDelete:   "invalidates the key: the next read misses and reloads it",
	opPopulate: "stores what a read miss loaded unless the key is cached",
}

// String implements fmt.Stringer.
func (k opKind) String() string { return opNames[k] }

// batchKind is how a key whose ops are all of kind k reaches the cache in a
// flush's first batch: a list edit reads the list (gets), the others need no
// read.
func (k opKind) batchKind() kvcache.BatchOpKind {
	switch k {
	case opIncr:
		return kvcache.BatchIncr
	case opDelete:
		return kvcache.BatchDelete
	case opPopulate:
		return kvcache.BatchAdd
	}
	return kvcache.BatchGets
}

// op is one cache effect a trigger recorded, as data: what to do to the
// entry of which cached object under which lookup values, with the rows it
// needs. Ops are composed per key without running anything; an object's
// class and strategy fix the kinds its triggers record, so in a statement the
// ops of one key are all list edits, all incrs or all deletes. A bus window
// may add a read miss's populate, or the drop of an entry it found corrupt.
type op struct {
	co   *CachedObject
	kind opKind
	// vals are the key's lookup values, mostly a window of a row; key is set
	// from them when the statement's keys are rendered (renderKeys).
	vals []sqldb.Value
	key  string
	// old and new are the row before and after the change, as the trigger
	// event carries them; rows are opAppend's; delta is opIncr's; enc is
	// the entry an opPopulate stores.
	old, new sqldb.Row
	rows     []sqldb.Row
	delta    int64
	enc      []byte
	// next chains the ops of one key in record order (groupByKey).
	next int32
}

// String renders o for a trace or a listing: "insert cg:wall:7 pk=12".
func (o *op) String() string {
	s := o.kind.String() + " " + o.co.MakeKey(o.vals...)
	switch o.kind {
	case opInsert, opReplace:
		s += fmt.Sprintf(" pk=%d", rowPK(o.new))
	case opRemove:
		s += fmt.Sprintf(" pk=%d", rowPK(o.old))
	case opAppend:
		s += fmt.Sprintf(" rows=%d", len(o.rows))
	case opUnlink:
		s += fmt.Sprintf(" %s=%v", o.co.spec.Link.JoinField, o.old[o.co.joinIdx])
	case opIncr:
		s += fmt.Sprintf(" %+d", o.delta)
	}
	return s
}

// apply runs a list edit on p. changed reports whether p changed, short that
// a top-K removal or move used up the reserve.
func (o *op) apply(p *payload) (changed, short bool) {
	co := o.co
	switch o.kind {
	case opInsert:
		if findRowByPK(p.rows, rowPK(o.new)) >= 0 {
			return false, false
		}
		if co.spec.Class == TopKQuery {
			return co.topkInsert(p, o.new), false
		}
		p.rows = append(p.rows, o.new)
		return true, false
	case opRemove:
		for i := len(p.rows) - 1; i >= 0; i-- {
			if rowPK(p.rows[i]) == rowPK(o.old) {
				p.rows = removeRowAt(p.rows, i)
				changed = true
			}
		}
		return changed, changed && co.spec.Class == TopKQuery && len(p.rows) < co.spec.K && !p.exhaustive
	case opReplace:
		return co.replace(p, o.old, o.new)
	case opAppend:
		p.rows = append(p.rows, o.rows...)
		return true, false
	case opUnlink:
		// The relation row joined every target row with its join value, which
		// the list holds once per such relation row: one copy of each goes.
		rows := p.rows
		for i := len(rows) - 1; i >= 0; i-- {
			if sqldb.Equal(rows[i][co.targetIdx], o.old[co.joinIdx]) && findRowByPK(rows, rowPK(rows[i])) == i {
				p.rows = removeRowAt(p.rows, i)
				changed = true
			}
		}
	}
	return changed, false
}

// replace is opReplace on p per the object's class; short is as opRemove's.
func (co *CachedObject) replace(p *payload, old, new sqldb.Row) (changed, short bool) {
	switch co.spec.Class {
	case TopKQuery:
		i := findRowByPK(p.rows, rowPK(new))
		if sqldb.Compare(old[co.sortIdx], new[co.sortIdx]) == 0 {
			// Sort position unchanged: update the row in place (the paper:
			// "UPDATE triggers simply update the corresponding post if it
			// finds it in the cached list").
			if i >= 0 {
				p.rows[i] = new
			}
			return i >= 0, false
		}
		// The row leaves its old position and enters at its new one, which
		// may be inside a window it was not in, or below a window it was.
		if i >= 0 {
			p.rows = removeRowAt(p.rows, i)
		}
		changed = co.topkInsert(p, new) || i >= 0
		return changed, changed && len(p.rows) < co.spec.K && !p.exhaustive
	case LinkQuery:
		// A list holds a target row once per relation row that joins it to
		// the source: every copy is replaced.
		for i, r := range p.rows {
			if rowPK(r) == rowPK(new) {
				p.rows[i] = new
				changed = true
			}
		}
		return changed, false
	}
	// A feature list is exhaustive: a row of its key that it lacks belongs in
	// it.
	if i := findRowByPK(p.rows, rowPK(new)); i >= 0 {
		p.rows[i] = new
	} else {
		p.rows = append(p.rows, new)
	}
	return true, false
}

// topkInsert inserts row into the ordered list, returning whether the
// payload changed. Ties keep insertion order.
func (co *CachedObject) topkInsert(p *payload, row sqldb.Row) bool {
	limit := co.spec.K + co.spec.reserve()
	pos := len(p.rows)
	for i, r := range p.rows {
		c := sqldb.Compare(row[co.sortIdx], r[co.sortIdx])
		if co.spec.SortDesc && c > 0 || !co.spec.SortDesc && c < 0 {
			pos = i
			break
		}
	}
	if pos == len(p.rows) {
		if !p.exhaustive {
			// Row sorts below the cached window, and database rows the window
			// lacks may sort between: the window is unaffected.
			return false
		}
		p.rows = append(p.rows, row)
	} else {
		p.rows = insertRowAt(p.rows, pos, row)
	}
	if len(p.rows) > limit {
		p.rows = p.rows[:limit]
		p.exhaustive = false
	}
	return true
}

// writeSet is one write statement's cache maintenance. Trigger bodies never
// talk to the cache: they record ops here, and the engine ends the statement
// by flushing the set once, after the last row's triggers and with the
// statement's locks still held (sqldb.StatementHook). A statement that fails
// is never flushed, so it leaves the cache untouched. With AsyncInvalidation
// the statement publishes its ops to the invalidation bus instead, whose
// worker runs the same flush over every op published within a window.
type writeSet struct {
	g   *Genie
	ops []op
}

var _ sqldb.StatementHook = (*writeSet)(nil)

// keyGroup is every op one flush holds for one key: ops[first] and the ops
// chained after it, in record order.
type keyGroup struct {
	key         string
	kind        kvcache.BatchOpKind
	first, last int32
	n           int   // ops
	sum         int64 // opIncr: the deltas, summed
	// mixed marks a group whose ops are not all of one kind, or that holds a
	// populate and another op: it reads the key (gets) and replays its ops
	// over what it found (compose).
	mixed bool
	// changed counts the list edits that changed the list the first batch
	// read; counted marks a second-batch op whose outcome is already
	// accounted for; wrote marks a group with an op in the second batch.
	changed        int
	counted, wrote bool
	// byKey is not this group's own: groups[j].byKey, for j below the group
	// count, is the j'th group in key order — the index groupByKey searches
	// instead of a map.
	byKey int32
}

// EndStatement implements sqldb.StatementHook: it flushes the write-set, or
// publishes it to the bus. The cache reports no errors (a lost exchange reads
// as a miss), so neither does the flush.
func (ws *writeSet) EndStatement(q sqldb.Queryer) error {
	if len(ws.ops) == 0 {
		return nil
	}
	renderKeys(ws.ops)
	if ws.g.bus != nil {
		ws.g.bus.Publish(ws.ops)
		return nil
	}
	ws.g.flush(q, ws.ops)
	return nil
}

// flush composes ops per key in record order and reaches the cache in at most
// two batches — per node, concurrently, when the cache is a ring. The first
// carries one op per key: the value and token of every key whose entry the
// flush edits (gets), and the ops that depend on no read: the summed counter
// adjustments (incr), the invalidations (delete) and a lone populate (add).
// The second carries the writes computed from what the first read; a flush
// none of whose reads finds anything to change never sends it. It returns the
// number of keys the ops touched.
//
// q is the statement's connection, through which a top-K list that a removal
// leaves short of its reserve is recomputed. On the bus q is nil: the
// statement's transaction is gone, so such a list is dropped for the next
// read miss to reload. A key whose cas or add loses a race between the
// batches is deleted on either route.
//
// A flush allocates per flush, not per op: the key groups and both batches
// are an array each.
func (g *Genie) flush(q sqldb.Queryer, ops []op) (keys int) {
	groups := groupByKey(ops)
	// Both batches share one array: the first holds an op per key, the second
	// at most as many.
	batch := make([]kvcache.BatchOp, 2*len(groups))
	first, second := batch[:len(groups)], batch[len(groups):len(groups)]
	for i := range groups {
		k := &groups[i]
		first[i] = kvcache.BatchOp{Kind: k.kind, Key: k.key, Delta: k.sum}
		if o := &ops[k.first]; k.kind == kvcache.BatchAdd {
			first[i].Value, first[i].TTL = o.enc, o.co.ttl()
		}
	}
	for i, r := range g.cache.ApplyBatch(first) {
		k := &groups[i]
		switch {
		case k.kind == kvcache.BatchAdd:
			if !r.Found {
				g.populateRefused.Add(1)
			}
		case !r.Found && !k.mixed:
			// Not cached: every one of the key's triggers quits (paper
			// §3.2); the next read miss repopulates the entry.
			g.trigSkips.Add(int64(k.n))
		case k.kind == kvcache.BatchGets:
			if o, ok := k.compose(q, ops, r); ok {
				second = append(second, o)
				k.wrote = true
			}
		case k.kind == kvcache.BatchIncr:
			g.trigUpdates.Add(int64(k.n))
		default:
			// The first of n deletes removes the entry; the rest find
			// nothing.
			g.trigDeletes.Add(1)
			g.trigSkips.Add(int64(k.n - 1))
		}
	}
	g.flushOps.Observe(int64(len(first) + len(second)))
	if len(second) == 0 {
		return len(groups)
	}
	res := g.cache.ApplyBatch(second)
	var lost []kvcache.BatchOp // keys dropped after losing their write
	n := 0
	for i := range groups {
		k := &groups[i]
		if !k.wrote {
			continue
		}
		o, r := second[n], res[n]
		n++
		switch {
		case r.Found:
			if !k.counted {
				g.trigUpdates.Add(int64(k.changed))
			}
		case o.Kind == kvcache.BatchDelete:
		case k.mixed || r.CasResult == kvcache.CasConflict:
			// Someone wrote the key between the two batches, and what the
			// flush composed is no longer known to be current. Deleting it is
			// always safe: the next read miss reloads it.
			if r.CasResult == kvcache.CasConflict {
				g.casRetries.Add(1)
			}
			g.trigDeletes.Add(1)
			lost = append(lost, kvcache.BatchOp{Kind: kvcache.BatchDelete, Key: k.key})
		case k.counted:
		default:
			g.trigSkips.Add(int64(k.changed)) // vanished between the batches
		}
	}
	if len(lost) > 0 {
		g.cache.ApplyBatch(lost)
	}
	return len(groups)
}

// renderKeys renders the key of every op into one string, the statement's
// one key allocation, and sets each op's key to its substring.
func renderKeys(ops []op) {
	var keyBuf [512]byte
	var endBuf [32]int
	keys, ends := keyBuf[:0], endBuf[:0] // ends[i] is where ops[i]'s key ends
	for i := range ops {
		keys = ops[i].co.appendKey(keys, ops[i].vals)
		ends = append(ends, len(keys))
	}
	all := string(keys)
	for i, from := 0, 0; i < len(ops); i++ {
		ops[i].key, from = all[from:ends[i]], ends[i]
	}
}

// groupByKey groups ops by key, the groups in the order their keys first
// appear, and chains each group's ops through next.
func groupByKey(ops []op) []keyGroup {
	groups := make([]keyGroup, 0, len(ops))
	for i := range ops {
		o := &ops[i]
		o.next = -1
		pos := sort.Search(len(groups), func(j int) bool { return groups[groups[j].byKey].key >= o.key })
		if pos < len(groups) && groups[groups[pos].byKey].key == o.key {
			k := &groups[groups[pos].byKey]
			ops[k.last].next = int32(i)
			k.last = int32(i)
			k.n++
			k.sum += o.delta
			if o.kind == opPopulate || o.kind.batchKind() != k.kind {
				k.kind, k.mixed = kvcache.BatchGets, true
			}
			continue
		}
		groups = append(groups, keyGroup{key: o.key, kind: o.kind.batchKind(),
			first: int32(i), last: int32(i), n: 1, sum: o.delta})
		for j := len(groups) - 1; j > pos; j-- {
			groups[j].byKey = groups[j-1].byKey
		}
		groups[pos].byKey = int32(len(groups) - 1)
	}
	return groups
}

// compose turns the key's ops and what the first batch found for it into the
// key's op in the second; ok is false when there is nothing to write. It
// replays the ops in record order over the key's state, absent or an entry:
//
//   - a populate stores its entry when the key is absent, and is refused
//     when it is not;
//   - a delete empties the key;
//   - an incr or a list edit applies when the key is present, and finds
//     nothing otherwise.
//
// The key is then added if it started absent, swapped in (cas) if it started
// present, and deleted if it ended absent. A top-K list that a removal leaves
// short of its reserve is recomputed through q, which stands in for the
// composed edits; without q it is dropped.
func (k *keyGroup) compose(q sqldb.Queryer, ops []op, r kvcache.BatchResult) (bop kvcache.BatchOp, ok bool) {
	co := ops[k.first].co
	g := co.g
	present, raw := r.Found, r.Data
	var p payload
	decoded, dirty, short := false, false, false
	for i := k.first; i >= 0; i = ops[i].next {
		o := &ops[i]
		switch {
		case o.kind == opPopulate:
			if present {
				g.populateRefused.Add(1)
				continue
			}
			present, raw, decoded, dirty = true, o.enc, false, true
		case o.kind == opDelete:
			if present {
				g.trigDeletes.Add(1)
				present, dirty = false, true
			} else {
				g.trigSkips.Add(1)
			}
		case !present:
			g.trigSkips.Add(1)
		case o.kind == opIncr:
			n, ok := parseCount(raw)
			if !ok {
				g.trigDeletes.Add(1) // corrupt: dropped
				present, dirty = false, true
				continue
			}
			raw = strconv.AppendInt(nil, n+o.delta, 10)
			g.trigUpdates.Add(1)
			dirty = true
		default:
			if !decoded {
				var err error
				if p, err = decodePayload(raw); err != nil {
					g.trigDeletes.Add(1) // corrupt: dropped
					present, dirty = false, true
					continue
				}
				decoded = true
			}
			changed, s := o.apply(&p)
			if changed {
				k.changed++
				dirty = true
			}
			if s && q == nil {
				g.trigDeletes.Add(1)
				present = false
			}
			short = short || s
		}
	}
	if k.mixed {
		g.trigUpdates.Add(int64(k.changed))
		k.counted = true
	}
	switch {
	case short && q != nil:
		// The recomputed list is the statement's final database state for
		// this key, so it stands in for the composed edits.
		g.trigUpdates.Add(int64(k.changed))
		k.counted = true
		return co.recompute(q, k.key, ops[k.first].vals), true
	case !dirty || !present && !r.Found:
		return bop, false
	case !present:
		k.counted = true
		return kvcache.BatchOp{Kind: kvcache.BatchDelete, Key: k.key}, true
	}
	if decoded {
		raw = encodePayload(p)
	}
	if !r.Found {
		return kvcache.BatchOp{Kind: kvcache.BatchAdd, Key: k.key, Value: raw, TTL: co.ttl()}, true
	}
	return kvcache.BatchOp{Kind: kvcache.BatchCas, Key: k.key, Value: raw, TTL: co.ttl(), Cas: r.Cas}, true
}

// recompute rebuilds a top-K list from the database through q — the paper's
// fallback when deletes exhaust the reserve — and returns the op that
// installs it, or, when the query fails, the delete that lets the next read
// miss repopulate the key. Either op is already counted.
func (co *CachedObject) recompute(q sqldb.Queryer, key string, vals []sqldb.Value) kvcache.BatchOp {
	rows, exhaustive, err := co.fetchFromDB(q, vals)
	if err != nil {
		co.g.trigDeletes.Add(1)
		return kvcache.BatchOp{Kind: kvcache.BatchDelete, Key: key}
	}
	co.g.recomputes.Add(1)
	co.g.trigUpdates.Add(1)
	return kvcache.BatchOp{Kind: kvcache.BatchSet, Key: key,
		Value: encodePayload(payload{exhaustive: exhaustive, rows: rows}), TTL: co.ttl()}
}
