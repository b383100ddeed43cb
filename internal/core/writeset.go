package core

import (
	"fmt"
	"sort"

	"cachegenie/internal/invbus"
	"cachegenie/internal/kvcache"
	"cachegenie/internal/sqldb"
)

// maxCasRetries bounds the gets/cas retry loop in update-in-place triggers.
// On exhaustion the trigger falls back to invalidating the key, which is
// always safe.
const maxCasRetries = 16

// opKind is what an op does to its key's cached entry (opNotes). The row-list
// edits are idempotent by primary key, except opAppend.
type opKind uint8

const (
	opInsert opKind = iota
	opRemove
	opReplace
	opAppend
	opUnlink
	opIncr
	opDelete
)

var opNames = [...]string{"insert", "remove", "replace", "append", "unlink", "incr", "delete"}

// opNotes say what each kind does to the entry of its key; a trigger's listing
// quotes the note of every kind it records.
var opNotes = [...]string{
	opInsert:  "adds new unless a row with its id is cached: at its sort position in a top-K list, at the end of any other",
	opRemove:  "drops every cached row with old's id; a top-K list it leaves short of K rows has used up its reserve and is rebuilt from the database",
	opReplace: "puts new in place of every cached row with its id: moved to its new sort position in a top-K list, appended to a feature list that lacks it",
	opAppend:  "appends rows, the target rows joined: a link list holds a target row once per relation row that joins it to the source",
	opUnlink:  "drops one cached row whose link target field equals the join field of old, a relation row",
	opIncr:    "adds delta to a count; the flush sums a key's deltas",
	opDelete:  "invalidates the key: the next read misses and reloads it",
}

// String implements fmt.Stringer.
func (k opKind) String() string { return opNames[k] }

// batchKind is how an op of kind k reaches the cache in a flush's first
// batch: a list edit reads the list (gets), the others need no read.
func (k opKind) batchKind() kvcache.BatchOpKind {
	switch k {
	case opIncr:
		return kvcache.BatchIncr
	case opDelete:
		return kvcache.BatchDelete
	}
	return kvcache.BatchGets
}

// op is one cache effect a trigger recorded, as data: what to do to the
// entry of which cached object under which lookup values, with the rows it
// needs. Ops are composed per key without running anything; an object's
// class and strategy fix the kinds its keys get, so the ops of one key are
// all list edits, all incrs or all deletes.
type op struct {
	co   *CachedObject
	kind opKind
	// vals are the key's lookup values, mostly a window of a row; key is set
	// from them when the statement's keys are rendered (renderKeys).
	vals []sqldb.Value
	key  string
	// old and new are the row before and after the change, as the trigger
	// event carries them; rows are opAppend's; delta is opIncr's.
	old, new sqldb.Row
	rows     []sqldb.Row
	delta    int64
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
// a top-K removal used up the reserve.
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
		short = changed && co.spec.Class == TopKQuery && len(p.rows) < co.spec.K && !p.exhaustive
		return changed, short
	case opReplace:
		return co.replace(p, o.old, o.new), false
	case opAppend:
		p.rows = append(p.rows, o.rows...)
		return true, false
	case opUnlink:
		for i, r := range p.rows {
			if sqldb.Equal(r[co.targetIdx], o.old[co.joinIdx]) {
				p.rows = removeRowAt(p.rows, i)
				return true, false
			}
		}
	}
	return false, false
}

// replace is opReplace on p per the object's class.
func (co *CachedObject) replace(p *payload, old, new sqldb.Row) bool {
	switch co.spec.Class {
	case TopKQuery:
		i := findRowByPK(p.rows, rowPK(new))
		if i < 0 {
			return false
		}
		if sqldb.Compare(old[co.sortIdx], new[co.sortIdx]) == 0 {
			// Sort position unchanged: update the row in place (the paper:
			// "UPDATE triggers simply update the corresponding post if it
			// finds it in the cached list").
			p.rows[i] = new
			return true
		}
		p.rows = removeRowAt(p.rows, i)
		co.topkInsert(p, new)
		return true
	case LinkQuery:
		// A list holds a target row once per relation row that joins it to
		// the source: every copy is replaced.
		changed := false
		for i, r := range p.rows {
			if rowPK(r) == rowPK(new) {
				p.rows[i] = new
				changed = true
			}
		}
		return changed
	}
	// A feature list is exhaustive: a row of its key that it lacks belongs in
	// it.
	if i := findRowByPK(p.rows, rowPK(new)); i >= 0 {
		p.rows[i] = new
	} else {
		p.rows = append(p.rows, new)
	}
	return true
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
		if len(p.rows) >= limit && !p.exhaustive {
			// Row sorts below the cached window; the window is unaffected.
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

// casLoop applies a list edit to c on its own, as the paper's trigger does:
// gets -> modify -> cas, retried on conflict. It is the route for a key that
// lost a race inside a write-set flush and for every list edit on the
// invalidation bus.
func (o *op) casLoop(c kvcache.Cache) (short bool) {
	o.co.casLoop(c, o.key, func(p *payload) bool {
		var changed bool
		changed, short = o.apply(p)
		return changed
	})
	return short
}

// casLoop is the gets -> modify -> cas retry loop. fn mutates the decoded
// payload and reports whether anything changed. If the key is absent the
// trigger quits (the paper's behaviour: uncached entries are repopulated on
// the next read miss). Retries on CAS conflicts; falls back to invalidation
// if the conflict persists.
func (co *CachedObject) casLoop(c kvcache.Cache, key string, fn func(p *payload) bool) {
	g := co.g
	for attempt := 0; ; attempt++ {
		raw, tok, ok := c.Gets(key)
		if !ok {
			g.trigSkips.Add(1)
			return
		}
		p, err := decodePayload(raw)
		if err != nil {
			c.Delete(key)
			g.trigDeletes.Add(1)
			return
		}
		if !fn(&p) {
			return
		}
		switch c.Cas(key, encodePayload(p), co.ttl(), tok) {
		case kvcache.CasStored:
			g.trigUpdates.Add(1)
			return
		case kvcache.CasNotFound:
			g.trigSkips.Add(1)
			return
		case kvcache.CasConflict:
			g.casRetries.Add(1)
			if attempt >= maxCasRetries {
				c.Delete(key)
				g.trigDeletes.Add(1)
				return
			}
		}
	}
}

// writeSet is one write statement's cache maintenance. Trigger bodies never
// talk to the cache: they record ops here, and the engine ends the statement
// by flushing the set once, after the last row's triggers and with the
// statement's locks still held (sqldb.StatementHook). A statement that fails
// is never flushed, so it leaves the cache untouched.
//
// The flush composes each key's ops in record order and reaches the cache in
// at most two batches — per node, concurrently, when the cache is a ring. The
// first carries one op per key: the value and token of every list about to be
// edited (gets), and the ops that depend on no read, the summed counter
// adjustments (incr) and the invalidations (delete). The second carries the
// conditional writes computed from what the first read (cas); a statement
// none of whose lists is cached never sends it. With AsyncInvalidation the
// flush instead publishes the recorded ops to the bus, uncomposed and in
// record order.
//
// A flush allocates per statement, not per op: every key is rendered into one
// string, and the key groups and both batches are an array each.
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

// EndStatement implements sqldb.StatementHook: it flushes the write-set. The
// cache reports no errors (a lost exchange reads as a miss), so neither does
// the flush.
func (ws *writeSet) EndStatement(q sqldb.Queryer) error {
	g, ops := ws.g, ws.ops
	if len(ops) == 0 {
		return nil
	}
	renderKeys(ops)
	if g.bus != nil {
		for i := range ops {
			g.publish(ops[i])
		}
		return nil
	}

	groups := groupByKey(ops)
	// Both batches share one array: the first holds an op per key, the second
	// at most as many.
	batch := make([]kvcache.BatchOp, 2*len(groups))
	first, second := batch[:len(groups)], batch[len(groups):len(groups)]
	for i := range groups {
		k := &groups[i]
		first[i] = kvcache.BatchOp{Kind: k.kind, Key: k.key, Delta: k.sum}
	}
	for i, r := range g.cache.ApplyBatch(first) {
		k := &groups[i]
		switch {
		case !r.Found:
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
		return nil
	}
	res := g.cache.ApplyBatch(second)
	n := 0
	for i := range groups {
		k := &groups[i]
		if !k.wrote {
			continue
		}
		r := res[n]
		n++
		switch {
		case k.counted:
		case r.Found:
			g.trigUpdates.Add(int64(k.changed))
		case r.CasResult == kvcache.CasConflict:
			// Someone wrote the key between the two batches. Converge it on
			// its own; the rest of the statement's keys are done.
			g.casRetries.Add(1)
			g.casFallbacks.Add(1)
			for j := k.first; j >= 0; j = ops[j].next {
				if o := &ops[j]; o.casLoop(g.cache) {
					g.cache.ApplyBatch([]kvcache.BatchOp{o.co.recompute(q, k.key, o.vals)})
				}
			}
		default:
			g.trigSkips.Add(int64(k.changed)) // vanished between the batches
		}
	}
	return nil
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

// compose turns the key's recorded list edits and the list the first batch
// found for it into the key's op in the second; ok is false when there is
// nothing to write.
func (k *keyGroup) compose(q sqldb.Queryer, ops []op, r kvcache.BatchResult) (bop kvcache.BatchOp, ok bool) {
	co := ops[k.first].co
	g := co.g
	p, err := decodePayload(r.Data)
	if err != nil {
		// Corrupt entry: the first op drops it, the rest find nothing.
		g.trigDeletes.Add(1)
		g.trigSkips.Add(int64(k.n - 1))
		k.counted = true
		return kvcache.BatchOp{Kind: kvcache.BatchDelete, Key: k.key}, true
	}
	short := false
	for i := k.first; i >= 0; i = ops[i].next {
		changed, s := ops[i].apply(&p)
		if changed {
			k.changed++
		}
		short = short || s
	}
	if short {
		// The recomputed list is the statement's final database state for
		// this key, so it stands in for the composed edits.
		g.trigUpdates.Add(int64(k.changed))
		k.counted = true
		return co.recompute(q, k.key, ops[k.first].vals), true
	}
	if k.changed == 0 {
		return bop, false
	}
	return kvcache.BatchOp{Kind: kvcache.BatchCas, Key: k.key, Value: encodePayload(p), TTL: co.ttl(), Cas: r.Cas}, true
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

// publish hands one recorded op to the invalidation bus, where the shard
// worker applies it amortized and in per-key publish order: redundant pending
// deletes of a key coalesce into one, adjacent increments merge, and a list
// edit runs its own gets/cas loop.
func (g *Genie) publish(o op) {
	switch o.kind {
	case opIncr:
		g.bus.Publish(invbus.Op{Kind: invbus.OpIncr, Key: o.key, Delta: o.delta, Done: func(r invbus.Result) {
			if r.Found {
				g.trigUpdates.Add(1)
			} else {
				g.trigSkips.Add(1)
			}
		}})
	case opDelete:
		g.bus.Publish(invbus.Op{Kind: invbus.OpDelete, Key: o.key, Done: func(r invbus.Result) {
			if r.Found {
				g.trigDeletes.Add(1)
			} else {
				g.trigSkips.Add(1)
			}
		}})
	default:
		// A top-K list short of its reserve is dropped instead of rebuilt:
		// the statement's transaction is gone by the time the bus applies
		// the op, and the next read miss repopulates the key.
		g.bus.Publish(invbus.Op{Kind: invbus.OpCasUpdate, Key: o.key, Update: func(c kvcache.Cache) {
			if o.casLoop(c) && c.Delete(o.key) {
				g.trigDeletes.Add(1)
			}
		}})
	}
}
