package core

import (
	"fmt"
	"sort"

	"cachegenie/internal/kvcache"
	"cachegenie/internal/rowlist"
	"cachegenie/internal/sqldb"
)

// opKind is what an op does to its key's cached entry (opNotes): the row-list
// semantics of every kind live in rowlist, which the cache node runs.
type opKind = rowlist.Kind

const (
	opInsert   = rowlist.Insert
	opRemove   = rowlist.Remove
	opReplace  = rowlist.Replace
	opAppend   = rowlist.Append
	opUnlink   = rowlist.Unlink
	opIncr     = rowlist.Incr
	opDelete   = rowlist.Delete
	opPopulate = rowlist.Populate
)

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

// batchKind is how a key whose ops are all of kind k reaches the cache: an
// incr or a delete as itself (a key's incrs summed), a lone populate as an
// add, and a list edit as an edit the node replays.
func batchKind(k opKind) kvcache.BatchOpKind {
	switch k {
	case opIncr:
		return kvcache.BatchIncr
	case opDelete:
		return kvcache.BatchDelete
	case opPopulate:
		return kvcache.BatchAdd
	}
	return kvcache.BatchEdit
}

// op is one cache effect a trigger recorded, as data (rowlist.Op): what to do
// to the entry of which cached object under which lookup values, with the
// rows it needs. Ops are composed per key without running anything; an
// object's class and strategy fix the kinds its triggers record, so in a
// statement the ops of one key are all list edits, all incrs or all deletes.
// A bus window may add a read miss's populate, or the drop of an entry it
// found corrupt.
type op struct {
	co *CachedObject
	rowlist.Op
	// vals are the key's lookup values, mostly a window of a row; key is set
	// from them when the statement's keys are rendered (renderKeys).
	vals []sqldb.Value
	key  string
	// next chains the ops of one key in record order (groupByKey).
	next int32
}

// String renders o for a trace or a listing: "insert cg:wall:7 pk=12".
func (o *op) String() string {
	s := o.Kind.String() + " " + o.co.MakeKey(o.vals...)
	switch o.Kind {
	case opInsert, opReplace:
		s += fmt.Sprintf(" pk=%d", rowlist.PK(o.New))
	case opRemove:
		s += fmt.Sprintf(" pk=%d", rowlist.PK(o.Old))
	case opAppend:
		s += fmt.Sprintf(" rows=%d", len(o.Rows))
	case opUnlink:
		s += fmt.Sprintf(" %s=%v", o.co.spec.Link.JoinField, o.Old[o.co.joinIdx])
	case opIncr:
		s += fmt.Sprintf(" %+d", o.Delta)
	}
	return s
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

// flush reaches the cache with one op per key the ops touch, in one batch —
// per node, concurrently, when the cache is a ring. A key's summed counter
// adjustments travel as one incr, its invalidations as one delete and a lone
// populate as an add; any other key's ops travel as one edit, which the node
// holding the key replays in record order, atomically
// (rowlist.Scratch.Replay): nothing is read back, and nothing can conflict.
// It returns the number of keys the ops touched.
//
// q is the statement's connection. A top-K list that a removal leaves short
// of its reserve comes back from its node dropped (Short), and is recomputed
// through q and set. On the bus q is nil: the statement's transaction is
// gone, so the key stays dropped for the next read miss to reload. An edit
// that did not run — its exchange lost, too large to send, or missed by one
// replica at R > 1 — is followed by a delete of its key, in the same second
// round as the recomputed lists.
//
// A flush allocates per flush, not per op: the key groups, the batch and
// every edit's bytes are an array each.
func (g *Genie) flush(q sqldb.Queryer, ops []op) (keys int) {
	groups := groupByKey(ops)
	size := 0
	for i := range groups {
		if k := &groups[i]; k.kind == kvcache.BatchEdit {
			size += rowlist.ShapeLen(ops[k.first].co.shape)
			for j := k.first; j >= 0; j = ops[j].next {
				size += rowlist.OpLen(&ops[j].Op)
			}
		}
	}
	edits := make([]byte, 0, size)
	batch := make([]kvcache.BatchOp, len(groups))
	for i := range groups {
		k, o := &groups[i], &ops[groups[i].first]
		batch[i] = kvcache.BatchOp{Kind: k.kind, Key: k.key, Delta: k.sum, TTL: o.co.ttl()}
		switch k.kind {
		case kvcache.BatchAdd:
			batch[i].Value = o.Enc
		case kvcache.BatchEdit:
			from := len(edits)
			edits = rowlist.AppendShape(edits, o.co.shape)
			for j := k.first; j >= 0; j = ops[j].next {
				edits = rowlist.AppendOp(edits, &ops[j].Op)
			}
			batch[i].Value = edits[from:len(edits):len(edits)]
		}
	}
	var second []kvcache.BatchOp // recomputed lists, and drops of failed edits
	for i, r := range g.cache.ApplyBatch(batch) {
		k := &groups[i]
		switch {
		case k.kind == kvcache.BatchAdd:
			if !r.Found {
				g.populateRefused.Add(1)
			}
		case !r.Found && k.kind == kvcache.BatchEdit:
			// The edit did not run: the exchange was lost, the edit was too
			// large to send, or a replica missed it. Whatever copy it missed
			// no longer follows the database, so the key is dropped.
			g.trigSkips.Add(int64(k.n))
			g.trigDeletes.Add(1)
			second = append(second, kvcache.BatchOp{Kind: kvcache.BatchDelete, Key: k.key})
		case !r.Found:
			// Not cached: every one of the key's triggers quits (paper §3.2);
			// the next read miss repopulates the entry.
			g.trigSkips.Add(int64(k.n))
		case k.kind == kvcache.BatchEdit:
			e := r.Edit
			g.trigUpdates.Add(int64(e.Updates))
			g.trigSkips.Add(int64(e.Skips))
			g.trigDeletes.Add(int64(e.Deletes))
			g.populateRefused.Add(int64(e.Refused))
			switch {
			case e.Short && q != nil:
				// The recomputed list is the statement's final database state
				// for this key.
				o := &ops[k.first]
				second = append(second, o.co.recompute(q, k.key, o.vals))
			case e.Short:
				g.trigDeletes.Add(1)
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
	g.flushOps.Observe(int64(len(batch) + len(second)))
	if len(second) > 0 {
		g.cache.ApplyBatch(second)
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
			k.sum += o.Delta
			if o.Kind == opPopulate || batchKind(o.Kind) != k.kind {
				k.kind = kvcache.BatchEdit
			}
			continue
		}
		groups = append(groups, keyGroup{key: o.key, kind: batchKind(o.Kind),
			first: int32(i), last: int32(i), n: 1, sum: o.Delta})
		for j := len(groups) - 1; j > pos; j-- {
			groups[j].byKey = groups[j-1].byKey
		}
		groups[pos].byKey = int32(len(groups) - 1)
	}
	return groups
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
		Value: rowlist.Encode(rowlist.List{Exhaustive: exhaustive, Rows: rows}), TTL: co.ttl()}
}
