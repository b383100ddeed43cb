package core

import (
	"cachegenie/internal/invbus"
	"cachegenie/internal/kvcache"
	"cachegenie/internal/sqldb"
)

// maxCasRetries bounds the gets/cas retry loop in update-in-place triggers.
// On exhaustion the trigger falls back to invalidating the key, which is
// always safe.
const maxCasRetries = 16

// mutKind is how a recorded mutation reaches the cache.
type mutKind uint8

const (
	mutCas    mutKind = iota // read-modify-write of a row list: gets, edit, cas
	mutIncr                  // atomic counter adjustment
	mutDelete                // invalidation
)

// mutation is one cache effect a trigger recorded. An object's class and
// strategy fix the kind of every mutation of its keys, so all the mutations
// of one key share a kind.
type mutation struct {
	co   *CachedObject
	key  string
	kind mutKind
	// fn edits the decoded list and reports whether it changed (mutCas).
	fn func(p *payload) bool
	// repair marks a top-K removal and holds the list's lookup values: a
	// removal that leaves a non-exhaustive list short of K rows has used up
	// the reserve, and the list must be rebuilt from the database.
	repair []sqldb.Value
	delta  int64 // mutIncr
}

// apply runs a mutCas mutation on p. short reports reserve exhaustion.
func (m *mutation) apply(p *payload) (changed, short bool) {
	changed = m.fn(p)
	short = changed && m.repair != nil && len(p.rows) < m.co.spec.K && !p.exhaustive
	return changed, short
}

// casLoop applies a mutCas mutation to c on its own, as the paper's trigger
// does: gets -> modify -> cas, retried on conflict. It is the route for a key
// that lost a race inside a write-set flush and for every CAS update on the
// invalidation bus.
func (m *mutation) casLoop(c kvcache.Cache) (short bool) {
	m.co.casLoop(c, m.key, func(p *payload) bool {
		var changed bool
		changed, short = m.apply(p)
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
// talk to the cache: they record (key, kind, mutation) here, and the engine
// ends the statement by flushing the set once, after the last row's triggers
// and with the statement's locks still held (sqldb.StatementHook). A
// statement that fails is never flushed, so it leaves the cache untouched.
//
// The flush composes each key's mutations in record order and reaches the
// cache in at most two batches — per node, concurrently, when the cache is a
// ring. The first carries one op per key: the value and token of every list
// about to be edited (gets), and the ops that depend on no read, the summed
// counter adjustments (incr) and the invalidations (delete). The second
// carries the conditional writes computed from what the first read (cas); a
// statement none of whose lists is cached never sends it. With
// AsyncInvalidation the flush instead publishes the recorded mutations to the
// bus, uncomposed and in record order.
type writeSet struct {
	g    *Genie
	muts []mutation
}

var _ sqldb.StatementHook = (*writeSet)(nil)

// cas records a read-modify-write of the row list under key.
func (ws *writeSet) cas(co *CachedObject, key string, fn func(p *payload) bool) {
	ws.muts = append(ws.muts, mutation{co: co, key: key, kind: mutCas, fn: fn})
}

// topkRemove records the removal of old's row from the top-K list under key.
// Reserve exhaustion is repaired at flush time: in sync mode by recomputing
// the list through the statement's own transaction (the paper's fallback); in
// async mode that transaction is gone by the time the bus applies the op, so
// the key is dropped instead and the next read miss repopulates it.
func (ws *writeSet) topkRemove(co *CachedObject, key string, old sqldb.Row) {
	ws.muts = append(ws.muts, mutation{co: co, key: key, kind: mutCas, fn: removeRow(old), repair: co.whereValsFromRow(old)})
}

// incr records a counter adjustment; counts need no CAS because incr is
// atomic at the cache.
func (ws *writeSet) incr(co *CachedObject, key string, delta int64) {
	ws.muts = append(ws.muts, mutation{co: co, key: key, kind: mutIncr, delta: delta})
}

// invalidate records the deletion of key (the invalidate strategy's whole
// job).
func (ws *writeSet) invalidate(co *CachedObject, key string) {
	ws.muts = append(ws.muts, mutation{co: co, key: key, kind: mutDelete})
}

// keyOps is every mutation one flush holds for one key.
type keyOps struct {
	co   *CachedObject
	key  string
	kind mutKind
	n    int   // logical ops recorded
	sum  int64 // mutIncr: the deltas, summed
	// mutCas: the mutations' positions in the write-set, in record order, and
	// how many of them edited the list the first batch read.
	idx     []int
	changed int
	// counted marks a second-batch op whose outcome is already accounted for.
	counted bool
}

// EndStatement implements sqldb.StatementHook: it flushes the write-set. The
// cache reports no errors (a lost exchange reads as a miss), so neither does
// the flush.
func (ws *writeSet) EndStatement(q sqldb.Queryer) error {
	g, muts := ws.g, ws.muts
	if len(muts) == 0 {
		return nil
	}
	if g.bus != nil {
		for i := range muts {
			g.publish(muts[i])
		}
		return nil
	}
	g.chargeTriggerConnect()

	groups := make([]keyOps, 0, len(muts))
	byKey := make(map[string]int, len(muts)) // key -> position in groups
	for i := range muts {
		m := &muts[i]
		gi, seen := byKey[m.key]
		if !seen {
			gi = len(groups)
			byKey[m.key] = gi
			groups = append(groups, keyOps{co: m.co, key: m.key, kind: m.kind})
		}
		k := &groups[gi]
		k.n++
		k.sum += m.delta
		if m.kind == mutCas {
			k.idx = append(k.idx, i)
		}
	}

	// First batch: one op per key.
	first := make([]kvcache.BatchOp, len(groups))
	for i, k := range groups {
		switch k.kind {
		case mutCas:
			first[i] = kvcache.BatchOp{Kind: kvcache.BatchGets, Key: k.key}
		case mutIncr:
			first[i] = kvcache.BatchOp{Kind: kvcache.BatchIncr, Key: k.key, Delta: k.sum}
		default:
			first[i] = kvcache.BatchOp{Kind: kvcache.BatchDelete, Key: k.key}
		}
	}
	// Second batch: the writes the reads call for; owners[i] is the key
	// second[i] belongs to.
	var second []kvcache.BatchOp
	var owners []*keyOps
	for i, r := range kvcache.ApplyBatchOn(g.cache, first) {
		k := &groups[i]
		switch {
		case !r.Found:
			// Not cached: every one of the key's triggers quits (paper
			// §3.2); the next read miss repopulates the entry.
			g.trigSkips.Add(int64(k.n))
		case k.kind == mutCas:
			if op, ok := k.compose(q, muts, r); ok {
				second = append(second, op)
				owners = append(owners, k)
			}
		case k.kind == mutIncr:
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
	for i, r := range kvcache.ApplyBatchOn(g.cache, second) {
		k := owners[i]
		switch {
		case k.counted:
		case r.Found:
			g.trigUpdates.Add(int64(k.changed))
		case r.CasResult == kvcache.CasConflict:
			// Someone wrote the key between the two batches. Converge it on
			// its own; the rest of the statement's keys are done.
			g.casRetries.Add(1)
			g.casFallbacks.Add(1)
			for _, mi := range k.idx {
				if m := &muts[mi]; m.casLoop(g.cache) {
					kvcache.ApplyBatchOn(g.cache, []kvcache.BatchOp{k.co.recompute(q, k.key, m.repair)})
				}
			}
		default:
			g.trigSkips.Add(int64(k.changed)) // vanished between the batches
		}
	}
	return nil
}

// compose turns the key's recorded list edits and the list the first batch
// found for it into the key's op in the second; ok is false when there is
// nothing to write.
func (k *keyOps) compose(q sqldb.Queryer, muts []mutation, r kvcache.BatchResult) (op kvcache.BatchOp, ok bool) {
	g := k.co.g
	p, err := decodePayload(r.Data)
	if err != nil {
		// Corrupt entry: the first mutation drops it, the rest find nothing.
		g.trigDeletes.Add(1)
		g.trigSkips.Add(int64(k.n - 1))
		k.counted = true
		return kvcache.BatchOp{Kind: kvcache.BatchDelete, Key: k.key}, true
	}
	var repair []sqldb.Value
	for _, mi := range k.idx {
		changed, short := muts[mi].apply(&p)
		if changed {
			k.changed++
		}
		if short {
			repair = muts[mi].repair
		}
	}
	if repair != nil {
		// The recomputed list is the statement's final database state for
		// this key, so it stands in for the composed edits.
		g.trigUpdates.Add(int64(k.changed))
		k.counted = true
		return k.co.recompute(q, k.key, repair), true
	}
	if k.changed == 0 {
		return op, false
	}
	return kvcache.BatchOp{Kind: kvcache.BatchCas, Key: k.key, Value: encodePayload(p), TTL: k.co.ttl(), Cas: r.Cas}, true
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

// publish hands one recorded mutation to the invalidation bus, where the
// shard worker applies it amortized and in per-key publish order: redundant
// pending deletes of a key coalesce into one, adjacent increments merge, and
// a CAS update runs its own gets/cas loop.
func (g *Genie) publish(m mutation) {
	switch m.kind {
	case mutIncr:
		g.bus.Publish(invbus.Op{Kind: invbus.OpIncr, Key: m.key, Delta: m.delta, Done: func(r invbus.Result) {
			if r.Found {
				g.trigUpdates.Add(1)
			} else {
				g.trigSkips.Add(1)
			}
		}})
	case mutDelete:
		g.bus.Publish(invbus.Op{Kind: invbus.OpDelete, Key: m.key, Done: func(r invbus.Result) {
			if r.Found {
				g.trigDeletes.Add(1)
			} else {
				g.trigSkips.Add(1)
			}
		}})
	default:
		g.bus.Publish(invbus.Op{Kind: invbus.OpCasUpdate, Key: m.key, Update: func(c kvcache.Cache) {
			if m.casLoop(c) && c.Delete(m.key) {
				g.trigDeletes.Add(1)
			}
		}})
	}
}
