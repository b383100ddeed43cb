package core

import (
	"fmt"
	"strings"

	"cachegenie/internal/sqldb"
)

// installTriggers generates this object's triggers and installs them in the
// database engine.
func (co *CachedObject) installTriggers() error {
	co.triggers = co.generateTriggers()
	for _, tr := range co.triggers {
		if err := co.g.db.CreateTrigger(tr); err != nil {
			return fmt.Errorf("core: installing trigger %s: %w", tr.Name, err)
		}
	}
	return nil
}

// generateTriggers builds the trigger set for the cached object: three
// triggers (INSERT/UPDATE/DELETE) on every table underlying the cached
// query (paper §3.2). Expiry-strategy objects need no triggers.
func (co *CachedObject) generateTriggers() []sqldb.Trigger {
	if co.spec.Strategy == Expiry {
		return nil
	}
	mk := func(table string, op sqldb.TriggerOp, body triggerBody, reads ...string) sqldb.Trigger {
		return sqldb.Trigger{
			Name:        fmt.Sprintf("cg_%s_%s_%s", co.spec.Name, table, opSuffix(op)),
			Table:       table,
			Op:          op,
			Fn:          co.g.recording(body),
			Source:      co.triggerSource(table, op),
			ReadsTables: reads,
		}
	}
	var out []sqldb.Trigger
	switch co.spec.Class {
	case FeatureQuery:
		t := co.model.Table
		out = append(out,
			mk(t, sqldb.TrigInsert, co.featureTrigger(sqldb.TrigInsert)),
			mk(t, sqldb.TrigUpdate, co.featureTrigger(sqldb.TrigUpdate)),
			mk(t, sqldb.TrigDelete, co.featureTrigger(sqldb.TrigDelete)),
		)
	case CountQuery:
		t := co.model.Table
		out = append(out,
			mk(t, sqldb.TrigInsert, co.countTrigger(sqldb.TrigInsert)),
			mk(t, sqldb.TrigUpdate, co.countTrigger(sqldb.TrigUpdate)),
			mk(t, sqldb.TrigDelete, co.countTrigger(sqldb.TrigDelete)),
		)
	case TopKQuery:
		t := co.model.Table
		// Delete and update may recompute the list from the trigger's own
		// table; the statement already holds it exclusively.
		out = append(out,
			mk(t, sqldb.TrigInsert, co.topkTrigger(sqldb.TrigInsert)),
			mk(t, sqldb.TrigUpdate, co.topkTrigger(sqldb.TrigUpdate), t),
			mk(t, sqldb.TrigDelete, co.topkTrigger(sqldb.TrigDelete), t),
		)
	case LinkQuery:
		th := co.linkThrough.Table
		tg := co.model.Table
		// Relation-table triggers fetch joined target rows; target-table
		// triggers reverse-map through the relation table.
		out = append(out,
			mk(th, sqldb.TrigInsert, co.linkThroughTrigger(sqldb.TrigInsert), tg),
			mk(th, sqldb.TrigUpdate, co.linkThroughTrigger(sqldb.TrigUpdate), tg),
			mk(th, sqldb.TrigDelete, co.linkThroughTrigger(sqldb.TrigDelete), tg),
			mk(tg, sqldb.TrigInsert, co.linkTargetTrigger(sqldb.TrigInsert), th),
			mk(tg, sqldb.TrigUpdate, co.linkTargetTrigger(sqldb.TrigUpdate), th),
			mk(tg, sqldb.TrigDelete, co.linkTargetTrigger(sqldb.TrigDelete), th),
		)
	}
	return out
}

func opSuffix(op sqldb.TriggerOp) string {
	switch op {
	case sqldb.TrigInsert:
		return "ins"
	case sqldb.TrigUpdate:
		return "upd"
	default:
		return "del"
	}
}

// keyFromRow builds the key of the cached list a main-model row belongs to.
func (co *CachedObject) keyFromRow(row sqldb.Row) string {
	var buf [4]sqldb.Value
	vals := buf[:0]
	for _, i := range co.whereIdx {
		vals = append(vals, row[i])
	}
	return co.MakeKey(vals...)
}

// whereValsFromRow extracts the lookup values from a main-model row.
func (co *CachedObject) whereValsFromRow(row sqldb.Row) []sqldb.Value {
	vals := make([]sqldb.Value, len(co.whereIdx))
	for i, ci := range co.whereIdx {
		vals[i] = row[ci]
	}
	return vals
}

// triggerBody is a generated trigger's logic. It never talks to the cache:
// it records its effects in the firing statement's write-set.
type triggerBody func(ws *writeSet, q sqldb.Queryer, ev sqldb.TriggerEvent) error

// recording wraps a trigger body as the function the engine fires, handing it
// the write-set of the statement in flight. A Queryer with no statement scope
// (anything but the engine's own transaction) makes the firing its own scope:
// the body's effects flush as soon as it returns.
func (g *Genie) recording(body triggerBody) sqldb.TriggerFunc {
	return func(q sqldb.Queryer, ev sqldb.TriggerEvent) error {
		if sc, ok := q.(sqldb.StatementScope); ok {
			return body(sc.StatementHook(g, g.newWriteSet).(*writeSet), q, ev)
		}
		ws := &writeSet{g: g}
		if err := body(ws, q, ev); err != nil {
			return err
		}
		return ws.EndStatement(q)
	}
}

// rowListEdit records, under the object's strategy, a change to the row list
// cached under key: invalidation, or fn as an in-place edit.
func (co *CachedObject) rowListEdit(ws *writeSet, key string, fn func(p *payload) bool) {
	if co.spec.Strategy == Invalidate {
		ws.invalidate(co, key)
		return
	}
	ws.cas(co, key, fn)
}

// appendRow is the list edit that adds row unless its primary key is already
// there.
func appendRow(row sqldb.Row) func(p *payload) bool {
	return func(p *payload) bool {
		if findRowByPK(p.rows, rowPK(row)) >= 0 {
			return false
		}
		p.rows = append(p.rows, row)
		return true
	}
}

// removeRow is the list edit that drops the row with row's primary key.
func removeRow(row sqldb.Row) func(p *payload) bool {
	return func(p *payload) bool {
		i := findRowByPK(p.rows, rowPK(row))
		if i < 0 {
			return false
		}
		p.rows = removeRowAt(p.rows, i)
		return true
	}
}

// ---------- FeatureQuery ----------

// featureTrigger keeps "rows of M where WhereFields = vals" entries in sync.
// Feature payloads are always exhaustive, so rows can be edited in place.
func (co *CachedObject) featureTrigger(op sqldb.TriggerOp) triggerBody {
	return func(ws *writeSet, _ sqldb.Queryer, ev sqldb.TriggerEvent) error {
		switch op {
		case sqldb.TrigInsert:
			co.rowListEdit(ws, co.keyFromRow(ev.New), appendRow(ev.New))
		case sqldb.TrigDelete:
			co.rowListEdit(ws, co.keyFromRow(ev.Old), removeRow(ev.Old))
		case sqldb.TrigUpdate:
			oldKey := co.keyFromRow(ev.Old)
			newKey := co.keyFromRow(ev.New)
			if oldKey != newKey {
				co.rowListEdit(ws, oldKey, removeRow(ev.Old))
				co.rowListEdit(ws, newKey, appendRow(ev.New))
				return nil
			}
			co.rowListEdit(ws, newKey, func(p *payload) bool {
				i := findRowByPK(p.rows, rowPK(ev.New))
				if i < 0 {
					p.rows = append(p.rows, ev.New)
				} else {
					p.rows[i] = ev.New
				}
				return true
			})
		}
		return nil
	}
}

// ---------- CountQuery ----------

// countTrigger maintains COUNT(*) entries with atomic increments.
func (co *CachedObject) countTrigger(op sqldb.TriggerOp) triggerBody {
	bump := func(ws *writeSet, key string, delta int64) {
		if co.spec.Strategy == Invalidate {
			ws.invalidate(co, key)
			return
		}
		ws.incr(co, key, delta)
	}
	return func(ws *writeSet, _ sqldb.Queryer, ev sqldb.TriggerEvent) error {
		switch op {
		case sqldb.TrigInsert:
			bump(ws, co.keyFromRow(ev.New), 1)
		case sqldb.TrigDelete:
			bump(ws, co.keyFromRow(ev.Old), -1)
		case sqldb.TrigUpdate:
			oldKey := co.keyFromRow(ev.Old)
			newKey := co.keyFromRow(ev.New)
			if oldKey != newKey {
				bump(ws, oldKey, -1)
				bump(ws, newKey, 1)
			}
		}
		return nil
	}
}

// ---------- TopKQuery ----------

// sortCompare orders a before b per the spec's sort direction. Ties keep
// insertion order (stable).
func (co *CachedObject) sortBefore(a, b sqldb.Value) bool {
	c := sqldb.Compare(a, b)
	if co.spec.SortDesc {
		return c > 0
	}
	return c < 0
}

func (co *CachedObject) sortVal(row sqldb.Row) sqldb.Value {
	return row[co.sortIdx]
}

// topkInsertLocked inserts row into the ordered list, returning whether the
// payload changed.
func (co *CachedObject) topkInsert(p *payload, row sqldb.Row) bool {
	limit := co.spec.K + co.spec.reserve()
	pos := len(p.rows)
	for i, r := range p.rows {
		if co.sortBefore(co.sortVal(row), co.sortVal(r)) {
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

func (co *CachedObject) topkTrigger(op sqldb.TriggerOp) triggerBody {
	// insert and remove are the two list changes every firing is made of;
	// under the invalidate strategy each is just the key's deletion.
	insert := func(ws *writeSet, key string, row sqldb.Row) {
		co.rowListEdit(ws, key, func(p *payload) bool {
			if findRowByPK(p.rows, rowPK(row)) >= 0 {
				return false
			}
			return co.topkInsert(p, row)
		})
	}
	remove := func(ws *writeSet, key string, row sqldb.Row) {
		if co.spec.Strategy == Invalidate {
			ws.invalidate(co, key)
			return
		}
		ws.topkRemove(co, key, row)
	}
	return func(ws *writeSet, _ sqldb.Queryer, ev sqldb.TriggerEvent) error {
		switch op {
		case sqldb.TrigInsert:
			insert(ws, co.keyFromRow(ev.New), ev.New)
		case sqldb.TrigDelete:
			remove(ws, co.keyFromRow(ev.Old), ev.Old)
		case sqldb.TrigUpdate:
			oldKey := co.keyFromRow(ev.Old)
			newKey := co.keyFromRow(ev.New)
			if oldKey != newKey {
				// Moved between lists: delete from old, insert into new.
				remove(ws, oldKey, ev.Old)
				insert(ws, newKey, ev.New)
				return nil
			}
			co.rowListEdit(ws, newKey, func(p *payload) bool {
				i := findRowByPK(p.rows, rowPK(ev.New))
				if i < 0 {
					return false
				}
				if sqldb.Compare(co.sortVal(ev.Old), co.sortVal(ev.New)) == 0 {
					// Sort position unchanged: update the row in place
					// (the paper: "UPDATE triggers simply update the
					// corresponding post if it finds it in the cached list").
					p.rows[i] = ev.New
					return true
				}
				p.rows = removeRowAt(p.rows, i)
				co.topkInsert(p, ev.New)
				return true
			})
		}
		return nil
	}
}

// ---------- LinkQuery ----------

// buildLinkQueries derives the two lookups LinkQuery triggers run inside the
// firing statement: the target rows joined by a value, and the source values
// whose lists contain such a row (the reverse map through the relation
// table).
func (co *CachedObject) buildLinkQueries() {
	l := co.spec.Link
	co.linkTargetSQL = fmt.Sprintf("SELECT %s FROM %s WHERE %s = $1",
		strings.Join(co.model.FieldNames(), ", "), co.model.Table, l.TargetField)
	co.linkSourcesSQL = fmt.Sprintf("SELECT %s FROM %s WHERE %s = $1",
		l.SourceField, co.linkThrough.Table, l.JoinField)
}

// linkFetchTarget reads the target row(s) joined by joinVal, using the
// enclosing transaction so locks are shared.
func (co *CachedObject) linkFetchTarget(q sqldb.Queryer, joinVal sqldb.Value) ([]sqldb.Row, error) {
	rs, err := q.Query(co.linkTargetSQL, joinVal)
	if err != nil {
		return nil, err
	}
	return rs.Rows, nil
}

// linkSources finds the source values whose cached lists contain the target
// row joined by joinVal (reverse lookup through the relation table).
func (co *CachedObject) linkSources(q sqldb.Queryer, joinVal sqldb.Value) ([]sqldb.Value, error) {
	rs, err := q.Query(co.linkSourcesSQL, joinVal)
	if err != nil {
		return nil, err
	}
	out := make([]sqldb.Value, len(rs.Rows))
	for i, r := range rs.Rows {
		out[i] = r[0]
	}
	return out, nil
}

// targetFieldVal extracts the joined column from a target row.
func (co *CachedObject) targetFieldVal(row sqldb.Row) sqldb.Value {
	return row[co.targetIdx]
}

// linkThroughTrigger reacts to relation-table changes: a membership insert
// adds the joined target row to the source's cached list.
func (co *CachedObject) linkThroughTrigger(op sqldb.TriggerOp) triggerBody {
	addTo := func(ws *writeSet, q sqldb.Queryer, srcVal, joinVal sqldb.Value) error {
		key := co.MakeKey(srcVal)
		if co.spec.Strategy == Invalidate {
			ws.invalidate(co, key)
			return nil
		}
		// Fetch the joined target rows now; the enclosing statement's lock
		// keeps them stable until the flush.
		targets, err := co.linkFetchTarget(q, joinVal)
		if err != nil {
			return err
		}
		if len(targets) == 0 {
			return nil // dangling reference; nothing joins
		}
		ws.cas(co, key, func(p *payload) bool {
			p.rows = append(p.rows, targets...)
			return true
		})
		return nil
	}
	removeFrom := func(ws *writeSet, srcVal, joinVal sqldb.Value) {
		co.rowListEdit(ws, co.MakeKey(srcVal), func(p *payload) bool {
			for i, r := range p.rows {
				if sqldb.Equal(co.targetFieldVal(r), joinVal) {
					p.rows = removeRowAt(p.rows, i)
					return true
				}
			}
			return false
		})
	}

	return func(ws *writeSet, q sqldb.Queryer, ev sqldb.TriggerEvent) error {
		switch op {
		case sqldb.TrigInsert:
			return addTo(ws, q, ev.New[co.srcIdx], ev.New[co.joinIdx])
		case sqldb.TrigDelete:
			removeFrom(ws, ev.Old[co.srcIdx], ev.Old[co.joinIdx])
		case sqldb.TrigUpdate:
			oldSrc, newSrc := ev.Old[co.srcIdx], ev.New[co.srcIdx]
			oldJF, newJF := ev.Old[co.joinIdx], ev.New[co.joinIdx]
			if sqldb.Compare(oldSrc, newSrc) == 0 && sqldb.Compare(oldJF, newJF) == 0 {
				return nil
			}
			removeFrom(ws, oldSrc, oldJF)
			return addTo(ws, q, newSrc, newJF)
		}
		return nil
	}
}

// linkTargetTrigger reacts to target-table changes; it reverse-maps the row
// to affected source lists through the relation table.
func (co *CachedObject) linkTargetTrigger(op sqldb.TriggerOp) triggerBody {
	// forEachSource records fn against the list of every source joined to
	// joinVal.
	forEachSource := func(ws *writeSet, q sqldb.Queryer, joinVal sqldb.Value, fn func(p *payload) bool) error {
		sources, err := co.linkSources(q, joinVal)
		if err != nil {
			return err
		}
		seen := make(map[string]bool, len(sources))
		for _, src := range sources {
			key := co.MakeKey(src)
			if seen[key] {
				continue
			}
			seen[key] = true
			co.rowListEdit(ws, key, fn)
		}
		return nil
	}
	// A list holds a target row once per relation row that joins it to the
	// source, so edits by primary key touch every copy.
	replaceAll := func(row sqldb.Row) func(p *payload) bool {
		return func(p *payload) bool {
			changed := false
			for i, r := range p.rows {
				if rowPK(r) == rowPK(row) {
					p.rows[i] = row
					changed = true
				}
			}
			return changed
		}
	}
	removeAll := func(row sqldb.Row) func(p *payload) bool {
		return func(p *payload) bool {
			changed := false
			for i := len(p.rows) - 1; i >= 0; i-- {
				if rowPK(p.rows[i]) == rowPK(row) {
					p.rows = removeRowAt(p.rows, i)
					changed = true
				}
			}
			return changed
		}
	}
	return func(ws *writeSet, q sqldb.Queryer, ev sqldb.TriggerEvent) error {
		switch op {
		case sqldb.TrigInsert:
			// A fresh target row joins any pre-existing relation rows that
			// reference it (relation inserted before target).
			return forEachSource(ws, q, co.targetFieldVal(ev.New), appendRow(ev.New))
		case sqldb.TrigUpdate:
			oldJoin, newJoin := co.targetFieldVal(ev.Old), co.targetFieldVal(ev.New)
			if sqldb.Compare(oldJoin, newJoin) == 0 {
				return forEachSource(ws, q, newJoin, replaceAll(ev.New))
			}
			// The join column changed: the row leaves the lists of the
			// sources joined to the old value and enters those of the
			// sources joined to the new one.
			if err := forEachSource(ws, q, oldJoin, removeAll(ev.Old)); err != nil {
				return err
			}
			return forEachSource(ws, q, newJoin, appendRow(ev.New))
		case sqldb.TrigDelete:
			return forEachSource(ws, q, co.targetFieldVal(ev.Old), removeAll(ev.Old))
		}
		return nil
	}
}
