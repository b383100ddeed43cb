package core

import (
	"fmt"
	"slices"
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
			mk(t, sqldb.TrigInsert, co.listTrigger(sqldb.TrigInsert)),
			mk(t, sqldb.TrigUpdate, co.listTrigger(sqldb.TrigUpdate)),
			mk(t, sqldb.TrigDelete, co.listTrigger(sqldb.TrigDelete)),
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
			mk(t, sqldb.TrigInsert, co.listTrigger(sqldb.TrigInsert)),
			mk(t, sqldb.TrigUpdate, co.listTrigger(sqldb.TrigUpdate), t),
			mk(t, sqldb.TrigDelete, co.listTrigger(sqldb.TrigDelete), t),
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

// keyVals returns the lookup values of the list a main-model row belongs
// to: a window of the row when the object has one lookup field.
func (co *CachedObject) keyVals(row sqldb.Row) []sqldb.Value {
	if len(co.whereIdx) == 1 {
		i := co.whereIdx[0]
		return row[i : i+1 : i+1]
	}
	vals := make([]sqldb.Value, len(co.whereIdx))
	for i, ci := range co.whereIdx {
		vals[i] = row[ci]
	}
	return vals
}

// sameKey reports whether lookup values a and b name one key.
func (co *CachedObject) sameKey(a, b []sqldb.Value) bool {
	var ka, kb [128]byte
	return string(co.appendKey(ka[:0], a)) == string(co.appendKey(kb[:0], b))
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

// ---------- FeatureQuery and TopKQuery ----------

// listTrigger keeps "rows of M where WhereFields = vals" lists in sync, the
// feature query's and the top-K query's alike: the ops differ by class only
// in how they apply (op.apply). A row that changes lists leaves the old one
// and joins the new; one that stays is replaced in place.
func (co *CachedObject) listTrigger(trig sqldb.TriggerOp) triggerBody {
	return func(ws *writeSet, _ sqldb.Queryer, ev sqldb.TriggerEvent) error {
		switch trig {
		case sqldb.TrigInsert:
			ws.record(op{co: co, kind: opInsert, vals: co.keyVals(ev.New), new: ev.New})
		case sqldb.TrigDelete:
			ws.record(op{co: co, kind: opRemove, vals: co.keyVals(ev.Old), old: ev.Old})
		case sqldb.TrigUpdate:
			oldVals, newVals := co.keyVals(ev.Old), co.keyVals(ev.New)
			if !co.sameKey(oldVals, newVals) {
				ws.record(op{co: co, kind: opRemove, vals: oldVals, old: ev.Old})
				ws.record(op{co: co, kind: opInsert, vals: newVals, new: ev.New})
				return nil
			}
			ws.record(op{co: co, kind: opReplace, vals: newVals, old: ev.Old, new: ev.New})
		}
		return nil
	}
}

// ---------- CountQuery ----------

// countTrigger maintains COUNT(*) entries with atomic increments.
func (co *CachedObject) countTrigger(trig sqldb.TriggerOp) triggerBody {
	bump := func(ws *writeSet, vals []sqldb.Value, delta int64) {
		ws.record(op{co: co, kind: opIncr, vals: vals, delta: delta})
	}
	return func(ws *writeSet, _ sqldb.Queryer, ev sqldb.TriggerEvent) error {
		switch trig {
		case sqldb.TrigInsert:
			bump(ws, co.keyVals(ev.New), 1)
		case sqldb.TrigDelete:
			bump(ws, co.keyVals(ev.Old), -1)
		case sqldb.TrigUpdate:
			oldVals, newVals := co.keyVals(ev.Old), co.keyVals(ev.New)
			if !co.sameKey(oldVals, newVals) {
				bump(ws, oldVals, -1)
				bump(ws, newVals, 1)
			}
		}
		return nil
	}
}

// ---------- TopKQuery ----------

// sortBefore orders a before b per the spec's sort direction. Ties keep
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

// topkInsert inserts row into the ordered list, returning whether the
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

// targetFieldVal extracts the joined column from a target row.
func (co *CachedObject) targetFieldVal(row sqldb.Row) sqldb.Value {
	return row[co.targetIdx]
}

// linkThroughTrigger reacts to relation-table changes: a membership insert
// adds the joined target rows to the source's cached list, a removal takes
// one out. rel is a relation row; its source field is the list's lookup
// value.
func (co *CachedObject) linkThroughTrigger(trig sqldb.TriggerOp) triggerBody {
	srcVals := func(rel sqldb.Row) []sqldb.Value { return rel[co.srcIdx : co.srcIdx+1 : co.srcIdx+1] }
	addTo := func(ws *writeSet, q sqldb.Queryer, rel sqldb.Row) error {
		if co.spec.Strategy == Invalidate {
			ws.record(op{co: co, kind: opDelete, vals: srcVals(rel)})
			return nil
		}
		// Fetch the joined target rows now; the enclosing statement's lock
		// keeps them stable until the flush.
		targets, err := co.linkFetchTarget(q, rel[co.joinIdx])
		if err != nil {
			return err
		}
		if len(targets) == 0 {
			return nil // dangling reference; nothing joins
		}
		ws.record(op{co: co, kind: opAppend, vals: srcVals(rel), rows: targets})
		return nil
	}
	return func(ws *writeSet, q sqldb.Queryer, ev sqldb.TriggerEvent) error {
		switch trig {
		case sqldb.TrigInsert:
			return addTo(ws, q, ev.New)
		case sqldb.TrigDelete:
			ws.record(op{co: co, kind: opUnlink, vals: srcVals(ev.Old), old: ev.Old})
		case sqldb.TrigUpdate:
			oldSrc, newSrc := ev.Old[co.srcIdx], ev.New[co.srcIdx]
			oldJF, newJF := ev.Old[co.joinIdx], ev.New[co.joinIdx]
			if sqldb.Compare(oldSrc, newSrc) == 0 && sqldb.Compare(oldJF, newJF) == 0 {
				return nil
			}
			ws.record(op{co: co, kind: opUnlink, vals: srcVals(ev.Old), old: ev.Old})
			return addTo(ws, q, ev.New)
		}
		return nil
	}
}

// linkTargetTrigger reacts to target-table changes; it reverse-maps the row
// to affected source lists through the relation table.
func (co *CachedObject) linkTargetTrigger(trig sqldb.TriggerOp) triggerBody {
	// forEachSource records o against the list of every source joined to
	// joinVal, once per source however many relation rows join them.
	forEachSource := func(ws *writeSet, q sqldb.Queryer, joinVal sqldb.Value, o op) error {
		rs, err := q.Query(co.linkSourcesSQL, joinVal)
		if err != nil {
			return err
		}
		sources := rs.Rows
		slices.SortFunc(sources, func(a, b sqldb.Row) int { return sqldb.Compare(a[0], b[0]) })
		for i, src := range sources {
			o.vals = src[0:1:1]
			if i > 0 && co.sameKey(sources[i-1][0:1], o.vals) {
				continue
			}
			ws.record(o)
		}
		return nil
	}
	return func(ws *writeSet, q sqldb.Queryer, ev sqldb.TriggerEvent) error {
		switch trig {
		case sqldb.TrigInsert:
			// A fresh target row joins any pre-existing relation rows that
			// reference it (relation inserted before target).
			return forEachSource(ws, q, co.targetFieldVal(ev.New), op{co: co, kind: opInsert, new: ev.New})
		case sqldb.TrigUpdate:
			oldJoin, newJoin := co.targetFieldVal(ev.Old), co.targetFieldVal(ev.New)
			if sqldb.Compare(oldJoin, newJoin) == 0 {
				return forEachSource(ws, q, newJoin, op{co: co, kind: opReplace, old: ev.Old, new: ev.New})
			}
			// The join column changed: the row leaves the lists of the
			// sources joined to the old value and enters those of the
			// sources joined to the new one.
			if err := forEachSource(ws, q, oldJoin, op{co: co, kind: opRemove, old: ev.Old}); err != nil {
				return err
			}
			return forEachSource(ws, q, newJoin, op{co: co, kind: opInsert, new: ev.New})
		case sqldb.TrigDelete:
			return forEachSource(ws, q, co.targetFieldVal(ev.Old), op{co: co, kind: opRemove, old: ev.Old})
		}
		return nil
	}
}
