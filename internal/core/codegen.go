package core

import (
	"fmt"
	"strings"

	"cachegenie/internal/sqldb"
)

// This file renders each generated trigger as a human-readable program in
// the style of the paper's PL/Python listing (§3.2). The engine executes the
// compiled Go closures in triggers.go, which record their cache effects in
// the firing statement's write-set (writeset.go) the way the listings'
// ws.* calls do; these listings exist so that the
// paper's programmer-effort accounting (§5.2: 48 triggers, ~1720 lines of
// generated trigger code for 14 cached objects) is measurable on this
// implementation, and so operators can audit what a cached object does.

// TriggerSourceLines counts the non-empty lines across an object's
// generated trigger sources.
func (co *CachedObject) TriggerSourceLines() int {
	n := 0
	for _, tr := range co.triggers {
		for _, line := range strings.Split(tr.Source, "\n") {
			if strings.TrimSpace(line) != "" {
				n++
			}
		}
	}
	return n
}

func (co *CachedObject) triggerSource(table string, op sqldb.TriggerOp) string {
	var b strings.Builder
	p := func(format string, args ...any) {
		fmt.Fprintf(&b, format+"\n", args...)
	}
	opName := map[sqldb.TriggerOp]string{
		sqldb.TrigInsert: "INSERT", sqldb.TrigUpdate: "UPDATE", sqldb.TrigDelete: "DELETE",
	}[op]

	p("# -- generated by CacheGenie: do not edit --")
	p("# cached object : %s (%s, strategy=%s)", co.spec.Name, co.spec.Class, co.spec.Strategy)
	p("# trigger       : AFTER %s ON %s FOR EACH ROW", opName, table)
	p("# query template: %s", co.sql)
	p("import memcache")
	p("import cachegenie.runtime as cg")
	p("")
	p("SD = globals().setdefault('SD', {})")
	p("if 'cache' not in SD:")
	p("    # One connection per backend session; re-established on failure.")
	p("    SD['cache'] = memcache.Client(cg.CACHE_SERVERS, cas=True)")
	p("cache = SD['cache']")
	p("# Cache effects are recorded in the firing statement's write-set, which")
	p("# flushes them in at most two batches per cache node when the statement")
	p("# ends; a statement that fails flushes nothing.")
	p("ws = cg.write_set(plpy, cache)")
	p("old_row = trigger_data.get('old')")
	p("new_row = trigger_data.get('new')")
	p("if trigger_data['event'] != 'AFTER %s':", opName)
	p("    plpy.error('trigger %s fired for wrong event ' + trigger_data['event'])",
		fmt.Sprintf("cg_%s_%s_%s", co.spec.Name, table, opSuffix(op)))
	p("if trigger_data['table'] != '%s':", table)
	p("    plpy.error('trigger bound to wrong table ' + trigger_data['table'])")
	p("")
	p("def key_values(row):")
	p("    # Lookup values of this cached object, in WhereFields order.")
	p("    return [row['%s']]", strings.Join(co.spec.WhereFields, "'], row['"))
	p("")

	keyExpr := func(rowVar string) string {
		parts := []string{fmt.Sprintf("'cg:%s'", co.spec.Name)}
		for _, f := range co.spec.WhereFields {
			parts = append(parts, fmt.Sprintf("str(%s['%s'])", rowVar, f))
		}
		return strings.Join(parts, " + ':' + ")
	}

	if co.spec.Strategy == Invalidate {
		switch op {
		case sqldb.TrigInsert:
			p("cache_key = %s", keyExpr("new_row"))
			p("ws.delete(cache_key)")
		case sqldb.TrigDelete:
			p("cache_key = %s", keyExpr("old_row"))
			p("ws.delete(cache_key)")
		case sqldb.TrigUpdate:
			p("old_key = %s", keyExpr("old_row"))
			p("new_key = %s", keyExpr("new_row"))
			p("ws.delete(old_key)")
			p("if new_key != old_key:")
			p("    ws.delete(new_key)")
		}
		if co.spec.Class == LinkQuery && table == co.model.Table {
			l := co.spec.Link
			p("# reverse-map the %s row to affected source lists; an UPDATE that", co.model.Table)
			p("# changed the join column affects the old sources and the new ones")
			p("for row in filter(None, (old_row, new_row)):")
			p("    rows = plpy.execute(\"SELECT %s FROM %s WHERE %s = $1\", [row['%s']])",
				l.SourceField, co.linkThrough.Table, l.JoinField, l.TargetField)
			p("    for r in rows:")
			p("        ws.delete('cg:%s:' + str(r['%s']))", co.spec.Name, l.SourceField)
		}
		return b.String()
	}

	switch co.spec.Class {
	case FeatureQuery:
		co.featureSource(p, keyExpr, op)
	case CountQuery:
		co.countSource(p, keyExpr, op)
	case TopKQuery:
		co.topkSource(p, keyExpr, op)
	case LinkQuery:
		co.linkSource(p, op, table)
	}
	return b.String()
}

type pf func(format string, args ...any)

// editListLines renders one in-place list edit: body holds the statements
// that change cached_rows.
func editListLines(p pf, body func()) {
	p("def edit(cached_rows):")
	body()
	p("    return cached_rows")
	p("# Recorded, not sent. The flush composes every edit the statement made to")
	p("# cache_key, reads the list and its token in the statement's one batch of")
	p("# gets, and, if the key was cached at all (paper §3.2: 'If not present, the")
	p("# trigger quits'), swaps the edited list in with the statement's one")
	p("# batch of cas. A cas answered CAS_EXISTS lost a race between the two")
	p("# batches: that key alone re-runs gets -> edit -> cas, up to %d times,", maxCasRetries)
	p("# and is then deleted, which is always safe.")
	p("ws.edit_list(cache_key, edit)")
}

func (co *CachedObject) featureSource(p pf, keyExpr func(string) string, op sqldb.TriggerOp) {
	switch op {
	case sqldb.TrigInsert:
		p("cache_key = %s", keyExpr("new_row"))
		editListLines(p, func() {
			p("    if new_row['id'] not in [r['id'] for r in cached_rows]:")
			p("        cached_rows.append(new_row)")
		})
	case sqldb.TrigDelete:
		p("cache_key = %s", keyExpr("old_row"))
		editListLines(p, func() {
			p("    cached_rows = [r for r in cached_rows if r['id'] != old_row['id']]")
		})
	case sqldb.TrigUpdate:
		p("old_key = %s", keyExpr("old_row"))
		p("new_key = %s", keyExpr("new_row"))
		p("if old_key == new_key:")
		p("    cache_key = new_key")
		editListLines(p, func() {
			p("    cached_rows = [new_row if r['id'] == new_row['id'] else r")
			p("                   for r in cached_rows]")
		})
		p("if old_key != new_key:")
		p("    remove_row_from_list(ws, old_key, old_row)")
		p("    append_row_to_list(ws, new_key, new_row)")
	}
}

func (co *CachedObject) countSource(p pf, keyExpr func(string) string, op sqldb.TriggerOp) {
	switch op {
	case sqldb.TrigInsert:
		p("cache_key = %s", keyExpr("new_row"))
		p("ws.incr(cache_key, 1)  # summed per key at flush; no-op when key is absent")
	case sqldb.TrigDelete:
		p("cache_key = %s", keyExpr("old_row"))
		p("ws.incr(cache_key, -1)")
	case sqldb.TrigUpdate:
		p("old_key = %s", keyExpr("old_row"))
		p("new_key = %s", keyExpr("new_row"))
		p("if old_key != new_key:")
		p("    ws.incr(old_key, -1)")
		p("    ws.incr(new_key, 1)")
	}
}

func (co *CachedObject) topkSource(p pf, keyExpr func(string) string, op sqldb.TriggerOp) {
	limit := co.spec.K + co.spec.reserve()
	cmp := "<"
	if co.spec.SortDesc {
		cmp = ">"
	}
	switch op {
	case sqldb.TrigInsert:
		p("cache_key = %s", keyExpr("new_row"))
		p("new_sort_val = new_row['%s']", co.spec.SortField)
		editListLines(p, func() {
			p("    insert_pos = 0")
			p("    for row in cached_rows:")
			p("        if new_sort_val %s row['%s']:", cmp, co.spec.SortField)
			p("            break")
			p("        insert_pos += 1")
			p("    cached_rows.insert(insert_pos, new_row)")
			p("    if len(cached_rows) > %d:  # K=%d plus reserve=%d", limit, co.spec.K, co.spec.reserve())
			p("        cached_rows.pop()")
		})
	case sqldb.TrigDelete:
		p("cache_key = %s", keyExpr("old_row"))
		editListLines(p, func() {
			p("    cached_rows = [r for r in cached_rows if r['id'] != old_row['id']]")
			p("    if len(cached_rows) < %d:  # reserve exhausted: recompute, at flush time", co.spec.K)
			p("        cached_rows = plpy.execute(QUERY_TEMPLATE, key_values(old_row))")
		})
	case sqldb.TrigUpdate:
		p("cache_key = %s", keyExpr("new_row"))
		editListLines(p, func() {
			p("    for i, row in enumerate(cached_rows):")
			p("        if row['id'] == new_row['id']:")
			p("            cached_rows[i] = new_row  # re-sort if sort field changed")
			p("    cached_rows.sort(key=lambda r: r['%s'], reverse=%v)",
				co.spec.SortField, co.spec.SortDesc)
		})
	}
}

func (co *CachedObject) linkSource(p pf, op sqldb.TriggerOp, table string) {
	l := co.spec.Link
	if table == co.linkThrough.Table {
		switch op {
		case sqldb.TrigInsert:
			p("cache_key = 'cg:%s:' + str(new_row['%s'])", co.spec.Name, l.SourceField)
			p("target = plpy.execute(\"SELECT * FROM %s WHERE %s = $1\", [new_row['%s']])",
				co.model.Table, l.TargetField, l.JoinField)
			editListLines(p, func() {
				p("    cached_rows.extend(target)")
			})
		case sqldb.TrigDelete:
			p("cache_key = 'cg:%s:' + str(old_row['%s'])", co.spec.Name, l.SourceField)
			editListLines(p, func() {
				p("    cached_rows = remove_first(cached_rows,")
				p("        lambda r: r['%s'] == old_row['%s'])", l.TargetField, l.JoinField)
			})
		case sqldb.TrigUpdate:
			p("if (old_row['%s'], old_row['%s']) != (new_row['%s'], new_row['%s']):",
				l.SourceField, l.JoinField, l.SourceField, l.JoinField)
			p("    remove_link(ws, old_row)")
			p("    add_link(ws, plpy, new_row)")
		}
		return
	}
	p("# reverse-map the %s row to affected source lists", co.model.Table)
	p("def source_keys(row):")
	p("    sources = plpy.execute(\"SELECT %s FROM %s WHERE %s = $1\", [row['%s']])",
		l.SourceField, co.linkThrough.Table, l.JoinField, l.TargetField)
	p("    return set('cg:%s:' + str(src['%s']) for src in sources)", co.spec.Name, l.SourceField)
	switch op {
	case sqldb.TrigInsert:
		p("for cache_key in source_keys(new_row):")
		p("    append_row_to_list(ws, cache_key, new_row)")
	case sqldb.TrigUpdate:
		p("if old_row['%s'] == new_row['%s']:", l.TargetField, l.TargetField)
		p("    for cache_key in source_keys(new_row):")
		p("        replace_row_in_list(ws, cache_key, new_row)")
		p("else:")
		p("    # The join column changed: the row leaves the old sources' lists")
		p("    # and enters the new sources'.")
		p("    for cache_key in source_keys(old_row):")
		p("        remove_row_from_list(ws, cache_key, old_row)")
		p("    for cache_key in source_keys(new_row):")
		p("        append_row_to_list(ws, cache_key, new_row)")
	case sqldb.TrigDelete:
		p("for cache_key in source_keys(old_row):")
		p("    remove_row_from_list(ws, cache_key, old_row)")
	}
}
