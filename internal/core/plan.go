package core

import (
	"fmt"
	"slices"
	"strings"

	"cachegenie/internal/kvcache"
	"cachegenie/internal/orm"
	"cachegenie/internal/rowlist"
	"cachegenie/internal/sqldb"
)

// plan is how a cached object maintains its entries from the rows of one
// table, as data: paper §3.2's per-class trigger generation. Cacheable
// compiles a Spec into one plan per table underlying the cached query, and
// each plan installs three triggers (INSERT/UPDATE/DELETE). One interpreter,
// fire, runs every one of them, recording the ops it emits in the firing
// statement's write-set (writeset.go).
//
// The same plan prints each trigger's listing (source), a program in the
// style of the paper's PL/Python listing whose ws.* calls are named after the
// op kinds it records, so a listing line and an op's trace read the same. The
// listings exist so that the paper's programmer-effort accounting (§5.2: 48
// triggers, ~1720 lines of generated trigger code for 14 cached objects) is
// measurable on this implementation, and so operators can audit what a cached
// object does; printed from what runs, they cannot drift from it.
type plan struct {
	co    *CachedObject
	model *orm.Model // the trigger table's
	// key holds the columns of a row that name its key. When via is set, the
	// row's keys are instead the sources via maps key's one column to: the
	// reverse map through the relation table, sorted and deduplicated.
	key []int
	via string
	// move holds the columns whose change moves a row between keys.
	move []int
	// fetch reads, by the row's fetchCol, the target rows an opAppend
	// appends.
	fetch    string
	fetchCol int
	// onInsert is emitted for a row that enters its keys, onRemove for one
	// that leaves them, and onStay, unless nil, for an UPDATE that moves
	// nothing.
	onInsert, onRemove emit
	onStay             *emit
}

// emit is what a plan records on each key of a row: an op of kind, adding
// delta when it is an opIncr.
type emit struct {
	kind  opKind
	delta int64
}

// compile builds the object's plans and the three triggers of each. The
// Invalidate strategy turns every emit into its key's deletion, which needs no
// fetch.
func (co *CachedObject) compile() {
	if co.spec.Strategy == Expiry {
		return
	}
	own := &plan{co: co, model: co.model, key: co.whereIdx, move: co.whereIdx,
		onInsert: emit{kind: opInsert}, onRemove: emit{kind: opRemove}, onStay: &emit{kind: opReplace}}
	co.plans = []*plan{own}
	switch l := co.spec.Link; co.spec.Class {
	case CountQuery:
		own.onInsert, own.onRemove, own.onStay = emit{kind: opIncr, delta: 1}, emit{kind: opIncr, delta: -1}, nil
	case LinkQuery:
		// A target row's keys are the sources the relation table joins it to;
		// a relation row names its source's key and appends what it joins.
		own.key, own.move = []int{co.targetIdx}, []int{co.targetIdx}
		own.via = fmt.Sprintf("SELECT %s FROM %s WHERE %s = $1", l.SourceField, co.linkThrough.Table, l.JoinField)
		through := &plan{co: co, model: co.linkThrough, key: co.whereIdx, move: []int{co.whereIdx[0], co.joinIdx},
			fetch: fmt.Sprintf("SELECT %s FROM %s WHERE %s = $1",
				strings.Join(co.model.FieldNames(), ", "), co.model.Table, l.TargetField),
			fetchCol: co.joinIdx, onInsert: emit{kind: opAppend}, onRemove: emit{kind: opUnlink}}
		co.plans = []*plan{through, own}
	}
	if co.spec.Strategy == Invalidate {
		del := emit{kind: opDelete}
		for _, p := range co.plans {
			p.onInsert, p.onRemove, p.fetch = del, del, ""
			if p.onStay != nil {
				p.onStay = &del
			}
		}
	}
	for _, p := range co.plans {
		fn := co.g.recording(p.fire)
		for _, op := range []sqldb.TriggerOp{sqldb.TrigInsert, sqldb.TrigUpdate, sqldb.TrigDelete} {
			co.triggers = append(co.triggers, sqldb.Trigger{Name: p.triggerName(op), Table: p.model.Table, Op: op,
				Fn: fn, Source: p.source(op), ReadsTables: p.reads(op)})
		}
	}
}

// installTriggers installs the object's triggers in the database engine. On
// failure it drops the ones it installed.
func (co *CachedObject) installTriggers() error {
	for i, tr := range co.triggers {
		if err := co.g.db.CreateTrigger(tr); err != nil {
			for _, done := range co.triggers[:i] {
				co.g.db.DropTrigger(done.Table, done.Name)
			}
			return fmt.Errorf("core: installing trigger %s: %w", tr.Name, err)
		}
	}
	return nil
}

func (p *plan) triggerName(op sqldb.TriggerOp) string {
	return fmt.Sprintf("cg_%s_%s_%s", p.co.spec.Name, p.model.Table,
		map[sqldb.TriggerOp]string{sqldb.TrigInsert: "ins", sqldb.TrigUpdate: "upd", sqldb.TrigDelete: "del"}[op])
}

// reads is the tables the trigger on op may query (ReadsTables): a reverse
// map's relation table, a fetch's target table, and for a top-K removal its own
// table, from which a list that used up its reserve is rebuilt.
func (p *plan) reads(op sqldb.TriggerOp) []string {
	switch {
	case p.via != "":
		return []string{p.co.linkThrough.Table}
	case p.fetch != "":
		return []string{p.co.model.Table}
	case op != sqldb.TrigInsert && p.onRemove.kind == opRemove && p.co.spec.Class == TopKQuery:
		return []string{p.model.Table}
	}
	return nil
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

// fire is the interpreter every trigger runs: it records p's emits for one
// row event in ws. An UPDATE that moves the row between keys is the old row's
// removal followed by the new row's insert.
func (p *plan) fire(ws *writeSet, q sqldb.Queryer, ev sqldb.TriggerEvent) error {
	switch {
	case ev.Op == sqldb.TrigInsert:
		return p.emit(ws, q, p.onInsert, nil, ev.New)
	case ev.Op == sqldb.TrigDelete:
		return p.emit(ws, q, p.onRemove, ev.Old, nil)
	case p.moved(ev.Old, ev.New):
		if err := p.emit(ws, q, p.onRemove, ev.Old, nil); err != nil {
			return err
		}
		return p.emit(ws, q, p.onInsert, nil, ev.New)
	case p.onStay != nil:
		return p.emit(ws, q, *p.onStay, ev.Old, ev.New)
	}
	return nil
}

// emit records e on every key of the row it is about: new, or old when there
// is no new. The fetch and the reverse map run through q, the firing
// statement's transaction, whose locks keep what they read stable until the
// flush.
func (p *plan) emit(ws *writeSet, q sqldb.Queryer, e emit, old, new sqldb.Row) error {
	row := new
	if row == nil {
		row = old
	}
	o := op{co: p.co, Op: rowlist.Op{Kind: e.kind, Old: old, New: new, Delta: e.delta}}
	if e.kind == opAppend {
		rs, err := q.Query(p.fetch, row[p.fetchCol])
		if err != nil {
			return err
		}
		if len(rs.Rows) == 0 {
			return nil // a dangling reference: nothing joins
		}
		o.Rows = rs.Rows
	}
	if p.via == "" {
		o.vals = p.keyVals(row)
		ws.ops = append(ws.ops, o)
		return nil
	}
	rs, err := q.Query(p.via, row[p.key[0]])
	if err != nil {
		return err
	}
	sources := rs.Rows
	slices.SortFunc(sources, func(a, b sqldb.Row) int { return sqldb.Compare(a[0], b[0]) })
	for i, src := range sources {
		if i == 0 || !sameValue(sources[i-1][0], src[0]) {
			o.vals = src[0:1:1]
			ws.ops = append(ws.ops, o)
		}
	}
	return nil
}

// keyVals returns the lookup values a row names by its own columns: a window
// of the row when there is one.
func (p *plan) keyVals(row sqldb.Row) []sqldb.Value {
	if i := p.key[0]; len(p.key) == 1 {
		return row[i : i+1 : i+1]
	}
	vals := make([]sqldb.Value, len(p.key))
	for i, c := range p.key {
		vals[i] = row[c]
	}
	return vals
}

// moved reports whether an UPDATE from old to new changes a move column as a
// key renders it.
func (p *plan) moved(old, new sqldb.Row) bool {
	for _, c := range p.move {
		if !sameValue(old[c], new[c]) {
			return true
		}
	}
	return false
}

// sameValue reports whether a and b render the same in a key.
func sameValue(a, b sqldb.Value) bool {
	var ba, bb [64]byte
	return string(appendKeyValue(ba[:0], a)) == string(appendKeyValue(bb[:0], b))
}

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

// source prints the trigger p installs on op.
func (p *plan) source(op sqldb.TriggerOp) string {
	co, table, names := p.co, p.model.Table, p.model.FieldNames()
	var b strings.Builder
	pr := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }
	pr("# -- generated by CacheGenie: do not edit --")
	pr("# cached object : %s (%s, strategy=%s)", co.spec.Name, co.spec.Class, co.spec.Strategy)
	pr("# trigger       : AFTER %s ON %s FOR EACH ROW", op, table)
	pr("# query template: %s", co.sql)
	pr("import memcache")
	pr("import cachegenie.runtime as cg")
	pr("")
	pr("SD = globals().setdefault('SD', {})")
	pr("if 'cache' not in SD:")
	pr("    # One connection per backend session; re-established on failure.")
	pr("    SD['cache'] = memcache.Client(cg.CACHE_SERVERS)")
	pr("cache = SD['cache']")
	pr("# Cache effects are recorded in the firing statement's write-set, which")
	pr("# flushes them in one batch per cache node when the statement ends; a")
	pr("# statement that fails flushes nothing.")
	pr("ws = cg.write_set(plpy, cache)")
	pr("old_row = trigger_data.get('old')")
	pr("new_row = trigger_data.get('new')")
	pr("if trigger_data['event'] != 'AFTER %s':", op)
	pr("    plpy.error('trigger %s fired for wrong event ' + trigger_data['event'])", p.triggerName(op))
	pr("if trigger_data['table'] != '%s':", table)
	pr("    plpy.error('trigger bound to wrong table ' + trigger_data['table'])")
	pr("")

	emits := map[sqldb.TriggerOp][]emit{sqldb.TrigInsert: {p.onInsert}, sqldb.TrigDelete: {p.onRemove},
		sqldb.TrigUpdate: {p.onRemove, p.onInsert}}[op]
	if op == sqldb.TrigUpdate && p.onStay != nil {
		emits = append(emits, *p.onStay)
	}
	edits := false
	for i, e := range emits {
		if i == 0 || e.kind != emits[i-1].kind {
			pr("# ws.%s %s.", e.kind, opNotes[e.kind])
		}
		edits = edits || batchKind(e.kind) == kvcache.BatchEdit
	}
	if edits {
		pr("# List edits are recorded, not sent one by one: the flush sends each edited")
		pr("# key its edits as one op, which the cache node applies in record order to")
		pr("# the list it holds; if the key is not cached (paper §3.2: 'If not present,")
		pr("# the trigger quits') nothing is stored. Nothing is read back or swapped.")
	}

	cols := func(row string, cs []int, sep string) string {
		s := make([]string, len(cs))
		for i, c := range cs {
			s[i] = fmt.Sprintf("%s['%s']", row, names[c])
		}
		return strings.Join(s, sep)
	}
	pr("def keys(row):")
	if p.via == "" {
		tail := "'}'" // the first value is the key's placement tag
		if len(p.key) > 1 {
			tail = "'}:' + str(" + cols("row", p.key[1:], ") + ':' + str(") + ")"
		}
		pr("    return ['cg:%s:{' + str(%s) + %s]", co.spec.Name, cols("row", p.key[:1], ""), tail)
	} else {
		pr("    # reverse map through %s: one key per distinct source", co.linkThrough.Table)
		pr("    sources = plpy.execute(%q, [%s])", p.via, cols("row", p.key, ""))
		pr("    return ['cg:%s:{' + str(v) + '}' for v in sorted(set(s['%s'] for s in sources))]",
			co.spec.Name, co.spec.Link.SourceField)
	}
	pr("")
	record := func(indent string, e emit, row string) {
		if e.kind == opAppend {
			pr("%srows = plpy.execute(%q, [%s])", indent, p.fetch, cols(row, []int{p.fetchCol}, ""))
			pr("%sif rows:  # else the reference dangles: nothing joins", indent)
			indent += "    "
		}
		args := map[opKind]string{opInsert: ", new=" + row, opRemove: ", old=" + row, opReplace: ", old=old_row, new=new_row",
			opAppend: ", rows=rows", opUnlink: ", old=" + row, opIncr: fmt.Sprintf(", delta=%+d", e.delta)}[e.kind]
		pr("%sfor key in keys(%s):", indent, row)
		pr("%s    ws.%s(key%s)", indent, e.kind, args)
	}
	switch op {
	case sqldb.TrigInsert:
		record("", p.onInsert, "new_row")
	case sqldb.TrigDelete:
		record("", p.onRemove, "old_row")
	default:
		moves := func(row string) string {
			if len(p.move) == 1 {
				return cols(row, p.move, "")
			}
			return "(" + cols(row, p.move, ", ") + ")"
		}
		pr("if %s != %s:", moves("old_row"), moves("new_row"))
		pr("    # The row moves between keys: the old row leaves, the new one enters.")
		record("    ", p.onRemove, "old_row")
		record("    ", p.onInsert, "new_row")
		if p.onStay != nil {
			pr("else:")
			record("    ", *p.onStay, "new_row")
		}
	}
	return b.String()
}
