package sqldb

import (
	"bytes"
	"fmt"
	"slices"
	"sort"

	"cachegenie/internal/sqlparse"
)

// execAST executes a parsed statement and then closes its statement scope
// (endStatement). A statement a trigger issues belongs to the scope of the
// statement that fired the trigger, so only the outermost one closes it.
func (tx *Txn) execAST(st sqlparse.Statement, args ...Value) (Result, error) {
	if err := tx.check(); err != nil {
		return Result{}, err
	}
	res, err := tx.execStatement(st, args)
	if tx.depth > 0 {
		return res, err
	}
	if err = tx.endStatement(err); err != nil {
		return Result{}, err
	}
	return res, nil
}

// execStatement routes a parsed statement to its executor.
func (tx *Txn) execStatement(st sqlparse.Statement, args []Value) (Result, error) {
	switch s := st.(type) {
	case *sqlparse.CreateTable:
		return Result{}, tx.createTable(s)
	case *sqlparse.CreateIndex:
		return Result{}, tx.createIndex(s)
	case *sqlparse.Insert:
		return tx.execInsert(s, args)
	case *sqlparse.Update:
		return tx.execUpdate(s, args)
	case *sqlparse.Delete:
		return tx.execDelete(s, args)
	case *sqlparse.Select:
		return Result{}, fmt.Errorf("sqldb: use Query for SELECT")
	}
	return Result{}, fmt.Errorf("sqldb: cannot execute %T", st)
}

func (db *DB) createTable(ct *sqlparse.CreateTable) (*Schema, error) {
	schema, err := schemaFromAST(ct)
	if err != nil {
		return nil, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.tables[schema.Table]; exists {
		return nil, fmt.Errorf("sqldb: table %q already exists", schema.Table)
	}
	db.tables[schema.Table] = newTable(schema, db.disk, db.pool)
	return schema, nil
}

func (tx *Txn) createTable(ct *sqlparse.CreateTable) error {
	schema, err := tx.db.createTable(ct)
	if err != nil {
		return err
	}
	// DDL is redo-logged as its canonical SQL text. (DDL is not undone by
	// Rollback — it never was — so it is only safe in autocommit form,
	// which is how every caller issues it.)
	tx.redoDDL(schema.String())
	return nil
}

// redoDDL logs a DDL statement's canonical text.
func (tx *Txn) redoDDL(sql string) {
	start := tx.beginRedo(recDDL, len(sql))
	tx.redo = append(tx.redo, sql...)
	tx.endRedo(start, nil)
}

// addIndexFromAST resolves and builds an index without locking; callers
// are the locked transaction path and single-threaded recovery.
func (db *DB) addIndexFromAST(ci *sqlparse.CreateIndex) error {
	t, err := db.table(ci.Table)
	if err != nil {
		return err
	}
	cols := make([]int, len(ci.Columns))
	for i, name := range ci.Columns {
		ci2 := t.schema.ColIndex(name)
		if ci2 < 0 {
			return fmt.Errorf("sqldb: index %s: no column %q in table %s", ci.Name, name, ci.Table)
		}
		cols[i] = ci2
	}
	for _, ix := range t.indexes {
		if ix.Name == ci.Name {
			return fmt.Errorf("sqldb: index %q already exists", ci.Name)
		}
	}
	return t.addIndex(&Index{Name: ci.Name, Cols: cols, Unique: ci.Unique})
}

func (tx *Txn) createIndex(ci *sqlparse.CreateIndex) error {
	if err := tx.lockTable(ci.Table, lockExclusive); err != nil {
		return err
	}
	if err := tx.db.addIndexFromAST(ci); err != nil {
		return err
	}
	tx.redoDDL(createIndexSQL(ci))
	return nil
}

// coerce converts v to column type ct where a safe conversion exists.
func coerce(v Value, ct Type) (Value, error) {
	if v.Null {
		return NullOf(ct), nil
	}
	if v.Type == ct {
		return v, nil
	}
	switch {
	case ct == TypeFloat && v.Type == TypeInt:
		return F64(float64(v.I)), nil
	case ct == TypeInt && v.Type == TypeFloat && v.F == float64(int64(v.F)):
		return I64(int64(v.F)), nil
	case ct == TypeTime && v.Type == TypeInt:
		return Value{Type: TypeTime, I: v.I}, nil
	case ct == TypeBool && v.Type == TypeInt && (v.I == 0 || v.I == 1):
		return Bool(v.I == 1), nil
	}
	return Value{}, fmt.Errorf("sqldb: cannot coerce %v value %s to %v", v.Type, v, ct)
}

// litValue converts an AST literal to a Value.
func litValue(l *sqlparse.Literal) Value {
	switch l.Kind {
	case "int":
		return I64(l.Int)
	case "float":
		return F64(l.Float)
	case "string":
		return Str(l.Str)
	case "bool":
		return Bool(l.Bool)
	default: // "null"
		return Value{Null: true}
	}
}

// evalScalar evaluates an expression outside a join context: literals,
// params, and (when row != nil) references to columns of schema with
// optional +/- arithmetic.
func evalScalar(e sqlparse.Expr, args []Value, schema *Schema, row Row) (Value, error) {
	switch {
	case e.Lit != nil:
		return litValue(e.Lit), nil
	case e.Param != 0:
		if e.Param > len(args) {
			return Value{}, fmt.Errorf("sqldb: statement references $%d but only %d args given", e.Param, len(args))
		}
		return args[e.Param-1], nil
	case e.Col != nil:
		if row == nil || schema == nil {
			return Value{}, fmt.Errorf("sqldb: column reference %s not allowed here", e.Col)
		}
		ci := schema.ColIndex(e.Col.Column)
		if ci < 0 {
			return Value{}, fmt.Errorf("sqldb: no column %q in table %s", e.Col.Column, schema.Table)
		}
		v := row[ci]
		if e.Op == 0 {
			return v, nil
		}
		var operand Value
		if e.OperandParam != 0 {
			if e.OperandParam > len(args) {
				return Value{}, fmt.Errorf("sqldb: statement references $%d but only %d args given", e.OperandParam, len(args))
			}
			operand = args[e.OperandParam-1]
		} else {
			operand = litValue(e.Operand)
		}
		if v.Null {
			return v, nil
		}
		switch {
		case v.Type == TypeInt && operand.Type == TypeInt:
			if e.Op == '+' {
				return I64(v.I + operand.I), nil
			}
			return I64(v.I - operand.I), nil
		case v.IsNumeric() && operand.IsNumeric():
			if e.Op == '+' {
				return F64(v.Numeric() + operand.Numeric()), nil
			}
			return F64(v.Numeric() - operand.Numeric()), nil
		}
		return Value{}, fmt.Errorf("sqldb: arithmetic on non-numeric column %s", e.Col)
	}
	return Value{}, fmt.Errorf("sqldb: empty expression")
}

// ---------- SELECT ----------

// env is the executor's join environment: tables joined so far and, per
// result row, one Row per table.
type env struct {
	names []string
	tabs  []*table
}

// resolve finds (tableIdx, colIdx) for a column reference.
func (e *env) resolve(ref sqlparse.ColumnRef) (int, int, error) {
	if ref.Table != "" {
		for ti, n := range e.names {
			if n == ref.Table {
				ci := e.tabs[ti].schema.ColIndex(ref.Column)
				if ci < 0 {
					return 0, 0, fmt.Errorf("sqldb: no column %q in table %s", ref.Column, n)
				}
				return ti, ci, nil
			}
		}
		return 0, 0, fmt.Errorf("sqldb: table %q not in FROM clause", ref.Table)
	}
	found := -1
	foundCol := -1
	for ti, t := range e.tabs {
		if ci := t.schema.ColIndex(ref.Column); ci >= 0 {
			if found >= 0 {
				return 0, 0, fmt.Errorf("sqldb: ambiguous column %q", ref.Column)
			}
			found, foundCol = ti, ci
		}
	}
	if found < 0 {
		return 0, 0, fmt.Errorf("sqldb: no column %q in any FROM table", ref.Column)
	}
	return found, foundCol, nil
}

// covers reports whether every table referenced by p resolves in e.
func (e *env) covers(p sqlparse.Predicate) bool {
	ok := true
	var walk func(sqlparse.Predicate)
	checkRef := func(ref sqlparse.ColumnRef) {
		if _, _, err := e.resolve(ref); err != nil {
			ok = false
		}
	}
	walk = func(p sqlparse.Predicate) {
		switch q := p.(type) {
		case *sqlparse.Compare:
			checkRef(q.Col)
			if q.Rhs.Col != nil {
				checkRef(*q.Rhs.Col)
			}
		case *sqlparse.In:
			checkRef(q.Col)
		case *sqlparse.IsNull:
			checkRef(q.Col)
		case *sqlparse.And:
			walk(q.L)
			walk(q.R)
		case *sqlparse.Or:
			walk(q.L)
			walk(q.R)
		}
	}
	walk(p)
	return ok
}

// evalPred evaluates predicate p over rows in environment e.
func (e *env) evalPred(p sqlparse.Predicate, rows []Row, args []Value) (bool, error) {
	switch q := p.(type) {
	case *sqlparse.Compare:
		ti, ci, err := e.resolve(q.Col)
		if err != nil {
			return false, err
		}
		lhs := rows[ti][ci]
		rhs, err := e.evalExpr(q.Rhs, rows, args)
		if err != nil {
			return false, err
		}
		if lhs.Null || rhs.Null {
			return false, nil
		}
		c := Compare(lhs, rhs)
		switch q.Op {
		case sqlparse.OpEq:
			return c == 0, nil
		case sqlparse.OpNeq:
			return c != 0, nil
		case sqlparse.OpLt:
			return c < 0, nil
		case sqlparse.OpLe:
			return c <= 0, nil
		case sqlparse.OpGt:
			return c > 0, nil
		case sqlparse.OpGe:
			return c >= 0, nil
		}
		return false, fmt.Errorf("sqldb: bad compare op")
	case *sqlparse.In:
		ti, ci, err := e.resolve(q.Col)
		if err != nil {
			return false, err
		}
		lhs := rows[ti][ci]
		if lhs.Null {
			return false, nil
		}
		for _, ex := range q.List {
			rhs, err := e.evalExpr(ex, rows, args)
			if err != nil {
				return false, err
			}
			if Equal(lhs, rhs) {
				return true, nil
			}
		}
		return false, nil
	case *sqlparse.IsNull:
		ti, ci, err := e.resolve(q.Col)
		if err != nil {
			return false, err
		}
		isNull := rows[ti][ci].Null
		if q.Not {
			return !isNull, nil
		}
		return isNull, nil
	case *sqlparse.And:
		l, err := e.evalPred(q.L, rows, args)
		if err != nil || !l {
			return false, err
		}
		return e.evalPred(q.R, rows, args)
	case *sqlparse.Or:
		l, err := e.evalPred(q.L, rows, args)
		if err != nil {
			return false, err
		}
		if l {
			return true, nil
		}
		return e.evalPred(q.R, rows, args)
	}
	return false, fmt.Errorf("sqldb: bad predicate %T", p)
}

func (e *env) evalExpr(ex sqlparse.Expr, rows []Row, args []Value) (Value, error) {
	switch {
	case ex.Lit != nil:
		return litValue(ex.Lit), nil
	case ex.Param != 0:
		if ex.Param > len(args) {
			return Value{}, fmt.Errorf("sqldb: statement references $%d but only %d args given", ex.Param, len(args))
		}
		return args[ex.Param-1], nil
	case ex.Col != nil:
		ti, ci, err := e.resolve(*ex.Col)
		if err != nil {
			return Value{}, err
		}
		return rows[ti][ci], nil
	}
	return Value{}, fmt.Errorf("sqldb: empty expression")
}

// appendConjuncts appends the terms of p's top-level AND tree to dst.
func appendConjuncts(dst []sqlparse.Predicate, p sqlparse.Predicate) []sqlparse.Predicate {
	if p == nil {
		return dst
	}
	if a, ok := p.(*sqlparse.And); ok {
		return appendConjuncts(appendConjuncts(dst, a.L), a.R)
	}
	return append(dst, p)
}

// planRoom is the stack space a statement plans in: a WHERE clause of up to
// four terms costs the planner no allocation.
type planRoom struct {
	conjuncts [4]sqlparse.Predicate
	eqs       [4]eqLookup
	vals      [4]Value
}

// eqLookup describes a resolvable equality `col = <literal/param>` on a
// specific table, used for index selection.
type eqLookup struct {
	colIdx int
	val    Value
}

// appendTableEqualities appends to eqs the equality conjuncts on the named
// table whose RHS is a literal or parameter.
func appendTableEqualities(eqs []eqLookup, cs []sqlparse.Predicate, tableName string, t *table, args []Value) ([]eqLookup, error) {
	for _, c := range cs {
		cmp, ok := c.(*sqlparse.Compare)
		if !ok || cmp.Op != sqlparse.OpEq {
			continue
		}
		if cmp.Col.Table != "" && cmp.Col.Table != tableName {
			continue
		}
		ci := t.schema.ColIndex(cmp.Col.Column)
		if ci < 0 {
			continue
		}
		if cmp.Rhs.Col != nil {
			continue
		}
		v, err := evalScalar(cmp.Rhs, args, nil, nil)
		if err != nil {
			return nil, err
		}
		cv, err := coerce(v, t.schema.Columns[ci].Type)
		if err != nil {
			// Type mismatch in a predicate is not an index-selection error;
			// the row-at-a-time evaluation will simply not match.
			continue
		}
		eqs = append(eqs, eqLookup{colIdx: ci, val: cv})
	}
	return eqs, nil
}

// pickAccessPath chooses the best index for the available equalities and
// appends the values of its leading columns to dst. Returns nil (full scan)
// when no index matches. PK equality is handled separately by the caller.
func pickAccessPath(dst []Value, t *table, eqs []eqLookup) (*Index, []Value) {
	var best *Index
	bestLen := 0
	for _, ix := range t.indexes {
		matched := 0
		for matched < len(ix.Cols) && eqOn(eqs, ix.Cols[matched]) >= 0 {
			matched++
		}
		if matched > bestLen {
			best, bestLen = ix, matched
		}
	}
	if best == nil {
		return nil, nil
	}
	for _, c := range best.Cols[:bestLen] {
		dst = append(dst, eqs[eqOn(eqs, c)].val)
	}
	return best, dst
}

// eqOn returns the position in eqs of the first equality on column col, or
// -1.
func eqOn(eqs []eqLookup, col int) int {
	for i, eq := range eqs {
		if eq.colIdx == col {
			return i
		}
	}
	return -1
}

// collect appends to b the candidate rows of table t (named name) given the
// WHERE conjuncts, using PK or index access when possible.
func (b *rowBuf) collect(name string, t *table, cs []sqlparse.Predicate, args []Value) error {
	var room planRoom
	eqs, err := appendTableEqualities(room.eqs[:0], cs, name, t, args)
	if err != nil {
		return err
	}
	for _, eq := range eqs {
		if eq.colIdx == t.schema.PKIndex && eq.val.Type == TypeInt && !eq.val.Null {
			_, err := b.fetch(t, eq.val.I)
			return err
		}
	}
	if ix, vals := pickAccessPath(room.vals[:0], t, eqs); ix != nil {
		return b.indexEq(t, ix, vals)
	}
	return b.scan(t)
}

// baseRows produces the candidate rows of table t (named name) given the
// WHERE conjuncts, decoded together.
func baseRows(name string, t *table, cs []sqlparse.Predicate, args []Value) ([]Row, error) {
	var b rowBuf
	if err := b.collect(name, t, cs, args); err != nil {
		return nil, err
	}
	return b.decode(len(t.schema.Columns))
}

// countByIndex answers a single-table COUNT(*) from an index alone, without
// reading a row. It applies only when every conjunct is `col = $n` or `col =
// literal` on its own column, not the PK and not FLOAT, with a non-NULL
// value already of the column's type, and the chosen index's leading columns
// are exactly those columns: then an entry whose key starts with the values'
// encoding is exactly a row the WHERE matches (a coerced value, a float or a
// second conjunct on one column could disagree). Otherwise ok is false and
// the caller takes the row path, which also reports any error.
func countByIndex(name string, t *table, cs []sqlparse.Predicate, args []Value) (n int64, ok bool) {
	var room planRoom
	eqs := room.eqs[:0]
	for _, c := range cs {
		cmp, isCmp := c.(*sqlparse.Compare)
		if !isCmp || cmp.Op != sqlparse.OpEq || cmp.Rhs.Col != nil || (cmp.Col.Table != "" && cmp.Col.Table != name) {
			return 0, false
		}
		ci := t.schema.ColIndex(cmp.Col.Column)
		if ci < 0 || ci == t.schema.PKIndex || eqOn(eqs, ci) >= 0 {
			return 0, false
		}
		v, err := evalScalar(cmp.Rhs, args, nil, nil)
		if err != nil || v.Null || v.Type != t.schema.Columns[ci].Type || v.Type == TypeFloat {
			return 0, false
		}
		eqs = append(eqs, eqLookup{colIdx: ci, val: v})
	}
	ix, vals := pickAccessPath(room.vals[:0], t, eqs)
	if ix == nil || len(vals) != len(eqs) {
		return 0, false
	}
	var keyBuf keyRoom
	prefix := appendPrefixKey(keyBuf[:0], vals)
	for it := ix.tree.Scan(prefix, nil); it.Valid() && bytes.HasPrefix(it.Key(), prefix); it.Next() {
		n++
	}
	return n, true
}

// lockSelect takes a shared lock on every table sel reads, in sorted order.
func (tx *Txn) lockSelect(sel *sqlparse.Select) error {
	if len(sel.Joins) == 0 {
		return tx.lockTable(sel.From, lockShared)
	}
	names := []string{sel.From}
	for _, j := range sel.Joins {
		names = append(names, j.Table)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := tx.lockTable(n, lockShared); err != nil {
			return err
		}
	}
	return nil
}

// querySelect executes a SELECT inside tx. Each table's matched records are
// collected raw and decoded together (rowBuf.decode), a join's tuples are
// capped windows of one []Row, and the projection fills one Value slab, so a
// statement allocates a fixed handful of times, not a few times per row.
func (tx *Txn) querySelect(sel *sqlparse.Select, args ...Value) (*ResultSet, error) {
	if err := tx.check(); err != nil {
		return nil, err
	}
	tx.db.chargeStatement()
	tx.db.statSelects.Add(1)
	if err := tx.lockSelect(sel); err != nil {
		return nil, err
	}

	base, err := tx.db.table(sel.From)
	if err != nil {
		return nil, err
	}
	var room planRoom
	cs := appendConjuncts(room.conjuncts[:0], sel.Where)
	if sel.CountStar && len(sel.Joins) == 0 && sel.Limit < 0 && sel.Offset == 0 {
		if n, ok := countByIndex(sel.From, base, cs, args); ok {
			return &ResultSet{Columns: []string{"count"}, Rows: []Row{{I64(n)}}}, nil
		}
	}
	applied := make([]bool, len(cs))

	e := &env{names: []string{sel.From}, tabs: []*table{base}}
	candidates, err := baseRows(sel.From, base, cs, args)
	if err != nil {
		return nil, err
	}
	tuples := make([][]Row, len(candidates))
	for i := range candidates {
		tuples[i] = candidates[i : i+1 : i+1]
	}
	// Apply every conjunct resolvable on the current env; repeated after
	// each join.
	filter := func() error {
		for i, c := range cs {
			if applied[i] || !e.covers(c) {
				continue
			}
			applied[i] = true
			kept := tuples[:0]
			for _, rows := range tuples {
				ok, err := e.evalPred(c, rows, args)
				if err != nil {
					return err
				}
				if ok {
					kept = append(kept, rows)
				}
			}
			tuples = kept
		}
		return nil
	}
	if err := filter(); err != nil {
		return nil, err
	}

	// Index-nested-loop joins.
	for _, j := range sel.Joins {
		jt, err := tx.db.table(j.Table)
		if err != nil {
			return nil, err
		}
		// Determine which side of ON references the new table.
		newSide, oldSide := j.Right, j.Left
		if j.Left.Table == j.Table {
			newSide, oldSide = j.Left, j.Right
		} else if j.Right.Table != j.Table {
			return nil, fmt.Errorf("sqldb: JOIN %s ON references neither side", j.Table)
		}
		oldTi, oldCi, err := e.resolve(oldSide)
		if err != nil {
			return nil, err
		}
		newCi := jt.schema.ColIndex(newSide.Column)
		if newCi < 0 {
			return nil, fmt.Errorf("sqldb: no column %q in table %s", newSide.Column, j.Table)
		}
		matchIx := jt.findIndex([]int{newCi})
		// inner collects every match; from[k] is the tuple match k extends.
		var (
			inner, whole rowBuf
			wholeRows    []Row // jt decoded, scanned once for an unindexed column
			from         []int
		)
		for ti, rows := range tuples {
			joinVal := rows[oldTi][oldCi]
			if joinVal.Null {
				continue
			}
			switch {
			case newCi == jt.schema.PKIndex && joinVal.Type == TypeInt:
				_, err = inner.fetch(jt, joinVal.I)
			case matchIx != nil:
				cv, cerr := coerce(joinVal, jt.schema.Columns[newCi].Type)
				if cerr != nil {
					continue
				}
				err = inner.indexEq(jt, matchIx, []Value{cv})
			default:
				if wholeRows == nil {
					if err = whole.scan(jt); err == nil {
						wholeRows, err = whole.decode(len(jt.schema.Columns))
					}
				}
				for k, r := range wholeRows {
					if Equal(r[newCi], joinVal) {
						inner.add(whole.record(k))
					}
				}
			}
			if err != nil {
				return nil, err
			}
			for len(from) < len(inner.ends) {
				from = append(from, ti)
			}
		}
		matches, err := inner.decode(len(jt.schema.Columns))
		if err != nil {
			return nil, err
		}
		w := len(e.tabs) + 1
		flat := make([]Row, len(matches)*w)
		joined := make([][]Row, len(matches))
		for k, r := range matches {
			t := flat[k*w : (k+1)*w : (k+1)*w]
			copy(t, tuples[from[k]])
			t[w-1] = r
			joined[k] = t
		}
		tuples = joined
		e.names = append(e.names, j.Table)
		e.tabs = append(e.tabs, jt)
		if err := filter(); err != nil {
			return nil, err
		}
	}
	for i, c := range cs {
		if !applied[i] {
			return nil, fmt.Errorf("sqldb: predicate %s references unknown tables/columns", c)
		}
	}

	// ORDER BY on the join environment.
	if len(sel.Order) > 0 {
		type sortKey struct {
			ti, ci int
			desc   bool
		}
		keys := make([]sortKey, len(sel.Order))
		for i, ob := range sel.Order {
			ti, ci, err := e.resolve(ob.Col)
			if err != nil {
				return nil, err
			}
			keys[i] = sortKey{ti, ci, ob.Desc}
		}
		slices.SortStableFunc(tuples, func(a, b []Row) int {
			for _, k := range keys {
				if c := Compare(a[k.ti][k.ci], b[k.ti][k.ci]); c != 0 {
					if k.desc {
						return -c
					}
					return c
				}
			}
			return 0
		})
	}

	// OFFSET / LIMIT.
	if sel.Offset > 0 {
		if sel.Offset >= len(tuples) {
			tuples = nil
		} else {
			tuples = tuples[sel.Offset:]
		}
	}
	if sel.Limit >= 0 && sel.Limit < len(tuples) {
		tuples = tuples[:sel.Limit]
	}

	// Projection, into one slab of len(tuples) capped windows.
	rs := &ResultSet{}
	if sel.CountStar {
		rs.Columns = []string{"count"}
		rs.Rows = []Row{{I64(int64(len(tuples)))}}
		return rs, nil
	}
	type proj struct{ ti, ci int }
	var projs []proj
	if sel.Star {
		for ti, t := range e.tabs {
			for ci, c := range t.schema.Columns {
				if len(e.tabs) > 1 {
					rs.Columns = append(rs.Columns, e.names[ti]+"."+c.Name)
				} else {
					rs.Columns = append(rs.Columns, c.Name)
				}
				projs = append(projs, proj{ti, ci})
			}
		}
	} else {
		projs = make([]proj, len(sel.Columns))
		rs.Columns = make([]string, len(sel.Columns))
		for i, cr := range sel.Columns {
			ti, ci, err := e.resolve(cr)
			if err != nil {
				return nil, err
			}
			projs[i] = proj{ti, ci}
			rs.Columns[i] = cr.Column
		}
	}
	if len(tuples) == 0 {
		return rs, nil
	}
	w := len(projs)
	slab := make([]Value, len(tuples)*w)
	rs.Rows = make([]Row, len(tuples))
	for i, rows := range tuples {
		out := slab[i*w : (i+1)*w : (i+1)*w]
		for k, p := range projs {
			out[k] = rows[p.ti][p.ci]
		}
		rs.Rows[i] = out
	}
	return rs, nil
}

// ---------- INSERT / UPDATE / DELETE ----------

func (tx *Txn) execInsert(ins *sqlparse.Insert, args []Value) (Result, error) {
	tx.db.chargeStatement()
	tx.db.statInserts.Add(1)
	t, err := tx.db.table(ins.Table)
	if err != nil {
		return Result{}, err
	}
	if err := tx.lockForWrite(ins.Table, TrigInsert); err != nil {
		return Result{}, err
	}
	row := make(Row, len(t.schema.Columns))
	for i, c := range t.schema.Columns {
		row[i] = NullOf(c.Type)
	}
	for i, colName := range ins.Columns {
		ci := t.schema.ColIndex(colName)
		if ci < 0 {
			return Result{}, fmt.Errorf("sqldb: no column %q in table %s", colName, ins.Table)
		}
		v, err := evalScalar(ins.Values[i], args, nil, nil)
		if err != nil {
			return Result{}, err
		}
		cv, err := coerce(v, t.schema.Columns[ci].Type)
		if err != nil {
			return Result{}, fmt.Errorf("sqldb: column %s.%s: %v", ins.Table, colName, err)
		}
		row[ci] = cv
	}
	t.assignPK(row)
	start := tx.beginRedo(recInsert, 2+len(ins.Table)+EncodedRowLen(row))
	tx.redo = appendTableName(tx.redo, ins.Table)
	tx.redo, err = t.insertRaw(tx.redo, row)
	tx.endRedo(start, err)
	if err != nil {
		return Result{}, err
	}
	tx.undo = append(tx.undo, undoRec{tbl: t, op: TrigInsert, new: row})
	ev := TriggerEvent{Table: ins.Table, Op: TrigInsert, Schema: t.schema, New: row}
	if err := tx.db.fireTriggers(tx, ev); err != nil {
		return Result{}, err
	}
	res := Result{RowsAffected: 1, LastInsertID: row[t.schema.PKIndex].I}
	if len(ins.Returning) > 0 {
		out := make([]Value, len(ins.Returning))
		for i, colName := range ins.Returning {
			ci := t.schema.ColIndex(colName)
			if ci < 0 {
				return Result{}, fmt.Errorf("sqldb: RETURNING: no column %q", colName)
			}
			out[i] = row[ci]
		}
		res.Returning = [][]Value{out}
	}
	return res, nil
}

// matchSingleTable evaluates a single-table WHERE and returns matching rows.
func (tx *Txn) matchSingleTable(name string, t *table, where sqlparse.Predicate, args []Value) ([]Row, error) {
	var room planRoom
	rows, err := baseRows(name, t, appendConjuncts(room.conjuncts[:0], where), args)
	if err != nil || where == nil {
		return rows, err
	}
	e := &env{names: []string{name}, tabs: []*table{t}}
	kept := rows[:0]
	for i, r := range rows {
		ok, err := e.evalPred(where, rows[i:i+1], args)
		if err != nil {
			return nil, err
		}
		if ok {
			kept = append(kept, r)
		}
	}
	return kept, nil
}

func (tx *Txn) execUpdate(up *sqlparse.Update, args []Value) (Result, error) {
	tx.db.chargeStatement()
	tx.db.statUpdates.Add(1)
	t, err := tx.db.table(up.Table)
	if err != nil {
		return Result{}, err
	}
	if err := tx.lockForWrite(up.Table, TrigUpdate); err != nil {
		return Result{}, err
	}
	matches, err := tx.matchSingleTable(up.Table, t, up.Where, args)
	if err != nil {
		return Result{}, err
	}
	// The new rows are windows of one array, as the matches are.
	width := len(t.schema.Columns)
	fresh := make([]Value, len(matches)*width)
	tx.undo = slices.Grow(tx.undo, len(matches))
	for i, old := range matches {
		newRow := Row(fresh[i*width : (i+1)*width : (i+1)*width])
		copy(newRow, old)
		for _, a := range up.Set {
			ci := t.schema.ColIndex(a.Column)
			if ci < 0 {
				return Result{}, fmt.Errorf("sqldb: no column %q in table %s", a.Column, up.Table)
			}
			v, err := evalScalar(a.Value, args, t.schema, old)
			if err != nil {
				return Result{}, err
			}
			cv, err := coerce(v, t.schema.Columns[ci].Type)
			if err != nil {
				return Result{}, fmt.Errorf("sqldb: column %s.%s: %v", up.Table, a.Column, err)
			}
			newRow[ci] = cv
		}
		start := tx.beginRedo(recUpdate, 2+len(up.Table)+EncodedRowLen(newRow))
		tx.redo = appendTableName(tx.redo, up.Table)
		tx.redo, err = t.updateRaw(tx.redo, old, newRow)
		tx.endRedo(start, err)
		if err != nil {
			return Result{}, err
		}
		tx.undo = append(tx.undo, undoRec{tbl: t, op: TrigUpdate, old: old, new: newRow})
		ev := TriggerEvent{Table: up.Table, Op: TrigUpdate, Schema: t.schema, Old: old, New: newRow}
		if err := tx.db.fireTriggers(tx, ev); err != nil {
			return Result{}, err
		}
	}
	return Result{RowsAffected: len(matches)}, nil
}

func (tx *Txn) execDelete(del *sqlparse.Delete, args []Value) (Result, error) {
	tx.db.chargeStatement()
	tx.db.statDeletes.Add(1)
	t, err := tx.db.table(del.Table)
	if err != nil {
		return Result{}, err
	}
	if err := tx.lockForWrite(del.Table, TrigDelete); err != nil {
		return Result{}, err
	}
	matches, err := tx.matchSingleTable(del.Table, t, del.Where, args)
	if err != nil {
		return Result{}, err
	}
	tx.undo = slices.Grow(tx.undo, len(matches))
	for _, old := range matches {
		start := tx.beginRedo(recDelete, 2+len(del.Table)+8)
		tx.redo = appendU64(appendTableName(tx.redo, del.Table), uint64(old[t.schema.PKIndex].I))
		err := t.deleteRaw(old)
		tx.endRedo(start, err)
		if err != nil {
			return Result{}, err
		}
		tx.undo = append(tx.undo, undoRec{tbl: t, op: TrigDelete, old: old})
		ev := TriggerEvent{Table: del.Table, Op: TrigDelete, Schema: t.schema, Old: old}
		if err := tx.db.fireTriggers(tx, ev); err != nil {
			return Result{}, err
		}
	}
	return Result{RowsAffected: len(matches)}, nil
}
