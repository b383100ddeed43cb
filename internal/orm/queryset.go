package orm

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"cachegenie/internal/sqldb"
)

// Filter is one normalized WHERE term: Field <Op> Value.
type Filter struct {
	Field string
	Op    string // "=", "!=", "<", "<=", ">", ">=", "in"
	Value sqldb.Value
	// List is set for Op == "in".
	List []sqldb.Value
}

// Order is one normalized ORDER BY term.
type Order struct {
	Field string
	Desc  bool
}

// Join describes a link-query traversal: the query's rows come from the
// model's table joined through another table. It models the Django pattern
// `Target.objects.filter(through__sourcefield=x)` that the paper's LinkQuery
// cache class captures (§3.1).
type Join struct {
	// ThroughModel is the relation table's model name.
	ThroughModel string
	// SourceField is the through-table column the filter applies to
	// (e.g. membership.user_id).
	SourceField string
	// JoinField is the through-table column joined to the target
	// (e.g. membership.group_id).
	JoinField string
	// TargetField is the target-model column being joined
	// (e.g. groups.id).
	TargetField string
}

// QueryKind distinguishes row queries from aggregate queries.
type QueryKind int

// Query kinds.
const (
	KindRows QueryKind = iota
	KindCount
)

// QueryDescriptor is the normalized form of a QuerySet execution offered to
// the interceptor. CacheGenie pattern-matches it against its cached-object
// specs.
type QueryDescriptor struct {
	Kind    QueryKind
	Model   *Model
	Filters []Filter
	Join    *Join
	Order   []Order
	Limit   int // -1 = none
	// Wave is the wave the query was declared in, nil for a query executed on
	// its own; WaveIndex is its position in Wave.Descriptors. An interceptor
	// that ignores both behaves exactly as it does for sequential queries.
	Wave      *Wave
	WaveIndex int
}

// EqFilterValues returns the values of equality filters on exactly the given
// fields (in that order), or ok=false if the descriptor's filters are not
// exactly those equality terms.
func (d *QueryDescriptor) EqFilterValues(fields []string) ([]sqldb.Value, bool) {
	return d.AppendEqFilterValues(nil, fields)
}

// AppendEqFilterValues is EqFilterValues appending to dst, so one buffer can
// hold the values of many descriptors; dst comes back unchanged with ok=false.
func (d *QueryDescriptor) AppendEqFilterValues(dst []sqldb.Value, fields []string) ([]sqldb.Value, bool) {
	if len(d.Filters) != len(fields) {
		return dst, false
	}
	out := slices.Grow(dst, len(fields))
	for _, f := range fields {
		found := false
		for _, flt := range d.Filters {
			if flt.Field == f && flt.Op == "=" {
				out = append(out, flt.Value)
				found = true
				break
			}
		}
		if !found {
			return dst, false
		}
	}
	return out, true
}

// Interceptor may satisfy reads from a cache. Implementations return
// handled=false to let the query proceed to the database.
type Interceptor interface {
	// InterceptRows may answer a row query.
	InterceptRows(d *QueryDescriptor) (rows []sqldb.Row, handled bool, err error)
	// InterceptCount may answer a count query.
	InterceptCount(d *QueryDescriptor) (n int64, handled bool, err error)
}

// QuerySet is a chainable, immutable-ish query builder. Methods return the
// receiver for chaining; build a fresh QuerySet per query (Django style).
type QuerySet struct {
	reg    *Registry
	err    error
	offset int
	// noCache bypasses the interceptor (the paper's manual opt-out for
	// queries needing strict consistency, §3.3).
	noCache bool
	// nf and no count the terms held in filterBuf and orderBuf.
	nf, no uint8
	// d is the query as the interceptor is offered it, less its Kind and
	// wave. Its Filters and Order stay nil while the terms fit in filterBuf
	// and orderBuf, so the one- and two-term queries almost every page issues
	// cost no allocation to build, and a QuerySet holds no pointer into
	// itself: one built and consumed in the same function stays on the stack.
	d         QueryDescriptor
	filterBuf [2]Filter
	orderBuf  [1]Order
}

// filters returns the WHERE terms.
func (q *QuerySet) filters() []Filter {
	if q.d.Filters != nil {
		return q.d.Filters
	}
	return q.filterBuf[:q.nf:q.nf]
}

// order returns the ORDER BY terms.
func (q *QuerySet) order() []Order {
	if q.d.Order != nil {
		return q.d.Order
	}
	return q.orderBuf[:q.no:q.no]
}

// addFilter appends one WHERE term.
func (q *QuerySet) addFilter(f Filter) { addTerm(&q.d.Filters, q.filterBuf[:], &q.nf, f) }

// addOrder appends one ORDER BY term.
func (q *QuerySet) addOrder(o Order) { addTerm(&q.d.Order, q.orderBuf[:], &q.no, o) }

// addTerm appends t to a QuerySet's terms of one kind: into buf while it has
// room, *n counting what it holds, then onto *spill, which starts as a copy of
// buf.
func addTerm[T any](spill *[]T, buf []T, n *uint8, t T) {
	switch {
	case *spill != nil:
		*spill = append(*spill, t)
	case int(*n) < len(buf):
		buf[*n] = t
		*n++
	default:
		*spill = append(append(make([]T, 0, 2*len(buf)), buf...), t)
	}
}

// Filter adds `field = value`.
func (q *QuerySet) Filter(field string, value any) *QuerySet {
	q.addFilter(Filter{Field: field, Op: "=", Value: V(value)})
	return q
}

// FilterOp adds `field <op> value` with op in =, !=, <, <=, >, >=.
func (q *QuerySet) FilterOp(field, op string, value any) *QuerySet {
	switch op {
	case "=", "!=", "<", "<=", ">", ">=":
	default:
		q.err = fmt.Errorf("orm: bad filter op %q", op)
	}
	q.addFilter(Filter{Field: field, Op: op, Value: V(value)})
	return q
}

// FilterIn adds `field IN (values...)`.
func (q *QuerySet) FilterIn(field string, values ...any) *QuerySet {
	list := make([]sqldb.Value, len(values))
	for i, v := range values {
		list[i] = V(v)
	}
	q.addFilter(Filter{Field: field, Op: "in", List: list})
	return q
}

// Via routes the query through a relation table (link query). See Join.
func (q *QuerySet) Via(throughModel, sourceField, joinField, targetField string) *QuerySet {
	q.d.Join = &Join{
		ThroughModel: throughModel,
		SourceField:  sourceField,
		JoinField:    joinField,
		TargetField:  targetField,
	}
	return q
}

// OrderBy adds ordering; prefix the field with "-" for descending
// (Django convention).
func (q *QuerySet) OrderBy(fields ...string) *QuerySet {
	for _, f := range fields {
		if strings.HasPrefix(f, "-") {
			q.addOrder(Order{Field: f[1:], Desc: true})
		} else {
			q.addOrder(Order{Field: f})
		}
	}
	return q
}

// Limit caps the result size.
func (q *QuerySet) Limit(n int) *QuerySet {
	q.d.Limit = n
	return q
}

// Offset skips the first n results.
func (q *QuerySet) Offset(n int) *QuerySet {
	q.offset = n
	return q
}

// NoCache bypasses the interceptor for this query, forcing a database read
// (strict-consistency opt-out).
func (q *QuerySet) NoCache() *QuerySet {
	q.noCache = true
	return q
}

// descriptor returns the descriptor a sequential execution as kind offers.
func (q *QuerySet) descriptor(kind QueryKind) *QueryDescriptor {
	d := q.d
	d.Kind, d.Filters, d.Order = kind, q.filters(), q.order()
	return &d
}

// buildSelect renders the QuerySet to SQL and args.
func (q *QuerySet) buildSelect(countOnly bool) (string, []sqldb.Value, error) {
	model, join, filters, order := q.d.Model, q.d.Join, q.filters(), q.order()
	var sb strings.Builder
	var args []sqldb.Value
	param := func(v sqldb.Value) string {
		args = append(args, v)
		return fmt.Sprintf("$%d", len(args))
	}
	sb.WriteString("SELECT ")
	if countOnly {
		sb.WriteString("COUNT(*)")
	} else {
		for i, c := range model.names {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(model.Table + "." + c)
		}
	}
	var throughTable string
	if join != nil {
		through, err := q.reg.Model(join.ThroughModel)
		if err != nil {
			return "", nil, err
		}
		throughTable = through.Table
		fmt.Fprintf(&sb, " FROM %s JOIN %s ON %s.%s = %s.%s",
			throughTable, model.Table,
			model.Table, join.TargetField,
			throughTable, join.JoinField)
	} else {
		sb.WriteString(" FROM " + model.Table)
	}
	if len(filters) > 0 {
		sb.WriteString(" WHERE ")
		for i, f := range filters {
			if i > 0 {
				sb.WriteString(" AND ")
			}
			// Filters qualify to the through table when a join is active and
			// the field belongs to it; otherwise to the model table.
			qualifier := model.Table
			if join != nil && q.fieldOnThrough(f.Field, throughTable) {
				qualifier = throughTable
			}
			if f.Op == "in" {
				ph := make([]string, len(f.List))
				for j, v := range f.List {
					ph[j] = param(v)
				}
				fmt.Fprintf(&sb, "%s.%s IN (%s)", qualifier, f.Field, strings.Join(ph, ", "))
			} else {
				fmt.Fprintf(&sb, "%s.%s %s %s", qualifier, f.Field, f.Op, param(f.Value))
			}
		}
	}
	if !countOnly && len(order) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, o := range order {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "%s.%s", model.Table, o.Field)
			if o.Desc {
				sb.WriteString(" DESC")
			}
		}
	}
	if !countOnly && q.d.Limit >= 0 {
		fmt.Fprintf(&sb, " LIMIT %d", q.d.Limit)
	}
	if !countOnly && q.offset > 0 {
		fmt.Fprintf(&sb, " OFFSET %d", q.offset)
	}
	return sb.String(), args, nil
}

// fieldOnThrough reports whether field belongs to the join's through model.
func (q *QuerySet) fieldOnThrough(field, throughTable string) bool {
	through, err := q.reg.Model(q.d.Join.ThroughModel)
	if err != nil {
		return false
	}
	_ = throughTable
	for _, f := range through.Fields {
		if f.Name == field {
			return true
		}
	}
	return field == "id"
}

// offered reports whether executing q as kind consults the interceptor.
func (q *QuerySet) offered(kind QueryKind) bool {
	return q.err == nil && q.reg.interceptor != nil && !q.noCache && (kind == KindCount || q.offset == 0)
}

// All executes the query and returns matching objects.
func (q *QuerySet) All() ([]Object, error) {
	rows, err := q.rows(q.offer(KindRows))
	if err != nil {
		return nil, err
	}
	return q.objects(make([]Object, len(rows)), rows), nil
}

// offer returns the descriptor a sequential execution as kind offers the
// interceptor, nil when it is not consulted.
func (q *QuerySet) offer(kind QueryKind) *QueryDescriptor {
	if !q.offered(kind) {
		return nil
	}
	return q.descriptor(kind)
}

// rows executes the query for its raw rows, offering d to the interceptor
// first (nil when it is not consulted); a Wave builds every descriptor
// before the first is offered.
func (q *QuerySet) rows(d *QueryDescriptor) ([]sqldb.Row, error) {
	if q.err != nil {
		return nil, q.err
	}
	if d != nil {
		rows, handled, err := q.reg.interceptor.InterceptRows(d)
		if err != nil || handled {
			return rows, err
		}
	}
	sql, args, err := q.buildSelect(false)
	if err != nil {
		return nil, err
	}
	rs, err := q.reg.conn.Query(sql, args...)
	if err != nil {
		return nil, err
	}
	return rs.Rows, nil
}

// objects views rows as the query's Objects, in dst (len(dst) == len(rows)).
func (q *QuerySet) objects(dst []Object, rows []sqldb.Row) []Object {
	for i, r := range rows {
		dst[i] = Object{model: q.d.Model, row: r}
	}
	return dst
}

// Get executes the query and returns exactly one object.
func (q *QuerySet) Get() (Object, error) {
	rows, err := q.rows(q.offer(KindRows))
	if err != nil {
		return Object{}, err
	}
	return q.one(rows)
}

// one is Get's cardinality rule.
func (q *QuerySet) one(rows []sqldb.Row) (Object, error) {
	switch len(rows) {
	case 0:
		return Object{}, ErrNotFound
	case 1:
		return Object{model: q.d.Model, row: rows[0]}, nil
	default:
		return Object{}, ErrMultiple
	}
}

// Count executes the query as COUNT(*).
func (q *QuerySet) Count() (int64, error) {
	return q.count(q.offer(KindCount))
}

// count is Count with the descriptor to offer already built; see rows.
func (q *QuerySet) count(d *QueryDescriptor) (int64, error) {
	if q.err != nil {
		return 0, q.err
	}
	if d != nil {
		n, handled, err := q.reg.interceptor.InterceptCount(d)
		if err != nil {
			return 0, err
		}
		if handled {
			return n, nil
		}
	}
	sql, args, err := q.buildSelect(true)
	if err != nil {
		return 0, err
	}
	rs, err := q.reg.conn.Query(sql, args...)
	if err != nil {
		return 0, err
	}
	return rs.Rows[0][0].I, nil
}

// Update applies the given fields to every matching row (writes always go
// to the database; triggers keep the cache consistent).
func (q *QuerySet) Update(fields Fields) (int, error) {
	if q.err != nil {
		return 0, q.err
	}
	if q.d.Join != nil {
		return 0, fmt.Errorf("orm: Update through a join is not supported")
	}
	var colBuf [8]string
	cols := sortedFields(colBuf[:0], fields)
	filters := q.filters()
	var shapeBuf [128]byte
	shape := appendWhereShape(appendNames(append(shapeBuf[:0], 'U'), cols), filters)
	sql := q.d.Model.text(shape, func() string {
		var sb strings.Builder
		fmt.Fprintf(&sb, "UPDATE %s SET ", q.d.Model.Table)
		for i, c := range cols {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "%s = $%d", c, i+1)
		}
		sb.WriteString(whereClause(filters, len(cols)))
		return sb.String()
	})
	// Room for an argument per filter; an IN list grows it.
	args := make([]sqldb.Value, len(cols), len(cols)+len(filters))
	for i, c := range cols {
		args[i] = V(fields[c])
	}
	res, err := q.reg.conn.Exec(sql, appendWhereArgs(args, filters)...)
	if err != nil {
		return 0, err
	}
	return res.RowsAffected, nil
}

// Delete removes every matching row.
func (q *QuerySet) Delete() (int, error) {
	if q.err != nil {
		return 0, q.err
	}
	if q.d.Join != nil {
		return 0, fmt.Errorf("orm: Delete through a join is not supported")
	}
	filters := q.filters()
	var shapeBuf [128]byte
	sql := q.d.Model.text(appendWhereShape(append(shapeBuf[:0], 'D'), filters), func() string {
		return "DELETE FROM " + q.d.Model.Table + whereClause(filters, 0)
	})
	res, err := q.reg.conn.Exec(sql, appendWhereArgs(nil, filters)...)
	if err != nil {
		return 0, err
	}
	return res.RowsAffected, nil
}

// appendWhereShape appends to a statement shape what whereClause's text
// depends on: each filter's field and operator, and an IN list's length.
func appendWhereShape(shape []byte, filters []Filter) []byte {
	shape = append(shape, " WHERE"...)
	for _, f := range filters {
		shape = append(append(append(append(shape, ' '), f.Field...), ' '), f.Op...)
		if f.Op == "in" {
			shape = strconv.AppendInt(append(shape, ' '), int64(len(f.List)), 10)
		}
	}
	return shape
}

// whereClause renders filters with parameters numbered from paramOffset+1.
func whereClause(filters []Filter, paramOffset int) string {
	if len(filters) == 0 {
		return ""
	}
	var sb strings.Builder
	n := paramOffset
	sb.WriteString(" WHERE ")
	for i, f := range filters {
		if i > 0 {
			sb.WriteString(" AND ")
		}
		if f.Op == "in" {
			ph := make([]string, len(f.List))
			for j := range f.List {
				n++
				ph[j] = fmt.Sprintf("$%d", n)
			}
			fmt.Fprintf(&sb, "%s IN (%s)", f.Field, strings.Join(ph, ", "))
		} else {
			n++
			fmt.Fprintf(&sb, "%s %s $%d", f.Field, f.Op, n)
		}
	}
	return sb.String()
}

// appendWhereArgs appends whereClause's parameters to args, in order.
func appendWhereArgs(args []sqldb.Value, filters []Filter) []sqldb.Value {
	for _, f := range filters {
		if f.Op == "in" {
			args = append(args, f.List...)
		} else {
			args = append(args, f.Value)
		}
	}
	return args
}
