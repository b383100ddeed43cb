// Package orm is a Django-flavoured object-relational mapper over the sqldb
// engine: models are registered with field and relation metadata, reads go
// through chainable QuerySets (Filter/OrderBy/Limit/Count), and writes go
// through Insert/Update/Delete.
//
// The package's load-bearing feature for CacheGenie is the read-interception
// hook: every QuerySet execution first offers a normalized QueryDescriptor
// to the registered Interceptor, which may answer it from the cache instead
// of the database (paper §3.1 — "CacheGenie operates as a layer underneath
// the application, modifying the queries issued by the ORM system to the
// database, redirecting them to the cache when possible").
//
// # Waves
//
// A page is rarely a dozen independent lookups: it is two or three dependency
// waves — everything it can ask knowing only who is signed in, then the
// details keyed by the rows that came back. A handler that says so lets the
// interceptor fetch each wave from the cache tier in one exchange per node
// instead of one per query:
//
//	w := reg.Wave()
//	user := w.Get(reg.Objects("User").Filter("id", uid))
//	profile := w.OneOrNone(reg.Objects("Profile").Filter("user_id", uid)) // nil if none
//	posts := w.All(reg.Objects("WallPost").Filter("user_id", uid))
//	friends := w.Count(reg.Objects("Friendship").Filter("from_user_id", uid))
//	if err := w.Run(); err != nil { ... }
//	// *user, *profile, *posts, *friends
//
// Run executes the queries in declaration order, each exactly as its QuerySet
// method would: offered to the interceptor, sent to the database if
// unanswered, the first error ending the wave. The sequential QuerySet API is
// unchanged, and a handler that declares nothing behaves as it always has.
//
// The wave reaches the interceptor on the descriptors, not through a new
// method. Every QueryDescriptor of a wave points at its Wave, which lists all
// the sibling descriptors the interceptor is going to be offered — complete
// before the first offer — and has one State slot the interceptor owns.
// CacheGenie, on the first descriptor, resolves every sibling to its cache
// key, reads all the keys as one batch, and parks the answers in State; each
// descriptor, first or later, then takes its parked answer where it would
// have made its own cache read.
//
// Decorator contract. An Interceptor that wraps another (a tracer, a counter,
// a test double) stays transparent by doing what it already does: forward
// InterceptRows and InterceptCount with the descriptor it was given. It sees
// every query of every wave, one call each, in order; it needs no new method
// and no knowledge of waves. One that forwards a copy of the descriptor, or
// clears Wave, or leaves queries out, merely turns batching off for the
// queries affected: an interceptor must treat a descriptor whose wave it
// cannot make sense of as a sequential query, and CacheGenie does.
package orm

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"cachegenie/internal/sqldb"
)

// Conn abstracts the database connection; both *sqldb.DB (embedded) and the
// dbproto client (networked) satisfy it.
type Conn interface {
	Exec(sql string, args ...sqldb.Value) (sqldb.Result, error)
	Query(sql string, args ...sqldb.Value) (*sqldb.ResultSet, error)
}

// FieldDef declares one model field.
type FieldDef struct {
	Name    string
	Type    sqldb.Type
	NotNull bool
}

// ModelDef declares a model at registration time.
type ModelDef struct {
	// Name is the model's logical name (e.g. "Profile").
	Name string
	// Table is the backing table name (e.g. "profiles").
	Table string
	// Fields lists the model's fields; an integer "id" primary key is
	// implicit and must not be declared.
	Fields []FieldDef
	// Indexes lists secondary indexes, one column list per index.
	Indexes [][]string
	// Unique lists unique indexes.
	Unique [][]string
}

// Model is registered model metadata.
type Model struct {
	Name   string
	Table  string
	Fields []FieldDef
}

// FieldNames returns "id" plus the declared fields, in schema order.
func (m *Model) FieldNames() []string {
	out := make([]string, 0, len(m.Fields)+1)
	out = append(out, "id")
	for _, f := range m.Fields {
		out = append(out, f.Name)
	}
	return out
}

// Object is one materialized model instance: field name -> value.
type Object map[string]sqldb.Value

// ID returns the object's primary key.
func (o Object) ID() int64 { return o["id"].I }

// Int returns field as int64 (0 when NULL/absent).
func (o Object) Int(field string) int64 { return o[field].I }

// Str returns field as string.
func (o Object) Str(field string) string { return o[field].S }

// Bool returns field as bool.
func (o Object) Bool(field string) bool { return o[field].AsBool() }

// Time returns field as time.Time.
func (o Object) Time(field string) time.Time { return o[field].AsTime() }

// Fields is the write-side value bag for Insert/Update.
type Fields map[string]any

// V converts a Go value to a sqldb.Value.
func V(x any) sqldb.Value {
	switch v := x.(type) {
	case nil:
		return sqldb.Value{Null: true}
	case sqldb.Value:
		return v
	case int:
		return sqldb.I64(int64(v))
	case int32:
		return sqldb.I64(int64(v))
	case int64:
		return sqldb.I64(v)
	case float64:
		return sqldb.F64(v)
	case string:
		return sqldb.Str(v)
	case bool:
		return sqldb.Bool(v)
	case time.Time:
		return sqldb.Time(v)
	}
	panic(fmt.Sprintf("orm: unsupported value type %T", x))
}

// ErrNotFound is returned by Get when no row matches.
var ErrNotFound = errors.New("orm: object not found")

// ErrMultiple is returned by Get when more than one row matches.
var ErrMultiple = errors.New("orm: multiple objects returned")

// Registry holds models and the connection, and dispatches reads through
// the interceptor.
type Registry struct {
	conn        Conn
	models      map[string]*Model
	defs        map[string]*ModelDef
	interceptor Interceptor
}

// NewRegistry creates a registry over conn.
func NewRegistry(conn Conn) *Registry {
	return &Registry{
		conn:   conn,
		models: make(map[string]*Model),
		defs:   make(map[string]*ModelDef),
	}
}

// Conn returns the underlying connection.
func (r *Registry) Conn() Conn { return r.conn }

// SetInterceptor installs the read interceptor (CacheGenie). Passing nil
// removes it.
func (r *Registry) SetInterceptor(i Interceptor) { r.interceptor = i }

// Register adds a model definition.
func (r *Registry) Register(def *ModelDef) error {
	if def.Name == "" || def.Table == "" {
		return errors.New("orm: model needs Name and Table")
	}
	if _, dup := r.models[def.Name]; dup {
		return fmt.Errorf("orm: model %q already registered", def.Name)
	}
	for _, f := range def.Fields {
		if f.Name == "id" {
			return fmt.Errorf("orm: model %q declares reserved field id", def.Name)
		}
	}
	m := &Model{Name: def.Name, Table: def.Table, Fields: def.Fields}
	r.models[def.Name] = m
	r.defs[def.Name] = def
	return nil
}

// MustRegister is Register that panics on error (init-time convenience).
func (r *Registry) MustRegister(def *ModelDef) {
	if err := r.Register(def); err != nil {
		panic(err)
	}
}

// Model returns registered metadata by name.
func (r *Registry) Model(name string) (*Model, error) {
	m, ok := r.models[name]
	if !ok {
		return nil, fmt.Errorf("orm: unknown model %q", name)
	}
	return m, nil
}

// ModelNames lists registered models, sorted.
func (r *Registry) ModelNames() []string {
	names := make([]string, 0, len(r.models))
	for n := range r.models {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CreateTables issues CREATE TABLE / CREATE INDEX for every registered
// model, in registration-independent (sorted) order.
func (r *Registry) CreateTables() error {
	for _, name := range r.ModelNames() {
		def := r.defs[name]
		var cols []string
		for _, f := range def.Fields {
			c := f.Name + " " + f.Type.String()
			if f.NotNull {
				c += " NOT NULL"
			}
			cols = append(cols, c)
		}
		sql := fmt.Sprintf("CREATE TABLE %s (%s)", def.Table, strings.Join(cols, ", "))
		if _, err := r.conn.Exec(sql); err != nil {
			return fmt.Errorf("orm: creating %s: %w", def.Table, err)
		}
		mkIndex := func(cols []string, unique bool) error {
			kw := "INDEX"
			if unique {
				kw = "UNIQUE INDEX"
			}
			ixName := fmt.Sprintf("idx_%s_%s", def.Table, strings.Join(cols, "_"))
			sql := fmt.Sprintf("CREATE %s %s ON %s (%s)", kw, ixName, def.Table, strings.Join(cols, ", "))
			_, err := r.conn.Exec(sql)
			return err
		}
		for _, ix := range def.Indexes {
			if err := mkIndex(ix, false); err != nil {
				return err
			}
		}
		for _, ix := range def.Unique {
			if err := mkIndex(ix, true); err != nil {
				return err
			}
		}
	}
	return nil
}

// RowToObject maps a raw result row (in model schema order: id, fields...)
// to an Object.
func (r *Registry) RowToObject(m *Model, row sqldb.Row) Object {
	names := m.FieldNames()
	o := make(Object, len(names))
	for i, n := range names {
		if i < len(row) {
			o[n] = row[i]
		}
	}
	return o
}

// ObjectToRow converts an Object back to a raw row in schema order.
func (r *Registry) ObjectToRow(m *Model, o Object) sqldb.Row {
	names := m.FieldNames()
	row := make(sqldb.Row, len(names))
	for i, n := range names {
		row[i] = o[n]
	}
	return row
}

// Insert stores a new instance of model name and returns it (with id).
func (r *Registry) Insert(name string, fields Fields) (Object, error) {
	m, err := r.Model(name)
	if err != nil {
		return nil, err
	}
	cols := make([]string, 0, len(fields))
	for k := range fields {
		cols = append(cols, k)
	}
	sort.Strings(cols)
	placeholders := make([]string, len(cols))
	args := make([]sqldb.Value, len(cols))
	for i, c := range cols {
		placeholders[i] = fmt.Sprintf("$%d", i+1)
		args[i] = V(fields[c])
	}
	sql := fmt.Sprintf("INSERT INTO %s (%s) VALUES (%s) RETURNING %s",
		m.Table, strings.Join(cols, ", "), strings.Join(placeholders, ", "),
		strings.Join(m.FieldNames(), ", "))
	res, err := r.conn.Exec(sql, args...)
	if err != nil {
		return nil, err
	}
	if len(res.Returning) != 1 {
		return nil, fmt.Errorf("orm: insert returned %d rows", len(res.Returning))
	}
	return r.RowToObject(m, res.Returning[0]), nil
}

// Objects starts a QuerySet for model name. Unknown models yield a QuerySet
// that errors on execution (keeps call sites chainable).
func (r *Registry) Objects(name string) *QuerySet {
	m, err := r.Model(name)
	return &QuerySet{reg: r, model: m, err: err, limit: -1}
}
