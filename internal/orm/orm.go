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
// # Objects are row views
//
// CacheGenie caches raw query rows, not objects (§3.1), so every cache hit
// turns rows back into objects. Here that costs one allocation per result,
// whatever its length: an Object is a read-only view of its row — the model
// plus the row, its fields resolved through a name→index table the Model
// builds once at Register — and a query's Objects view the very rows the
// interceptor or the database returned. For a cache hit those rows are
// windows of one decoded payload (one value array, one string holding every
// text value), so an Object held anywhere keeps its whole list's decoded
// payload alive — and inside a wave, CacheGenie decodes all the wave's hits
// into one value array and one string, so an Object keeps its whole wave's
// decode alive. Nothing may write through an Object; ObjectToRow returns a
// copy to edit.
//
// Results are capped windows. Each row is capped to its own values, each
// cached list to its own rows, and a wave's All results are windows of one
// []Object sized to the rows the wave returned, each capped to its own: an
// append to any of them copies instead of writing into a sibling.
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
//	profile := w.OneOrNone(reg.Objects("Profile").Filter("user_id", uid)) // zero Object if none
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
	"maps"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
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

	// names is "id" plus the declared fields in schema order, and index maps
	// each to its position; both are built once by Register and never change.
	names []string
	index map[string]int

	// texts holds the write statements rendered for the model, by shape
	// (text). Readers load the current map without a lock; textsMu serializes
	// writers, which publish a copy with one more entry.
	texts   atomic.Pointer[map[string]string]
	textsMu sync.Mutex
}

// maxTexts caps a model's statement texts. A model's writes come in a few
// shapes, but an IN list of a new length is a new one: past the cap a text
// is rendered on every call instead of filling memory.
const maxTexts = 256

// text returns the statement text of shape, calling render only the first
// time the model meets the shape, so a write renders no SQL after its first
// of a kind. shape encodes everything the text depends on.
func (m *Model) text(shape []byte, render func() string) string {
	if s, ok := (*m.texts.Load())[string(shape)]; ok {
		return s
	}
	s := render()
	m.textsMu.Lock()
	defer m.textsMu.Unlock()
	if old := *m.texts.Load(); len(old) < maxTexts {
		next := make(map[string]string, len(old)+1)
		maps.Copy(next, old)
		next[string(shape)] = s
		m.texts.Store(&next)
	}
	return s
}

func newModel(def *ModelDef) *Model {
	m := &Model{Name: def.Name, Table: def.Table, Fields: def.Fields}
	m.texts.Store(&map[string]string{})
	m.names = make([]string, 0, len(def.Fields)+1)
	m.names = append(m.names, "id")
	for _, f := range def.Fields {
		m.names = append(m.names, f.Name)
	}
	m.index = make(map[string]int, len(m.names))
	for i, n := range m.names {
		m.index[n] = i
	}
	return m
}

// FieldNames returns "id" plus the declared fields, in schema order. The
// slice is the caller's own.
func (m *Model) FieldNames() []string { return slices.Clone(m.names) }

// FieldIndex returns the position of field in the model's schema order (the
// column order of its rows).
func (m *Model) FieldIndex(field string) (int, bool) {
	i, ok := m.index[field]
	return i, ok
}

// Object is one model instance: a read-only view of its row, in the model's
// schema order. Objects of one query result share that result's rows — for a
// cache hit, one decoded payload — so holding any of them keeps the whole
// list alive. The zero Object is "no object" (Wave.OneOrNone with no match):
// every field of it reads as absent.
type Object struct {
	model *Model
	row   sqldb.Row
}

// IsZero reports whether o is the zero Object.
func (o Object) IsZero() bool { return o.model == nil }

// Get returns the value of field, with ok=false when the model has no such
// field (or o is the zero Object).
func (o Object) Get(field string) (v sqldb.Value, ok bool) {
	if o.model == nil {
		return v, false
	}
	i, ok := o.model.index[field]
	if !ok || i >= len(o.row) {
		return v, false
	}
	return o.row[i], true
}

func (o Object) get(field string) sqldb.Value {
	v, _ := o.Get(field)
	return v
}

// ID returns the object's primary key.
func (o Object) ID() int64 {
	if len(o.row) == 0 {
		return 0
	}
	return o.row[0].I
}

// Int returns field as int64 (0 when NULL/absent).
func (o Object) Int(field string) int64 { return o.get(field).I }

// Str returns field as string.
func (o Object) Str(field string) string { return o.get(field).S }

// Bool returns field as bool.
func (o Object) Bool(field string) bool { return o.get(field).AsBool() }

// Time returns field as time.Time.
func (o Object) Time(field string) time.Time { return o.get(field).AsTime() }

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
	// reflect.TypeOf rather than %T: x must not escape, or every Filter(f, n)
	// call site would box n on the heap.
	panic("orm: unsupported value type " + reflect.TypeOf(x).String())
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
	m := newModel(def)
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

// RowToObject views a raw result row (in model schema order: id, fields...)
// as an Object. The Object does not copy the row: the row must not change
// while the Object is in use.
func (r *Registry) RowToObject(m *Model, row sqldb.Row) Object {
	return Object{model: m, row: row}
}

// ObjectToRow returns a copy of the row behind o, an object of m, in m's
// schema order; the caller may edit it. A field the row lacks is the zero
// Value.
func (r *Registry) ObjectToRow(m *Model, o Object) sqldb.Row {
	row := make(sqldb.Row, len(m.names))
	copy(row, o.row)
	return row
}

// Insert stores a new instance of model name and returns it (with id).
func (r *Registry) Insert(name string, fields Fields) (Object, error) {
	m, err := r.Model(name)
	if err != nil {
		return Object{}, err
	}
	var colBuf [8]string
	cols := sortedFields(colBuf[:0], fields)
	var shapeBuf [128]byte
	sql := m.text(appendNames(append(shapeBuf[:0], 'I'), cols), func() string {
		placeholders := make([]string, len(cols))
		for i := range cols {
			placeholders[i] = fmt.Sprintf("$%d", i+1)
		}
		return fmt.Sprintf("INSERT INTO %s (%s) VALUES (%s) RETURNING %s",
			m.Table, strings.Join(cols, ", "), strings.Join(placeholders, ", "),
			strings.Join(m.names, ", "))
	})
	args := make([]sqldb.Value, len(cols))
	for i, c := range cols {
		args[i] = V(fields[c])
	}
	res, err := r.conn.Exec(sql, args...)
	if err != nil {
		return Object{}, err
	}
	if len(res.Returning) != 1 {
		return Object{}, fmt.Errorf("orm: insert returned %d rows", len(res.Returning))
	}
	return r.RowToObject(m, res.Returning[0]), nil
}

// sortedFields appends the names of fields to dst in sorted order.
func sortedFields(dst []string, fields Fields) []string {
	for k := range fields {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
}

// appendNames appends each of names to a statement shape, space-separated.
func appendNames(shape []byte, names []string) []byte {
	for _, n := range names {
		shape = append(append(shape, ' '), n...)
	}
	return shape
}

// Objects starts a QuerySet for model name. Unknown models yield a QuerySet
// that errors on execution (keeps call sites chainable).
func (r *Registry) Objects(name string) *QuerySet {
	m, err := r.Model(name)
	return &QuerySet{reg: r, err: err, d: QueryDescriptor{Model: m, Limit: -1}}
}
