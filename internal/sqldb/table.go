package sqldb

import (
	"bytes"
	"errors"
	"fmt"

	"cachegenie/internal/btree"
	"cachegenie/internal/storage"
)

// Errors returned by table operations.
var (
	ErrDuplicateKey  = errors.New("sqldb: duplicate key")
	ErrRowNotFound   = errors.New("sqldb: row not found")
	ErrNullViolation = errors.New("sqldb: NOT NULL violation")
)

// Index is a secondary index over one or more columns. Non-unique indexes
// append the primary key to the B+tree key to disambiguate duplicates.
type Index struct {
	Name   string
	Cols   []int // column positions in the schema
	Unique bool
	tree   *btree.Tree
}

// ColNames returns the indexed column names for schema s.
func (ix *Index) ColNames(s *Schema) []string {
	names := make([]string, len(ix.Cols))
	for i, c := range ix.Cols {
		names[i] = s.Columns[c].Name
	}
	return names
}

// table is the physical storage for one table. All mutating methods are raw:
// they maintain storage and indexes but do NOT check locks or fire triggers;
// the engine layers those on top.
type table struct {
	schema *Schema
	heap   *storage.HeapFile
	// byPK maps primary key -> heap record id.
	byPK    map[int64]storage.RecordID
	nextID  int64
	indexes []*Index
	rows    int
}

func newTable(schema *Schema, disk *storage.Disk, pool *storage.BufferPool) *table {
	return &table{
		schema: schema,
		heap:   storage.NewHeapFile(disk, pool),
		byPK:   make(map[int64]storage.RecordID),
		nextID: 1,
	}
}

// indexKey builds the B+tree key for row under index ix.
func (t *table) indexKey(ix *Index, row Row) []byte {
	var key []byte
	for _, c := range ix.Cols {
		key = EncodeKey(key, row[c])
	}
	if !ix.Unique {
		key = EncodeKey(key, row[t.schema.PKIndex])
	}
	return key
}

// prefixKey builds the B+tree key prefix for equality values on the leading
// index columns.
func (t *table) prefixKey(vals []Value) []byte {
	var key []byte
	for _, v := range vals {
		key = EncodeKey(key, v)
	}
	return key
}

// addIndex registers and builds a new index over existing rows.
func (t *table) addIndex(ix *Index) error {
	var b rowBuf
	if err := b.scan(t); err != nil {
		return err
	}
	rows, err := b.decode(len(t.schema.Columns))
	if err != nil {
		return err
	}
	ix.tree = btree.New(btree.DefaultOrder)
	for _, row := range rows {
		key := t.indexKey(ix, row)
		if ix.Unique {
			if _, exists := ix.tree.Get(key); exists {
				return fmt.Errorf("%w: building index %s", ErrDuplicateKey, ix.Name)
			}
		}
		ix.tree.Set(key, row[t.schema.PKIndex].I)
	}
	t.indexes = append(t.indexes, ix)
	return nil
}

// findIndex returns an index whose leading columns are exactly cols (by
// position), or nil.
func (t *table) findIndex(cols []int) *Index {
	for _, ix := range t.indexes {
		if len(ix.Cols) < len(cols) {
			continue
		}
		match := true
		for i, c := range cols {
			if ix.Cols[i] != c {
				match = false
				break
			}
		}
		if match {
			return ix
		}
	}
	return nil
}

// validate checks NOT NULL constraints and column count/types.
func (t *table) validate(row Row) error {
	if len(row) != len(t.schema.Columns) {
		return fmt.Errorf("sqldb: table %s: row has %d values, want %d",
			t.schema.Table, len(row), len(t.schema.Columns))
	}
	for i, v := range row {
		col := t.schema.Columns[i]
		if v.Null {
			if col.NotNull {
				return fmt.Errorf("%w: %s.%s", ErrNullViolation, t.schema.Table, col.Name)
			}
			continue
		}
		if v.Type != col.Type {
			// Permit INT literals in FLOAT columns and vice versa is NOT
			// allowed; the executor coerces before calling.
			return fmt.Errorf("sqldb: table %s column %s: value type %v, want %v",
				t.schema.Table, col.Name, v.Type, col.Type)
		}
	}
	return nil
}

// insertRaw inserts row (assigning the PK if zero/NULL), maintains indexes,
// and returns the stored row.
func (t *table) insertRaw(row Row) (Row, error) {
	row = row.Clone()
	pk := &row[t.schema.PKIndex]
	if pk.Null || pk.I == 0 {
		*pk = I64(t.nextID)
		t.nextID++
	} else if pk.I >= t.nextID {
		t.nextID = pk.I + 1
	}
	if err := t.validate(row); err != nil {
		return nil, err
	}
	if _, dup := t.byPK[pk.I]; dup {
		return nil, fmt.Errorf("%w: %s pk %d", ErrDuplicateKey, t.schema.Table, pk.I)
	}
	// Unique index checks before any mutation.
	for _, ix := range t.indexes {
		if !ix.Unique {
			continue
		}
		if _, exists := ix.tree.Get(t.indexKey(ix, row)); exists {
			return nil, fmt.Errorf("%w: %s index %s", ErrDuplicateKey, t.schema.Table, ix.Name)
		}
	}
	rid, err := t.heap.Insert(encodeRow(nil, row))
	if err != nil {
		return nil, err
	}
	t.byPK[pk.I] = rid
	for _, ix := range t.indexes {
		ix.tree.Set(t.indexKey(ix, row), pk.I)
	}
	t.rows++
	return row, nil
}

// getRaw fetches the row with primary key pk.
func (t *table) getRaw(pk int64) (Row, error) {
	rid, ok := t.byPK[pk]
	if !ok {
		return nil, fmt.Errorf("%w: %s pk %d", ErrRowNotFound, t.schema.Table, pk)
	}
	rec, err := t.heap.AppendRecord(nil, rid)
	if err != nil {
		return nil, err
	}
	return decodeRow(rec)
}

// updateRaw replaces the row with old's primary key by new (PK change is not
// supported), maintaining indexes. Returns the stored new row.
func (t *table) updateRaw(old, new Row) (Row, error) {
	new = new.Clone()
	if err := t.validate(new); err != nil {
		return nil, err
	}
	pk := old[t.schema.PKIndex].I
	if new[t.schema.PKIndex].I != pk {
		return nil, fmt.Errorf("sqldb: table %s: primary key update not supported", t.schema.Table)
	}
	rid, ok := t.byPK[pk]
	if !ok {
		return nil, fmt.Errorf("%w: %s pk %d", ErrRowNotFound, t.schema.Table, pk)
	}
	// Unique checks for changed index keys.
	for _, ix := range t.indexes {
		if !ix.Unique {
			continue
		}
		oldKey, newKey := t.indexKey(ix, old), t.indexKey(ix, new)
		if string(oldKey) == string(newKey) {
			continue
		}
		if _, exists := ix.tree.Get(newKey); exists {
			return nil, fmt.Errorf("%w: %s index %s", ErrDuplicateKey, t.schema.Table, ix.Name)
		}
	}
	newRID, err := t.heap.Update(rid, encodeRow(nil, new))
	if err != nil {
		return nil, err
	}
	t.byPK[pk] = newRID
	for _, ix := range t.indexes {
		oldKey, newKey := t.indexKey(ix, old), t.indexKey(ix, new)
		if string(oldKey) == string(newKey) {
			continue
		}
		ix.tree.Delete(oldKey)
		ix.tree.Set(newKey, pk)
	}
	return new, nil
}

// deleteRaw removes the row with old's primary key, maintaining indexes.
func (t *table) deleteRaw(old Row) error {
	pk := old[t.schema.PKIndex].I
	rid, ok := t.byPK[pk]
	if !ok {
		return fmt.Errorf("%w: %s pk %d", ErrRowNotFound, t.schema.Table, pk)
	}
	if err := t.heap.Delete(rid); err != nil {
		return err
	}
	delete(t.byPK, pk)
	for _, ix := range t.indexes {
		ix.tree.Delete(t.indexKey(ix, old))
	}
	t.rows--
	return nil
}

// rowBuf collects a statement's matched records: each one is appended to
// raw while its page is pinned, and ends marks where it stops. decode then
// turns them all into rows at once.
type rowBuf struct {
	raw  []byte
	ends []int
}

// add appends one record.
func (b *rowBuf) add(rec []byte) {
	b.raw = append(b.raw, rec...)
	b.ends = append(b.ends, len(b.raw))
}

// record returns the i'th collected record.
func (b *rowBuf) record(i int) []byte {
	start := 0
	if i > 0 {
		start = b.ends[i-1]
	}
	return b.raw[start:b.ends[i]]
}

// fetch appends the row of t with primary key pk and reports whether there
// is one.
func (b *rowBuf) fetch(t *table, pk int64) (bool, error) {
	rid, ok := t.byPK[pk]
	if !ok {
		return false, nil
	}
	var err error
	if b.raw, err = t.heap.AppendRecord(b.raw, rid); err != nil {
		return false, err
	}
	b.ends = append(b.ends, len(b.raw))
	return true, nil
}

// indexEq appends, in index order, the rows of t whose leading ix columns
// equal vals.
func (b *rowBuf) indexEq(t *table, ix *Index, vals []Value) error {
	prefix := t.prefixKey(vals)
	for it := ix.tree.Scan(prefix, nil); it.Valid() && bytes.HasPrefix(it.Key(), prefix); it.Next() {
		found, err := b.fetch(t, it.Value())
		if err != nil {
			return err
		}
		if !found {
			return fmt.Errorf("%w: %s pk %d (index %s)", ErrRowNotFound, t.schema.Table, it.Value(), ix.Name)
		}
	}
	return nil
}

// scan appends every row of t.
func (b *rowBuf) scan(t *table) error {
	return t.heap.Scan(func(_ storage.RecordID, rec []byte) bool {
		b.add(rec)
		return true
	})
}

// decode turns the collected records into rows of width values each, in
// one pass: every text value is a substring of one string(raw), the values
// share one array, and the rows one []Row, each row a capped window. A row
// therefore keeps its whole statement's decode alive.
func (b *rowBuf) decode(width int) ([]Row, error) {
	if len(b.ends) == 0 {
		return nil, nil
	}
	s := string(b.raw)
	vals := make([]Value, 0, len(b.ends)*width)
	rows := make([]Row, len(b.ends))
	start := 0
	for i, end := range b.ends {
		n := len(vals)
		var err error
		if vals, err = DecodeRowInto(vals, b.raw[start:end], s[start:end]); err != nil {
			return nil, err
		}
		rows[i] = vals[n:len(vals):len(vals)]
		start = end
	}
	return rows, nil
}
