package sqldb

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

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

// keyRoom is the stack space a table operation renders its index keys into;
// the tree copies a key it keeps, so a key only outgrowing this allocates.
type keyRoom [128]byte

// appendIndexKey appends the B+tree key for row under index ix to dst,
// growing dst at most once.
func (t *table) appendIndexKey(dst []byte, ix *Index, row Row) []byte {
	n := 0
	for _, c := range ix.Cols {
		n += keyLen(row[c])
	}
	pk := row[t.schema.PKIndex]
	if !ix.Unique {
		n += keyLen(pk)
	}
	dst = slices.Grow(dst, n)
	for _, c := range ix.Cols {
		dst = EncodeKey(dst, row[c])
	}
	if !ix.Unique {
		dst = EncodeKey(dst, pk)
	}
	return dst
}

// appendPrefixKey appends the B+tree key prefix for equality values on the
// leading index columns to dst.
func appendPrefixKey(dst []byte, vals []Value) []byte {
	for _, v := range vals {
		dst = EncodeKey(dst, v)
	}
	return dst
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
	var room keyRoom
	for _, row := range rows {
		key := t.appendIndexKey(room[:0], ix, row)
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

// assignPK gives row the table's next primary key when its own is zero or
// NULL, and otherwise moves the next key past it.
func (t *table) assignPK(row Row) {
	pk := &row[t.schema.PKIndex]
	if pk.Null || pk.I == 0 {
		*pk = I64(t.nextID)
		t.nextID++
	} else if pk.I >= t.nextID {
		t.nextID = pk.I + 1
	}
}

// insertRaw inserts row, whose primary key is set, and maintains indexes.
// The heap stores row's encoding, which insertRaw appends to enc and returns
// enc extended: the caller's redo record, or scratch. On error enc comes back
// with its length unchanged. The row is the table's from then on: the caller
// must not change it.
func (t *table) insertRaw(enc []byte, row Row) ([]byte, error) {
	pk := &row[t.schema.PKIndex]
	if err := t.validate(row); err != nil {
		return enc, err
	}
	if _, dup := t.byPK[pk.I]; dup {
		return enc, fmt.Errorf("%w: %s pk %d", ErrDuplicateKey, t.schema.Table, pk.I)
	}
	// Unique index checks before any mutation.
	var room keyRoom
	for _, ix := range t.indexes {
		if !ix.Unique {
			continue
		}
		if _, exists := ix.tree.Get(t.appendIndexKey(room[:0], ix, row)); exists {
			return enc, fmt.Errorf("%w: %s index %s", ErrDuplicateKey, t.schema.Table, ix.Name)
		}
	}
	start := len(enc)
	out := EncodeRow(enc, row)
	rid, err := t.heap.Insert(out[start:])
	if err != nil {
		return enc, err
	}
	t.byPK[pk.I] = rid
	for _, ix := range t.indexes {
		ix.tree.Set(t.appendIndexKey(room[:0], ix, row), pk.I)
	}
	t.rows++
	return out, nil
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
	return DecodeRow(rec)
}

// updateRaw replaces the row with old's primary key by new (PK change is not
// supported), maintaining indexes. Like insertRaw it appends new's encoding,
// which the heap stores, to enc and returns enc extended, and new is the
// table's from then on.
func (t *table) updateRaw(enc []byte, old, new Row) ([]byte, error) {
	if err := t.validate(new); err != nil {
		return enc, err
	}
	pk := old[t.schema.PKIndex].I
	if new[t.schema.PKIndex].I != pk {
		return enc, fmt.Errorf("sqldb: table %s: primary key update not supported", t.schema.Table)
	}
	rid, ok := t.byPK[pk]
	if !ok {
		return enc, fmt.Errorf("%w: %s pk %d", ErrRowNotFound, t.schema.Table, pk)
	}
	// Unique checks for changed index keys.
	var room keyRoom
	for _, ix := range t.indexes {
		if !ix.Unique {
			continue
		}
		if _, newKey, changed := t.rekey(room[:0], ix, old, new); changed {
			if _, exists := ix.tree.Get(newKey); exists {
				return enc, fmt.Errorf("%w: %s index %s", ErrDuplicateKey, t.schema.Table, ix.Name)
			}
		}
	}
	start := len(enc)
	out := EncodeRow(enc, new)
	newRID, err := t.heap.Update(rid, out[start:])
	if err != nil {
		return enc, err
	}
	t.byPK[pk] = newRID
	for _, ix := range t.indexes {
		if oldKey, newKey, changed := t.rekey(room[:0], ix, old, new); changed {
			ix.tree.Delete(oldKey)
			ix.tree.Set(newKey, pk)
		}
	}
	return out, nil
}

// rekey renders old's and new's keys under ix back to back onto dst and
// reports whether they differ.
func (t *table) rekey(dst []byte, ix *Index, old, new Row) (oldKey, newKey []byte, changed bool) {
	dst = t.appendIndexKey(dst, ix, old)
	split := len(dst)
	dst = t.appendIndexKey(dst, ix, new)
	oldKey, newKey = dst[:split], dst[split:]
	return oldKey, newKey, string(oldKey) != string(newKey)
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
	var room keyRoom
	for _, ix := range t.indexes {
		ix.tree.Delete(t.appendIndexKey(room[:0], ix, old))
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
	var room keyRoom
	prefix := appendPrefixKey(room[:0], vals)
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
