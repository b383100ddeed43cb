package rowlist

import (
	"encoding/binary"
	"errors"
	"slices"
	"strconv"
	"unsafe"

	"cachegenie/internal/sqlval"
)

// Kind is what an op does to its key's entry. The row-list edits are
// idempotent by primary key, except Append. Triggers record every kind but
// Populate, which a read miss publishes to the invalidation bus.
type Kind uint8

// Op kinds.
const (
	Insert Kind = iota
	Remove
	Replace
	Append
	Unlink
	Incr
	Delete
	Populate
	kindCount
)

var kindNames = [kindCount]string{"insert", "remove", "replace", "append", "unlink", "incr", "delete", "populate"}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k < kindCount {
		return kindNames[k]
	}
	return "kind(" + strconv.Itoa(int(k)) + ")"
}

// Class is the kind of list an edit maintains: it decides where an insert
// lands and what a replacement does. The zero Class is no list at all, the
// shape of a count's or an invalidated key's ops, under which a list edit is
// malformed.
type Class uint8

// List classes.
const (
	// Feature is every row of a table matching some columns, in no order.
	Feature Class = iota + 1
	// Link holds a target row once per relation row that joins it to the
	// list's source.
	Link
	// TopK is the head of an order: K rows plus a reserve.
	TopK
	classCount
)

// Shape is what the list semantics need to know of a cached object: its
// class, a top-K list's order and bounds, and a link list's join columns.
type Shape struct {
	Class Class
	// SortCol and Desc order a top-K list; it serves K rows and holds at most
	// Limit, K plus its reserve.
	SortCol int
	Desc    bool
	K       int
	Limit   int
	// TargetCol is where a link list's rows hold the value a relation row's
	// JoinCol names.
	TargetCol, JoinCol int
}

// Op is one cache effect a trigger recorded, as data: what to do to one
// key's entry, with the rows it needs. Old and New are the row before and
// after the change, as the trigger event carries them; Rows are an Append's,
// Delta an Incr's, and Enc the entry a Populate stores.
type Op struct {
	Kind     Kind
	Old, New sqlval.Row
	Rows     []sqlval.Row
	Delta    int64
	Enc      []byte
}

// Apply runs the list edit o on l. changed reports whether l changed, short
// that a top-K removal or move used up the reserve.
func (s *Shape) Apply(l *List, o *Op) (changed, short bool) {
	switch o.Kind {
	case Insert:
		if findRowByPK(l.Rows, PK(o.New)) >= 0 {
			return false, false
		}
		if s.Class == TopK {
			return s.topkInsert(l, o.New), false
		}
		l.Rows = append(l.Rows, o.New)
		return true, false
	case Remove:
		for i := len(l.Rows) - 1; i >= 0; i-- {
			if PK(l.Rows[i]) == PK(o.Old) {
				l.Rows = removeRowAt(l.Rows, i)
				changed = true
			}
		}
		return changed, changed && s.Class == TopK && len(l.Rows) < s.K && !l.Exhaustive
	case Replace:
		return s.replace(l, o.Old, o.New)
	case Append:
		l.Rows = append(l.Rows, o.Rows...)
		return true, false
	case Unlink:
		// The relation row joined every target row with its join value, which
		// the list holds once per such relation row: one copy of each goes.
		rows := l.Rows
		for i := len(rows) - 1; i >= 0; i-- {
			if sqlval.Equal(rows[i][s.TargetCol], o.Old[s.JoinCol]) && findRowByPK(rows, PK(rows[i])) == i {
				l.Rows = removeRowAt(l.Rows, i)
				changed = true
			}
		}
	}
	return changed, false
}

// replace is Replace on l per the class; short is as Remove's.
func (s *Shape) replace(l *List, old, new sqlval.Row) (changed, short bool) {
	switch s.Class {
	case TopK:
		i := findRowByPK(l.Rows, PK(new))
		if sqlval.Compare(old[s.SortCol], new[s.SortCol]) == 0 {
			// Sort position unchanged: update the row in place (the paper:
			// "UPDATE triggers simply update the corresponding post if it
			// finds it in the cached list").
			if i >= 0 {
				l.Rows[i] = new
			}
			return i >= 0, false
		}
		// The row leaves its old position and enters at its new one, which
		// may be inside a window it was not in, or below a window it was.
		if i >= 0 {
			l.Rows = removeRowAt(l.Rows, i)
		}
		changed = s.topkInsert(l, new) || i >= 0
		return changed, changed && len(l.Rows) < s.K && !l.Exhaustive
	case Link:
		// A list holds a target row once per relation row that joins it to
		// the source: every copy is replaced.
		for i, r := range l.Rows {
			if PK(r) == PK(new) {
				l.Rows[i] = new
				changed = true
			}
		}
		return changed, false
	}
	// A feature list is exhaustive: a row of its key that it lacks belongs in
	// it.
	if i := findRowByPK(l.Rows, PK(new)); i >= 0 {
		l.Rows[i] = new
	} else {
		l.Rows = append(l.Rows, new)
	}
	return true, false
}

// topkInsert inserts row into the ordered list, returning whether the list
// changed. Ties keep insertion order.
func (s *Shape) topkInsert(l *List, row sqlval.Row) bool {
	pos := len(l.Rows)
	for i, r := range l.Rows {
		c := sqlval.Compare(row[s.SortCol], r[s.SortCol])
		if s.Desc && c > 0 || !s.Desc && c < 0 {
			pos = i
			break
		}
	}
	if pos == len(l.Rows) {
		if !l.Exhaustive {
			// Row sorts below the cached window, and database rows the window
			// lacks may sort between: the window is unaffected.
			return false
		}
		l.Rows = append(l.Rows, row)
	} else {
		l.Rows = insertRowAt(l.Rows, pos, row)
	}
	if len(l.Rows) > s.Limit {
		l.Rows = l.Rows[:s.Limit]
		l.Exhaustive = false
	}
	return true
}

// listWidth is the fewest values a list row needs for s's semantics: its
// primary key, and a top-K list's sort or a link list's target column.
func (s *Shape) listWidth() int {
	switch s.Class {
	case TopK:
		return max(1, s.SortCol+1)
	case Link:
		return max(1, s.TargetCol+1)
	}
	return 1
}

// An edit is a shape and one key's ops in record order:
//
//	version byte, class byte, flags byte (bit 0: descending),
//	uvarint SortCol, K, Limit, TargetCol, JoinCol,
//	then per op its kind byte and its operands: a row as a uvarint length
//	and its sqlval encoding; Insert new; Remove and Unlink old; Replace old
//	and new; Append a uvarint count and its rows; Incr a varint delta;
//	Populate a uvarint length and the entry; Delete nothing.
const editVersion = 1

// ShapeLen is the length of AppendShape's encoding of s.
func ShapeLen(s Shape) int {
	return 3 + uvarintLen(s.SortCol) + uvarintLen(s.K) + uvarintLen(s.Limit) + uvarintLen(s.TargetCol) + uvarintLen(s.JoinCol)
}

// AppendShape starts an edit: it appends s's encoding to dst. The key's ops
// follow it, each appended by AppendOp.
func AppendShape(dst []byte, s Shape) []byte {
	flags := byte(0)
	if s.Desc {
		flags = 1
	}
	dst = append(dst, editVersion, byte(s.Class), flags)
	for _, n := range [...]int{s.SortCol, s.K, s.Limit, s.TargetCol, s.JoinCol} {
		dst = binary.AppendUvarint(dst, uint64(n))
	}
	return dst
}

// OpLen is the length of AppendOp's encoding of o.
func OpLen(o *Op) int {
	n := 1
	switch o.Kind {
	case Insert:
		n += rowLen(o.New)
	case Remove, Unlink:
		n += rowLen(o.Old)
	case Replace:
		n += rowLen(o.Old) + rowLen(o.New)
	case Append:
		n += uvarintLen(len(o.Rows))
		for _, r := range o.Rows {
			n += rowLen(r)
		}
	case Incr:
		var b [binary.MaxVarintLen64]byte
		n += len(binary.AppendVarint(b[:0], o.Delta))
	case Populate:
		n += uvarintLen(len(o.Enc)) + len(o.Enc)
	}
	return n
}

// AppendOp appends o's encoding to an edit.
func AppendOp(dst []byte, o *Op) []byte {
	dst = append(dst, byte(o.Kind))
	switch o.Kind {
	case Insert:
		dst = appendRow(dst, o.New)
	case Remove, Unlink:
		dst = appendRow(dst, o.Old)
	case Replace:
		dst = appendRow(appendRow(dst, o.Old), o.New)
	case Append:
		dst = binary.AppendUvarint(dst, uint64(len(o.Rows)))
		for _, r := range o.Rows {
			dst = appendRow(dst, r)
		}
	case Incr:
		dst = binary.AppendVarint(dst, o.Delta)
	case Populate:
		dst = append(binary.AppendUvarint(dst, uint64(len(o.Enc))), o.Enc...)
	}
	return dst
}

func rowLen(r sqlval.Row) int {
	n := sqlval.EncodedRowLen(r)
	return uvarintLen(n) + n
}

func appendRow(dst []byte, r sqlval.Row) []byte {
	return sqlval.EncodeRow(binary.AppendUvarint(dst, uint64(sqlval.EncodedRowLen(r))), r)
}

// errEdit is a malformed edit: its replay drops the key, which whatever the
// edit meant to change is always safe.
var errEdit = errors.New("rowlist: malformed edit")

// Result is what a replay counted, per op, as the middleware's trigger
// statistics count them: a list edit that changed the list and an applied
// incr are updates; an op that found the key absent, and a delete that did,
// skips; a delete of a present entry, and the drop of one that is corrupt,
// deletes; a populate that found the key present is refused. An edit that
// changed nothing is none of them. Short reports that a top-K removal or move
// used up the reserve; the replay then dropped the key, counting nothing for
// the drop, and counted the ops after the removal as they applied to the
// short list.
type Result struct {
	Updates, Skips, Deletes, Refused int32
	Short                            bool
}

// Outcome is what a replay leaves: whether the key ends holding an entry and
// which (Entry, valid until the scratch's next replay), and whether that
// differs from how the replay found it. A caller with Changed set stores
// Entry when Present, and deletes the key otherwise.
type Outcome struct {
	Result
	Present, Changed bool
	Entry            []byte
}

// Scratch is a replay's working memory. Reused, a replay allocates nothing.
// Not safe for concurrent use.
type Scratch struct {
	vals []sqlval.Value
	rows []sqlval.Row // the list's, then the appended ones
	ops  []Op
	out  []byte
	num  [20]byte
}

// view is b's bytes as a string, without a copy. A replay decodes text values
// as views of the entry and the edit, which outlive it, and drops every
// decoded value before it returns: nothing it returns holds one.
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// Replay applies the edit ed to a key's entry — cur, when present — replaying
// its ops in record order:
//
//   - a populate stores its entry when the key is absent, and is refused
//     when it is not;
//   - a delete empties the key;
//   - an incr or a list edit applies when the key is present, and finds
//     nothing otherwise; an entry that does not parse as a count or a list
//     is corrupt and dropped;
//   - a top-K removal or move that uses up the reserve drops the key: the
//     list must be rebuilt from the database (Short). The ops after it still
//     replay over the short list, and count as they apply to it.
//
// A malformed edit, or one with a row too narrow for its shape, drops the
// key and returns an error.
func (sc *Scratch) Replay(ed, cur []byte, present bool) (Outcome, error) {
	s, ops, err := sc.decode(ed)
	var out Outcome
	if err == nil {
		out = sc.replay(&s, ops, cur, present)
	} else {
		out = Outcome{Changed: present}
		if present {
			out.Deletes = 1
		}
	}
	// Drop the decoded values, which view cur and ed.
	clear(sc.vals)
	clear(sc.rows)
	clear(sc.ops)
	sc.vals, sc.rows, sc.ops = sc.vals[:0], sc.rows[:0], sc.ops[:0]
	return out, err
}

func (sc *Scratch) replay(s *Shape, ops []Op, cur []byte, present bool) Outcome {
	var out Outcome
	was := present
	raw := cur // the key's entry while it is not decoded
	var l List
	decoded, dirty := false, false
	for i := range ops {
		o := &ops[i]
		switch {
		case o.Kind == Populate:
			if present {
				out.Refused++
				continue
			}
			present, raw, decoded, dirty = true, o.Enc, false, true
		case o.Kind == Delete:
			if present {
				out.Deletes++
				present, dirty = false, true
			} else {
				out.Skips++
			}
		case !present:
			out.Skips++
		case o.Kind == Incr:
			n, ok := ParseCount(raw)
			if !ok {
				out.Deletes++ // corrupt: dropped
				present, dirty = false, true
				continue
			}
			raw = strconv.AppendInt(sc.num[:0], n+o.Delta, 10)
			out.Updates++
			dirty = true
		default:
			if !decoded {
				var ok bool
				if l, ok = sc.decodeList(s, raw); !ok {
					out.Deletes++ // corrupt: dropped
					present, dirty = false, true
					continue
				}
				decoded = true
			}
			changed, short := s.Apply(&l, o)
			if changed {
				out.Updates++
				dirty = true
			}
			out.Short = out.Short || short
		}
	}
	switch {
	case out.Short:
		out.Changed = was
	case !dirty:
		out.Present = was
	case !present:
		out.Changed = was
	case decoded:
		sc.out = AppendEncoded(sc.out[:0], l)
		out.Present, out.Changed, out.Entry = true, true, sc.out
	default:
		out.Present, out.Changed, out.Entry = true, true, raw
	}
	return out
}

// decodeList decodes the key's entry, raw, after the edit's rows, into the
// scratch; rows appended to the list grow it in place.
func (sc *Scratch) decodeList(s *Shape, raw []byte) (List, bool) {
	f, err := FrameOf(raw)
	if err != nil {
		return List{}, false
	}
	from := len(sc.rows)
	sc.rows = slices.Grow(sc.rows, 2*f.Rows+8) // room for the edits to grow the list
	var rows []sqlval.Row
	if sc.vals, rows, err = DecodeFramed(sc.vals, sc.rows, raw, view(raw), f); err != nil {
		return List{}, false
	}
	sc.rows = rows
	for _, row := range rows[from:] {
		if len(row) < s.listWidth() {
			return List{}, false
		}
	}
	return List{Exhaustive: f.Exhaustive, Rows: rows[from:]}, true
}

// decode reads an edit: its shape, and its ops into the scratch, each list
// edit's rows checked for the columns the shape reads.
func (sc *Scratch) decode(ed []byte) (s Shape, ops []Op, err error) {
	if len(ed) < 3 || ed[0] != editVersion || ed[1] >= byte(classCount) || ed[2] > 1 {
		return s, nil, errEdit
	}
	s.Class, s.Desc = Class(ed[1]), ed[2] == 1
	off := 3
	next := func() (uint64, bool) {
		n, w := uvarint(ed[off:])
		if w <= 0 {
			return 0, false
		}
		off += w
		return n, true
	}
	for _, p := range [...]*int{&s.SortCol, &s.K, &s.Limit, &s.TargetCol, &s.JoinCol} {
		n, ok := next()
		if !ok || n > 1<<20 {
			return s, nil, errEdit
		}
		*p = int(n)
	}
	row := func(width int) sqlval.Row {
		if err != nil {
			return nil
		}
		n, ok := next()
		if !ok || n > uint64(len(ed)-off) {
			err = errEdit
			return nil
		}
		b := ed[off : off+int(n)]
		off += int(n)
		from := len(sc.vals)
		if sc.vals, err = sqlval.DecodeRowInto(sc.vals, b, view(b)); err == nil && len(sc.vals)-from < width {
			err = errEdit
		}
		return sc.vals[from:len(sc.vals):len(sc.vals)]
	}
	oldWidth := 0 // a replace's old row matters to a top-K list alone
	if s.Class == TopK {
		oldWidth = s.SortCol + 1
	}
	for off < len(ed) && err == nil {
		o := Op{Kind: Kind(ed[off])}
		off++
		if o.Kind < Incr && s.Class == 0 || o.Kind == Unlink && s.Class != Link || o.Kind >= kindCount {
			return s, nil, errEdit
		}
		switch o.Kind {
		case Insert:
			o.New = row(s.listWidth())
		case Remove:
			o.Old = row(1)
		case Unlink:
			o.Old = row(s.JoinCol + 1)
		case Replace:
			o.Old = row(oldWidth)
			o.New = row(s.listWidth())
		case Append:
			n, ok := next()
			if !ok || n > uint64(len(ed)) {
				return s, nil, errEdit
			}
			from := len(sc.rows)
			for ; n > 0 && err == nil; n-- {
				sc.rows = append(sc.rows, row(s.listWidth()))
			}
			o.Rows = sc.rows[from:len(sc.rows):len(sc.rows)]
		case Incr:
			var w int
			if o.Delta, w = binary.Varint(ed[off:]); w <= 0 {
				return s, nil, errEdit
			}
			off += w
		case Populate:
			n, ok := next()
			if !ok || n > uint64(len(ed)-off) {
				return s, nil, errEdit
			}
			o.Enc = ed[off : off+int(n)]
			off += int(n)
		}
		sc.ops = append(sc.ops, o)
	}
	return s, sc.ops, err
}

// ParseCount parses a count entry: a decimal integer, optionally negative.
func ParseCount(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var n int64
	neg := false
	i := 0
	if b[0] == '-' {
		neg, i = true, 1
	}
	for ; i < len(b); i++ {
		if b[i] < '0' || b[i] > '9' {
			return 0, false
		}
		n = n*10 + int64(b[i]-'0')
	}
	if neg {
		n = -n
	}
	return n, true
}
