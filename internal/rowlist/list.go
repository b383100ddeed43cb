// Package rowlist is a cached row list — the entry of a feature, link or
// top-K cached object — and the edits CacheGenie's triggers make to one: the
// list's encoding, the list semantics of every op a trigger records, and the
// replay of one key's ops over its entry. The middleware (core) encodes the
// ops a flush holds for a key as one edit (AppendEdit); the cache node that
// holds the key replays it over the entry (Scratch.Replay). Both ends
// run this one implementation, and it imports no engine package, so a cache
// node links it without the database.
package rowlist

import (
	"encoding/binary"
	"errors"
	"math/bits"

	"cachegenie/internal/sqlval"
)

// List is the cached value of a row-valued cached object: the raw result
// rows plus, for a top-K list, whether the list is exhaustive (contains every
// matching row in the database, so deletes never require recomputation).
type List struct {
	Exhaustive bool
	Rows       []sqlval.Row
}

const listVersion = 1

// Encode serializes a list for the cache, in one allocation of exactly its
// size.
func Encode(l List) []byte { return AppendEncoded(make([]byte, 0, EncodedLen(l)), l) }

// EncodedLen is the length of l's encoding.
func EncodedLen(l List) int {
	size := 2 + uvarintLen(len(l.Rows))
	for _, r := range l.Rows {
		n := sqlval.EncodedRowLen(r)
		size += uvarintLen(n) + n
	}
	return size
}

// AppendEncoded appends l's encoding to dst.
func AppendEncoded(dst []byte, l List) []byte {
	flag := byte(0)
	if l.Exhaustive {
		flag = 1
	}
	dst = append(dst, listVersion, flag)
	dst = binary.AppendUvarint(dst, uint64(len(l.Rows)))
	for _, r := range l.Rows {
		dst = binary.AppendUvarint(dst, uint64(sqlval.EncodedRowLen(r)))
		dst = sqlval.EncodeRow(dst, r)
	}
	return dst
}

// uvarintLen is the length of n's uvarint encoding.
func uvarintLen(n int) int { return (bits.Len64(uint64(n)|1) + 6) / 7 }

// minEncodedRow is the fewest bytes a row takes in a list: its one-byte
// length and EncodeRow's four-byte value count.
const minEncodedRow = 1 + 4

// Why FrameOf refuses an encoding. Sentinels, so framing a read wave's hits
// allocates nothing.
var (
	errShort    = errors.New("rowlist: list too short")
	errVersion  = errors.New("rowlist: list version unsupported")
	errFlag     = errors.New("rowlist: bad list flag")
	errCount    = errors.New("rowlist: bad list row count")
	errRows     = errors.New("rowlist: list claims more rows than its bytes hold")
	errRow      = errors.New("rowlist: truncated list row")
	errValues   = errors.New("rowlist: list row claims too many values")
	errTrailing = errors.New("rowlist: bytes after the list's rows")
)

// Frame is what FrameOf learns of an encoded list without decoding it: its
// flag, where its first row starts (never 0 for a list that framed), and how
// many rows and values decoding it yields.
type Frame struct {
	Exhaustive          bool
	Start, Rows, Values int
}

// FrameOf checks an encoded list's framing and sizes its decode. It refuses a
// non-minimal varint, a flag byte > 1, a row count or value count the bytes
// cannot hold (before anything is sized by it) and trailing bytes, so
// whatever decodes re-encodes byte-identical.
func FrameOf(b []byte) (Frame, error) {
	var f Frame
	if len(b) < 2 {
		return f, errShort
	}
	if b[0] != listVersion {
		return f, errVersion
	}
	if b[1] > 1 {
		return f, errFlag
	}
	f.Exhaustive = b[1] == 1
	count, n := uvarint(b[2:])
	if n <= 0 {
		return f, errCount
	}
	f.Start = 2 + n
	if count > uint64(len(b)-f.Start)/minEncodedRow {
		return f, errRows
	}
	f.Rows = int(count)
	off := f.Start
	for i := 0; i < f.Rows; i++ {
		l, n := uvarint(b[off:])
		if n <= 0 || uint64(len(b)-off-n) < l || l < 4 {
			return f, errRow
		}
		off += n
		f.Values += int(binary.LittleEndian.Uint32(b[off:]))
		off += int(l)
		if f.Values > len(b)/2 { // a value takes two bytes at least
			return f, errValues
		}
	}
	if off != len(b) {
		return f, errTrailing
	}
	return f, nil
}

// DecodeFramed decodes b, which FrameOf framed as f, appending its values to
// vals and its rows — each a capped window of vals — to rows. s holds the
// same bytes as b; text values are substrings of it. With room for f's values
// and rows already in vals and rows, it allocates nothing. On error vals and
// rows come back as they were given.
func DecodeFramed(vals []sqlval.Value, rows []sqlval.Row, b []byte, s string, f Frame) ([]sqlval.Value, []sqlval.Row, error) {
	vals0, rows0 := len(vals), len(rows)
	for i, off := 0, f.Start; i < f.Rows; i++ {
		l, n := uvarint(b[off:])
		off += n
		end := off + int(l)
		from := len(vals)
		var err error
		if vals, err = sqlval.DecodeRowInto(vals, b[off:end], s[off:end]); err != nil {
			return vals[:vals0], rows[:rows0], err
		}
		rows = append(rows, sqlval.Row(vals[from:len(vals):len(vals)]))
		off = end
	}
	return vals, rows, nil
}

// Decode parses an encoded list in three allocations whatever the row count:
// one string copy of b, whose substrings are the text values; one
// []sqlval.Value holding every row's values back to back; and the row
// headers, each a capped subslice of that array. The rows share nothing with
// b, so the caller may reuse b, and an edit to the list (or an append to one
// of its rows) reaches no other decode of the same bytes.
func Decode(b []byte) (List, error) {
	f, err := FrameOf(b)
	if err != nil {
		return List{}, err
	}
	_, rows, err := DecodeFramed(make([]sqlval.Value, 0, f.Values), make([]sqlval.Row, 0, f.Rows), b, string(b), f)
	if err != nil {
		return List{}, err
	}
	return List{Exhaustive: f.Exhaustive, Rows: rows}, nil
}

// uvarint is binary.Uvarint that also refuses a non-minimal encoding, so a
// list that decodes re-encodes to the same bytes.
func uvarint(b []byte) (uint64, int) {
	v, n := binary.Uvarint(b)
	if n > 1 && b[n-1] == 0 {
		return 0, 0
	}
	return v, n
}

// PK extracts the primary key from a row in model schema order (the PK is
// always column 0 for ORM-managed tables).
func PK(r sqlval.Row) int64 { return r[0].I }

// findRowByPK returns the index of the row with the given primary key, or -1.
func findRowByPK(rows []sqlval.Row, pk int64) int {
	for i, r := range rows {
		if PK(r) == pk {
			return i
		}
	}
	return -1
}

// removeRowAt deletes index i preserving order, in place: a list being
// edited is its replay's own.
func removeRowAt(rows []sqlval.Row, i int) []sqlval.Row {
	return append(rows[:i], rows[i+1:]...)
}

// insertRowAt inserts r at index i preserving order.
func insertRowAt(rows []sqlval.Row, i int, r sqlval.Row) []sqlval.Row {
	rows = append(rows, nil)
	copy(rows[i+1:], rows[i:])
	rows[i] = r
	return rows
}
