// Package sqldb implements the relational database engine that plays the
// role of PostgreSQL in the paper's stack: typed tables stored in slotted
// pages behind a buffer pool, B+tree secondary indexes, a planner/executor
// for the SQL subset in package sqlparse, table-granularity two-phase
// locking with rollback, and — centrally for CacheGenie — synchronous
// row-level AFTER triggers for INSERT, UPDATE and DELETE.
//
// A statement reads per statement, not per row: each table's matched
// records are copied out of their pinned pages into one buffer and decoded
// together (DecodeRowInto) into one text string, one value array and one row
// array, and a SELECT's result rows are capped windows of one value slab.
// Nothing is pooled, so every row is GC-owned — and a row held anywhere, a
// ResultSet's or a trigger event's, keeps its whole statement's decode alive.
//
// A statement writes per statement too, and the heap and the redo log share
// one encoding. A stored row is encoded once (EncodeRow, sized before it is
// written), inside its redo record: each change is framed in the WAL's
// record layout, in the transaction's one log buffer, as the statement makes
// it, and the heap copies the row's bytes from there. Commit hands the WAL
// writer that buffer whole. Index keys are rendered into stack space, since
// the tree copies a key it keeps, and a transaction's table locks live
// inside the Txn.
package sqldb

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Type enumerates column types.
type Type int

// Column types.
const (
	TypeInt Type = iota + 1
	TypeFloat
	TypeText
	TypeBool
	TypeTime
)

var typeNames = map[Type]string{
	TypeInt: "INT", TypeFloat: "FLOAT", TypeText: "TEXT",
	TypeBool: "BOOL", TypeTime: "TIMESTAMP",
}

// String implements fmt.Stringer.
func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// Value is a single typed SQL value. The zero Value is NULL of unknown type.
type Value struct {
	Type Type
	Null bool
	// I holds ints, bools (0/1) and times (microseconds since the Unix
	// epoch); F holds floats; S holds text.
	I int64
	F float64
	S string
}

// I64 makes an INT value.
func I64(v int64) Value { return Value{Type: TypeInt, I: v} }

// F64 makes a FLOAT value.
func F64(v float64) Value { return Value{Type: TypeFloat, F: v} }

// Str makes a TEXT value.
func Str(s string) Value { return Value{Type: TypeText, S: s} }

// Bool makes a BOOL value.
func Bool(b bool) Value {
	var i int64
	if b {
		i = 1
	}
	return Value{Type: TypeBool, I: i}
}

// Time makes a TIMESTAMP value (microsecond precision).
func Time(t time.Time) Value { return Value{Type: TypeTime, I: t.UnixMicro()} }

// NullOf makes a NULL of the given type.
func NullOf(t Type) Value { return Value{Type: t, Null: true} }

// AsTime converts a TIMESTAMP value back to time.Time.
func (v Value) AsTime() time.Time { return time.UnixMicro(v.I).UTC() }

// AsBool reports the value as a boolean.
func (v Value) AsBool() bool { return v.I != 0 }

// IsNumeric reports whether the value is INT or FLOAT.
func (v Value) IsNumeric() bool { return v.Type == TypeInt || v.Type == TypeFloat }

// String implements fmt.Stringer for debugging and result rendering.
func (v Value) String() string {
	if v.Null {
		return "NULL"
	}
	switch v.Type {
	case TypeInt:
		return strconv.FormatInt(v.I, 10)
	case TypeFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case TypeText:
		return v.S
	case TypeBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case TypeTime:
		return v.AsTime().Format(time.RFC3339Nano)
	}
	return "<invalid>"
}

// Compare orders a against b: -1, 0, or +1. NULL sorts before everything.
// INT and FLOAT compare numerically with each other; all other cross-type
// comparisons order by type id (they should not occur in well-typed plans).
func Compare(a, b Value) int {
	if a.Null || b.Null {
		switch {
		case a.Null && b.Null:
			return 0
		case a.Null:
			return -1
		default:
			return 1
		}
	}
	if a.IsNumeric() && b.IsNumeric() {
		af, bf := a.numeric(), b.numeric()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	if a.Type != b.Type {
		if a.Type < b.Type {
			return -1
		}
		return 1
	}
	switch a.Type {
	case TypeText:
		switch {
		case a.S < b.S:
			return -1
		case a.S > b.S:
			return 1
		default:
			return 0
		}
	default: // TypeBool, TypeTime (and TypeInt handled above)
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		default:
			return 0
		}
	}
}

func (v Value) numeric() float64 {
	if v.Type == TypeFloat {
		return v.F
	}
	return float64(v.I)
}

// Equal reports value equality under Compare semantics, except that NULL is
// never equal to anything (SQL three-valued logic collapsed to false).
func Equal(a, b Value) bool {
	if a.Null || b.Null {
		return false
	}
	return Compare(a, b) == 0
}

// EncodeKey appends an order-preserving encoding of v to dst, so that
// bytes.Compare over encodings matches Compare over values (within one
// column type). Used for B+tree index keys. dst grows at most once, to fit v
// exactly.
func EncodeKey(dst []byte, v Value) []byte {
	if v.Null {
		return append(dst, 0x00)
	}
	dst = append(slices.Grow(dst, keyLen(v)), 0x01)
	switch v.Type {
	case TypeInt, TypeBool, TypeTime:
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], uint64(v.I)^(1<<63)) // flip sign bit
		return append(dst, buf[:]...)
	case TypeFloat:
		bits := math.Float64bits(v.F)
		if v.F >= 0 {
			bits ^= 1 << 63
		} else {
			bits = ^bits
		}
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], bits)
		return append(dst, buf[:]...)
	case TypeText:
		// Escape 0x00 as 0x00 0xFF and terminate with 0x00 0x01 so shorter
		// strings sort before their extensions.
		for i := 0; i < len(v.S); i++ {
			if v.S[i] == 0x00 {
				dst = append(dst, 0x00, 0xFF)
			} else {
				dst = append(dst, v.S[i])
			}
		}
		return append(dst, 0x00, 0x01)
	}
	panic(fmt.Sprintf("sqldb: EncodeKey of invalid value type %v", v.Type))
}

// keyLen is the length of v's EncodeKey encoding.
func keyLen(v Value) int {
	switch {
	case v.Null:
		return 1
	case v.Type != TypeText:
		return 1 + 8
	}
	return 1 + len(v.S) + strings.Count(v.S, "\x00") + 2
}

// Row is one table row; column order matches the table schema.
type Row []Value

// EncodeRow appends a compact binary encoding of r to dst, growing it at most
// once, to fit r exactly (EncodedRowLen). It is the heap's and the redo log's
// row format, and CacheGenie uses it to store raw query results in the cache
// (the paper caches raw rows, not ORM objects, §3.1).
func EncodeRow(dst []byte, r Row) []byte { return encodeRow(dst, r) }

// DecodeRow parses an EncodeRow payload.
func DecodeRow(b []byte) (Row, error) { return decodeRow(b) }

// DecodeRowInto parses an EncodeRow payload, appending its values to dst. s
// is either string(b) — then every text value is a substring of it and the
// row costs no allocation beyond dst's growth — or "", and each text value is
// copied out of b. Decoding many rows into one dst and one string is how a
// cached list becomes a single backing array (core.decodePayload). On error
// dst comes back with its length unchanged (its spare capacity may have been
// written).
func DecodeRowInto(dst []Value, b []byte, s string) ([]Value, error) {
	if len(b) < 4 {
		return dst, fmt.Errorf("sqldb: short row record (%d bytes)", len(b))
	}
	n := binary.LittleEndian.Uint32(b[:4])
	// Every value takes at least two bytes, which bounds what a corrupt count
	// can make us allocate.
	if uint64(n) > uint64(len(b)-4)/2 {
		return dst, fmt.Errorf("sqldb: row record claims %d values in %d bytes", n, len(b))
	}
	out := slices.Grow(dst, int(n))
	off := 4
	for i := uint32(0); i < n; i++ {
		if len(b)-off < 2 {
			return dst, fmt.Errorf("sqldb: truncated row value %d", i)
		}
		t, flag := Type(b[off]), b[off+1]
		off += 2
		if flag > 1 {
			return dst, fmt.Errorf("sqldb: bad null flag %d in row value %d", flag, i)
		}
		if flag == 1 {
			out = append(out, NullOf(t))
			continue
		}
		switch t {
		case TypeInt, TypeBool, TypeTime:
			if len(b)-off < 8 {
				return dst, fmt.Errorf("sqldb: truncated int value %d", i)
			}
			out = append(out, Value{Type: t, I: int64(binary.LittleEndian.Uint64(b[off:]))})
			off += 8
		case TypeFloat:
			if len(b)-off < 8 {
				return dst, fmt.Errorf("sqldb: truncated float value %d", i)
			}
			out = append(out, Value{Type: t, F: math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))})
			off += 8
		case TypeText:
			if len(b)-off < 4 {
				return dst, fmt.Errorf("sqldb: truncated text length %d", i)
			}
			l := uint64(binary.LittleEndian.Uint32(b[off:]))
			off += 4
			if uint64(len(b)-off) < l {
				return dst, fmt.Errorf("sqldb: truncated text value %d", i)
			}
			end := off + int(l)
			if s != "" {
				out = append(out, Str(s[off:end]))
			} else {
				out = append(out, Str(string(b[off:end])))
			}
			off = end
		default:
			return dst, fmt.Errorf("sqldb: bad type tag %d in row value %d", t, i)
		}
	}
	if off != len(b) {
		return dst, fmt.Errorf("sqldb: %d bytes after the row's values", len(b)-off)
	}
	return out, nil
}

// Clone returns a deep-enough copy (Values are value types).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// EncodedRowLen is the length of r's EncodeRow encoding.
func EncodedRowLen(r Row) int {
	n := 4
	for i := range r {
		switch v := &r[i]; {
		case v.Null:
			n += 2
		case v.Type == TypeText:
			n += 2 + 4 + len(v.S)
		default:
			n += 2 + 8
		}
	}
	return n
}

// encodeRow serializes a row for heap storage. It grows dst once, to the
// row's exact size, before writing.
func encodeRow(dst []byte, r Row) []byte {
	var n4 [4]byte
	binary.LittleEndian.PutUint32(n4[:], uint32(len(r)))
	dst = append(slices.Grow(dst, EncodedRowLen(r)), n4[:]...)
	for _, v := range r {
		dst = append(dst, byte(v.Type))
		if v.Null {
			dst = append(dst, 1)
			continue
		}
		dst = append(dst, 0)
		switch v.Type {
		case TypeInt, TypeBool, TypeTime:
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(v.I))
			dst = append(dst, b[:]...)
		case TypeFloat:
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v.F))
			dst = append(dst, b[:]...)
		case TypeText:
			binary.LittleEndian.PutUint32(n4[:], uint32(len(v.S)))
			dst = append(dst, n4[:]...)
			dst = append(dst, v.S...)
		default:
			panic(fmt.Sprintf("sqldb: encodeRow invalid type %v", v.Type))
		}
	}
	return dst
}

// decodeRow deserializes a heap record (which the page may reuse, so text
// values are copied out of it).
func decodeRow(b []byte) (Row, error) {
	row, err := DecodeRowInto(nil, b, "")
	if err != nil {
		return nil, err
	}
	return row, nil
}
