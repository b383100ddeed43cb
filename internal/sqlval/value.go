// Package sqlval is the typed SQL value and its row encoding: what the
// database engine (sqldb) stores in its heap and redo log, and what a cached
// row list (rowlist) holds. It imports only the standard library, so a cache
// node that edits cached lists links it without the engine; sqldb re-exports
// every name here.
package sqlval

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strconv"
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
		af, bf := a.Numeric(), b.Numeric()
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

// Numeric is an INT or FLOAT value as a float64.
func (v Value) Numeric() float64 {
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

// Row is one table row; column order matches the table schema.
type Row []Value

// EncodeRow appends a compact binary encoding of r to dst, growing it at most
// once, to fit r exactly (EncodedRowLen). It is the heap's and the redo log's
// row format, and CacheGenie uses it to store raw query results in the cache
// (the paper caches raw rows, not ORM objects, §3.1).
func EncodeRow(dst []byte, r Row) []byte {
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
			panic(fmt.Sprintf("sqlval: EncodeRow of invalid type %v", v.Type))
		}
	}
	return dst
}

// DecodeRow parses an EncodeRow payload, copying its text values out of b.
func DecodeRow(b []byte) (Row, error) {
	row, err := DecodeRowInto(nil, b, "")
	if err != nil {
		return nil, err
	}
	return row, nil
}

// DecodeRowInto parses an EncodeRow payload, appending its values to dst. s
// is either string(b) — then every text value is a substring of it and the
// row costs no allocation beyond dst's growth — or "", and each text value is
// copied out of b. Decoding many rows into one dst and one string is how a
// cached list becomes a single backing array (rowlist.Decode). On error
// dst comes back with its length unchanged (its spare capacity may have been
// written).
func DecodeRowInto(dst []Value, b []byte, s string) ([]Value, error) {
	if len(b) < 4 {
		return dst, fmt.Errorf("sqlval: short row record (%d bytes)", len(b))
	}
	n := binary.LittleEndian.Uint32(b[:4])
	// Every value takes at least two bytes, which bounds what a corrupt count
	// can make us allocate.
	if uint64(n) > uint64(len(b)-4)/2 {
		return dst, fmt.Errorf("sqlval: row record claims %d values in %d bytes", n, len(b))
	}
	out := slices.Grow(dst, int(n))
	off := 4
	for i := uint32(0); i < n; i++ {
		if len(b)-off < 2 {
			return dst, fmt.Errorf("sqlval: truncated row value %d", i)
		}
		t, flag := Type(b[off]), b[off+1]
		off += 2
		if flag > 1 {
			return dst, fmt.Errorf("sqlval: bad null flag %d in row value %d", flag, i)
		}
		if flag == 1 {
			out = append(out, NullOf(t))
			continue
		}
		switch t {
		case TypeInt, TypeBool, TypeTime:
			if len(b)-off < 8 {
				return dst, fmt.Errorf("sqlval: truncated int value %d", i)
			}
			out = append(out, Value{Type: t, I: int64(binary.LittleEndian.Uint64(b[off:]))})
			off += 8
		case TypeFloat:
			if len(b)-off < 8 {
				return dst, fmt.Errorf("sqlval: truncated float value %d", i)
			}
			out = append(out, Value{Type: t, F: math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))})
			off += 8
		case TypeText:
			if len(b)-off < 4 {
				return dst, fmt.Errorf("sqlval: truncated text length %d", i)
			}
			l := uint64(binary.LittleEndian.Uint32(b[off:]))
			off += 4
			if uint64(len(b)-off) < l {
				return dst, fmt.Errorf("sqlval: truncated text value %d", i)
			}
			end := off + int(l)
			if s != "" {
				out = append(out, Str(s[off:end]))
			} else {
				out = append(out, Str(string(b[off:end])))
			}
			off = end
		default:
			return dst, fmt.Errorf("sqlval: bad type tag %d in row value %d", t, i)
		}
	}
	if off != len(b) {
		return dst, fmt.Errorf("sqlval: %d bytes after the row's values", len(b)-off)
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
