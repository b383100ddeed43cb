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
	"strings"
	"time"

	"cachegenie/internal/sqlval"
)

// The value type and its row encoding live in sqlval, which a cache node
// links without the engine; sqldb re-exports them under their old names.
type (
	// Type enumerates column types.
	Type = sqlval.Type
	// Value is a single typed SQL value. The zero Value is NULL of unknown
	// type.
	Value = sqlval.Value
	// Row is one table row; column order matches the table schema.
	Row = sqlval.Row
)

// Column types.
const (
	TypeInt   = sqlval.TypeInt
	TypeFloat = sqlval.TypeFloat
	TypeText  = sqlval.TypeText
	TypeBool  = sqlval.TypeBool
	TypeTime  = sqlval.TypeTime
)

// I64 makes an INT value.
func I64(v int64) Value { return sqlval.I64(v) }

// F64 makes a FLOAT value.
func F64(v float64) Value { return sqlval.F64(v) }

// Str makes a TEXT value.
func Str(s string) Value { return sqlval.Str(s) }

// Bool makes a BOOL value.
func Bool(b bool) Value { return sqlval.Bool(b) }

// Time makes a TIMESTAMP value (microsecond precision).
func Time(t time.Time) Value { return sqlval.Time(t) }

// NullOf makes a NULL of the given type.
func NullOf(t Type) Value { return sqlval.NullOf(t) }

// Compare orders a against b (sqlval.Compare).
func Compare(a, b Value) int { return sqlval.Compare(a, b) }

// Equal reports value equality, NULL equal to nothing (sqlval.Equal).
func Equal(a, b Value) bool { return sqlval.Equal(a, b) }

// EncodeRow appends r's row encoding to dst (sqlval.EncodeRow). It is the
// heap's and the redo log's row format, and a cached list's.
func EncodeRow(dst []byte, r Row) []byte { return sqlval.EncodeRow(dst, r) }

// DecodeRow parses an EncodeRow payload (sqlval.DecodeRow).
func DecodeRow(b []byte) (Row, error) { return sqlval.DecodeRow(b) }

// DecodeRowInto parses an EncodeRow payload, appending its values to dst
// (sqlval.DecodeRowInto).
func DecodeRowInto(dst []Value, b []byte, s string) ([]Value, error) {
	return sqlval.DecodeRowInto(dst, b, s)
}

// EncodedRowLen is the length of r's EncodeRow encoding.
func EncodedRowLen(r Row) int { return sqlval.EncodedRowLen(r) }

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
