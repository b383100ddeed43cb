package core

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"strconv"

	"cachegenie/internal/sqldb"
)

// payload is the cached value for row-valued cached objects: the raw result
// rows plus, for top-K lists, whether the list is exhaustive (contains every
// matching row in the database, so deletes never require recomputation).
type payload struct {
	exhaustive bool
	rows       []sqldb.Row
}

const payloadVersion = 1

// encodePayload serializes a payload for the cache, in one allocation of
// exactly its size.
func encodePayload(p payload) []byte {
	size := 2 + uvarintLen(len(p.rows))
	for _, r := range p.rows {
		n := sqldb.EncodedRowLen(r)
		size += uvarintLen(n) + n
	}
	out := make([]byte, 2, size)
	out[0] = payloadVersion
	if p.exhaustive {
		out[1] = 1
	}
	out = binary.AppendUvarint(out, uint64(len(p.rows)))
	for _, r := range p.rows {
		out = binary.AppendUvarint(out, uint64(sqldb.EncodedRowLen(r)))
		out = sqldb.EncodeRow(out, r)
	}
	return out
}

// uvarintLen is the length of n's uvarint encoding.
func uvarintLen(n int) int { return (bits.Len64(uint64(n)|1) + 6) / 7 }

// minEncodedRow is the fewest bytes a row takes in a payload: its one-byte
// length and EncodeRow's four-byte value count.
const minEncodedRow = 1 + 4

// Why framePayload refuses a payload. Sentinels, so framing a wave's hits
// allocates nothing.
var (
	errPayloadShort    = errors.New("core: payload too short")
	errPayloadVersion  = errors.New("core: payload version unsupported")
	errPayloadFlag     = errors.New("core: bad payload flag")
	errPayloadCount    = errors.New("core: bad payload row count")
	errPayloadRows     = errors.New("core: payload claims more rows than its bytes hold")
	errPayloadRow      = errors.New("core: truncated payload row")
	errPayloadValues   = errors.New("core: payload row claims too many values")
	errPayloadTrailing = errors.New("core: bytes after the payload's rows")
)

// frame is what framePayload learns of a payload without decoding it: its
// flag, where its first row starts, and how many rows and values decoding it
// yields.
type frame struct {
	exhaustive   bool
	start        int
	rows, values int
}

// framePayload checks an encodePayload value's framing and sizes its decode.
// It refuses a non-minimal varint, a flag byte > 1, a row count or value count
// the bytes cannot hold (before anything is sized by it) and trailing bytes, so
// whatever decodes re-encodes byte-identical.
func framePayload(b []byte) (frame, error) {
	var f frame
	if len(b) < 2 {
		return f, errPayloadShort
	}
	if b[0] != payloadVersion {
		return f, errPayloadVersion
	}
	if b[1] > 1 {
		return f, errPayloadFlag
	}
	f.exhaustive = b[1] == 1
	count, n := uvarint(b[2:])
	if n <= 0 {
		return f, errPayloadCount
	}
	f.start = 2 + n
	if count > uint64(len(b)-f.start)/minEncodedRow {
		return f, errPayloadRows
	}
	f.rows = int(count)
	off := f.start
	for i := 0; i < f.rows; i++ {
		l, n := uvarint(b[off:])
		if n <= 0 || uint64(len(b)-off-n) < l || l < 4 {
			return f, errPayloadRow
		}
		off += n
		f.values += int(binary.LittleEndian.Uint32(b[off:]))
		off += int(l)
		if f.values > len(b)/2 { // a value takes two bytes at least
			return f, errPayloadValues
		}
	}
	if off != len(b) {
		return f, errPayloadTrailing
	}
	return f, nil
}

// decodeFramed decodes b, which framePayload framed as f, appending its values
// to vals and its rows — each a capped window of vals — to rows. s holds the
// same bytes as b; text values are substrings of it. With room for f's values
// and rows already in vals and rows, it allocates nothing. On error vals and
// rows come back as they were given.
func decodeFramed(vals []sqldb.Value, rows []sqldb.Row, b []byte, s string, f frame) ([]sqldb.Value, []sqldb.Row, error) {
	vals0, rows0 := len(vals), len(rows)
	for i, off := 0, f.start; i < f.rows; i++ {
		l, n := uvarint(b[off:])
		off += n
		end := off + int(l)
		from := len(vals)
		var err error
		if vals, err = sqldb.DecodeRowInto(vals, b[off:end], s[off:end]); err != nil {
			return vals[:vals0], rows[:rows0], err
		}
		rows = append(rows, sqldb.Row(vals[from:len(vals):len(vals)]))
		off = end
	}
	return vals, rows, nil
}

// decodePayload parses an encodePayload value in three allocations whatever
// the row count: one string copy of b, whose substrings are the text values;
// one []sqldb.Value holding every row's values back to back; and the row
// headers, each a capped subslice of that array. The rows share nothing with
// b, so the caller may reuse b, and an edit to the list (or an append to one
// of its rows) reaches no other decode of the same bytes. A read wave decodes
// all its hits the same way at once (decodeWave).
func decodePayload(b []byte) (payload, error) {
	f, err := framePayload(b)
	if err != nil {
		return payload{}, err
	}
	_, rows, err := decodeFramed(make([]sqldb.Value, 0, f.values), make([]sqldb.Row, 0, f.rows), b, string(b), f)
	if err != nil {
		return payload{}, err
	}
	return payload{exhaustive: f.exhaustive, rows: rows}, nil
}

// uvarint is binary.Uvarint that also refuses a non-minimal encoding, so a
// payload that decodes re-encodes to the same bytes.
func uvarint(b []byte) (uint64, int) {
	v, n := binary.Uvarint(b)
	if n > 1 && b[n-1] == 0 {
		return 0, 0
	}
	return v, n
}

// appendKeyValue renders one lookup value onto a cache key. Strings are
// percent-escaped so a value can contain neither the key separator, nor a
// brace that would open or close the key's placement tag, nor any byte the
// text protocol refuses in a key (space, control characters, DEL): a lookup
// on a string with a tab or newline still names a cacheable key.
func appendKeyValue(b []byte, v sqldb.Value) []byte {
	if v.Null {
		return append(b, "~null~"...)
	}
	switch v.Type {
	case sqldb.TypeInt, sqldb.TypeBool, sqldb.TypeTime:
		return strconv.AppendInt(b, v.I, 10)
	case sqldb.TypeFloat:
		return strconv.AppendFloat(b, v.F, 'g', -1, 64)
	}
	const hex = "0123456789ABCDEF"
	for i := 0; i < len(v.S); i++ {
		if c := v.S[i]; c == '%' || c == ':' || c == '{' || c == '}' || c <= ' ' || c == 0x7f {
			b = append(b, '%', hex[c>>4], hex[c&15])
		} else {
			b = append(b, c)
		}
	}
	return b
}

// rowPK extracts the primary key from a row in model schema order (the PK is
// always column 0 for ORM-managed tables).
func rowPK(r sqldb.Row) int64 { return r[0].I }

// findRowByPK returns the index of the row with the given primary key,
// or -1.
func findRowByPK(rows []sqldb.Row, pk int64) int {
	for i, r := range rows {
		if rowPK(r) == pk {
			return i
		}
	}
	return -1
}

// removeRowAt deletes index i preserving order.
func removeRowAt(rows []sqldb.Row, i int) []sqldb.Row {
	return append(rows[:i:i], rows[i+1:]...)
}

// insertRowAt inserts r at index i preserving order.
func insertRowAt(rows []sqldb.Row, i int, r sqldb.Row) []sqldb.Row {
	rows = append(rows, nil)
	copy(rows[i+1:], rows[i:])
	rows[i] = r
	return rows
}
