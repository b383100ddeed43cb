package core

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"cachegenie/internal/sqldb"
)

// goldenRows is one row per value shape the codec carries: every type, NULLs
// of every type, empty text and text with a NUL byte in it.
func goldenRows() []sqldb.Row {
	return []sqldb.Row{
		{sqldb.I64(1), sqldb.Str("hello"), sqldb.Bool(true), sqldb.F64(3.25), sqldb.Time(time.Unix(123, 456000))},
		{sqldb.I64(-9), sqldb.Str(""), sqldb.NullOf(sqldb.TypeBool), sqldb.NullOf(sqldb.TypeFloat), sqldb.NullOf(sqldb.TypeTime)},
		{sqldb.I64(math.MaxInt64), sqldb.Str("a\x00b"), sqldb.Bool(false), sqldb.F64(math.Inf(-1)), sqldb.NullOf(sqldb.TypeText)},
	}
}

// goldenPayload is encodePayload(payload{exhaustive: false, rows:
// goldenRows()}) as every node since PR 20 writes it. Entries outlive the node
// that wrote them, so the encoding may not change.
const goldenPayload = "" +
	"01000337050000000100010000000000000003000500000068656c6c6f04000100000000" +
	"00000002000000000000000a40050088d65407000000001a050000000100f7ffffffffff" +
	"ffff0300000000000401020105012d050000000100ffffffffffffff7f03000300000061" +
	"0062040000000000000000000200000000000000f0ff0301"

func TestPayloadGolden(t *testing.T) {
	enc := encodePayload(payload{rows: goldenRows()})
	if got := hex.EncodeToString(enc); got != goldenPayload {
		t.Fatalf("encodePayload changed its output:\n got  %s\n want %s", got, goldenPayload)
	}
	want, _ := hex.DecodeString(goldenPayload)
	p, err := decodePayload(want)
	if err != nil {
		t.Fatal(err)
	}
	if p.exhaustive || !rowsEqual(p.rows, goldenRows()) {
		t.Fatalf("decoded %+v", p)
	}
}

// rowsEqual compares rows value by value, NULLs by type.
func rowsEqual(a, b []sqldb.Row) bool {
	return slices.EqualFunc(a, b, func(x, y sqldb.Row) bool {
		return slices.EqualFunc(x, y, func(v, w sqldb.Value) bool {
			if v.Null || w.Null {
				return v.Null == w.Null && v.Type == w.Type
			}
			return v.Type == w.Type && sqldb.Compare(v, w) == 0
		})
	})
}

func TestPayloadRoundTrip(t *testing.T) {
	cases := map[string]payload{
		"zero rows":       {exhaustive: true},
		"every type":      {rows: goldenRows()},
		"exhaustive list": {exhaustive: true, rows: goldenRows()[:1]},
		"empty text only": {rows: []sqldb.Row{{sqldb.Str("")}, {sqldb.Str("")}}},
	}
	for name, p := range cases {
		enc := encodePayload(p)
		got, err := decodePayload(enc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.exhaustive != p.exhaustive || len(got.rows) != len(p.rows) || !rowsEqual(got.rows, p.rows) {
			t.Errorf("%s: decoded %+v, want %+v", name, got, p)
		}
		if again := encodePayload(got); !bytes.Equal(again, enc) {
			t.Errorf("%s: re-encoding differs", name)
		}
	}
}

// TestPayloadRowsShareOneBackingArray pins the decode layout: the rows are
// consecutive windows of one value array, each capped so an append to a row
// cannot run into the next.
func TestPayloadRowsShareOneBackingArray(t *testing.T) {
	p, err := decodePayload(encodePayload(payload{rows: goldenRows()}))
	if err != nil {
		t.Fatal(err)
	}
	addr := func(v *sqldb.Value) uintptr { return reflect.ValueOf(v).Pointer() }
	size := reflect.TypeOf(sqldb.Value{}).Size()
	for i, row := range p.rows {
		if cap(row) != len(row) {
			t.Errorf("row %d: cap %d, len %d: not capped", i, cap(row), len(row))
		}
		if prev := p.rows[max(i-1, 0)]; i > 0 && addr(&row[0]) != addr(&prev[len(prev)-1])+size {
			t.Errorf("row %d does not follow row %d in one array", i, i-1)
		}
	}
}

// TestPayloadTopKTruncationOnHit: a cached top-K list holds K plus the
// reserve; a hit serves the first K, straight out of the decoded array.
func TestPayloadTopKTruncationOnHit(t *testing.T) {
	s := newStack(t)
	co := s.cacheable(t, topkSpec(3, 2))
	base := time.Unix(1e6, 0)
	for i := 0; i < 6; i++ {
		postAt(s, t, 1, "p", base.Add(time.Duration(i)*time.Minute))
	}
	for i := 0; i < 2; i++ { // a miss, then a hit
		rows, err := co.Rows(sqldb.I64(1))
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 3 {
			t.Fatalf("pass %d: %d rows, want K=3", i, len(rows))
		}
	}
	raw, ok := s.cache.Get(co.MakeKey(sqldb.I64(1)))
	if !ok {
		t.Fatal("list not cached")
	}
	p, err := decodePayload(raw)
	if err != nil || len(p.rows) != 5 || p.exhaustive {
		t.Fatalf("cached %d rows exhaustive=%v err=%v, want K+reserve=5 of more", len(p.rows), p.exhaustive, err)
	}
}

// TestPayloadEditLeavesOtherDecodesAlone: the write-set edits a decoded list
// in place (keyGroup.compose); a second decode of the same bytes — a reader's,
// say — must not see it.
func TestPayloadEditLeavesOtherDecodesAlone(t *testing.T) {
	enc := encodePayload(payload{rows: goldenRows()})
	mine, err := decodePayload(enc)
	if err != nil {
		t.Fatal(err)
	}
	theirs, err := decodePayload(enc)
	if err != nil {
		t.Fatal(err)
	}
	row := sqldb.Row{sqldb.I64(77), sqldb.Str("new")}
	feature := &CachedObject{spec: Spec{Class: FeatureQuery}}
	(&op{co: feature, kind: opInsert, new: row}).apply(&mine)
	(&op{co: feature, kind: opRemove, old: goldenRows()[0]}).apply(&mine)
	mine.rows = insertRowAt(mine.rows, 0, sqldb.Row{sqldb.I64(5)})
	mine.rows[1] = sqldb.Row{sqldb.I64(-9), sqldb.Str("replaced")}
	mine.rows[2] = append(mine.rows[2], sqldb.Str("grown")) // capped: copies
	clear(enc)                                              // and the raw bytes are reused
	if !rowsEqual(theirs.rows, goldenRows()) {
		t.Fatalf("editing one decode changed another: %+v", theirs.rows)
	}
}

// TestPayloadRejectsBadInput: truncations and lying counts error — no panic,
// and no allocation sized by the lie.
func TestPayloadRejectsBadInput(t *testing.T) {
	enc := encodePayload(payload{rows: goldenRows()})
	for cut := 0; cut < len(enc); cut++ {
		if _, err := decodePayload(enc[:cut]); err == nil {
			t.Errorf("decoded a payload cut to %d of %d bytes", cut, len(enc))
		}
	}
	if _, err := decodePayload(append(slices.Clip(enc), 0)); err == nil {
		t.Error("decoded a payload with a trailing byte")
	}
	huge := binary.AppendUvarint([]byte{payloadVersion, 0}, 1<<40)
	huge = append(huge, make([]byte, 64)...)
	// TotalAlloc is process-wide, so a goroutine left over from another test
	// can allocate inside the window: keep the smallest of a few tries.
	least := ^uint64(0)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := decodePayload(huge); err == nil {
			t.Fatal("decoded a payload claiming 2^40 rows")
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > 1<<12 {
		t.Errorf("rejecting a lying row count allocated %d bytes", least)
	}
	// One row whose value count claims far more values than the bytes hold.
	lying := binary.AppendUvarint([]byte{payloadVersion, 0}, 1)
	lying = binary.AppendUvarint(lying, 8)
	lying = binary.LittleEndian.AppendUint32(lying, 1<<31)
	lying = append(lying, 1, 1, 1, 1)
	if _, err := decodePayload(lying); err == nil {
		t.Error("decoded a row claiming 2^31 values")
	}
}

// TestDecodePayloadAllocs is the decode ceiling: a 10-row list is three
// allocations — the text copy, the value array, the row headers — not one
// per row or per text value.
func TestDecodePayloadAllocs(t *testing.T) {
	rows := make([]sqldb.Row, 10)
	for i := range rows {
		rows[i] = sqldb.Row{sqldb.I64(int64(i)), sqldb.I64(7), sqldb.Str("some content"), sqldb.Str("note"), sqldb.Time(time.Unix(int64(i), 0))}
	}
	enc := encodePayload(payload{rows: rows})
	if n := testing.AllocsPerRun(100, func() {
		if _, err := decodePayload(enc); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Errorf("decoding a 10-row list: %.0f allocs, want <= 3", n)
	}
}

// FuzzDecodePayload: whatever decodes re-encodes to the same bytes, and
// nothing panics. Whatever decodes also decodes through a read wave, between
// two golden payloads, to rows that re-encode to the same bytes, and leaves
// its neighbours' rows intact.
func FuzzDecodePayload(f *testing.F) {
	golden := encodePayload(payload{rows: goldenRows()})
	co := &CachedObject{spec: Spec{Class: FeatureQuery}}
	f.Add(encodePayload(payload{}))
	f.Add(encodePayload(payload{exhaustive: true}))
	f.Add(encodePayload(payload{rows: goldenRows()}))
	f.Add(encodePayload(payload{exhaustive: true, rows: goldenRows()[1:2]}))
	f.Add([]byte{payloadVersion, 0, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := decodePayload(b)
		if err != nil {
			return
		}
		if again := encodePayload(p); !bytes.Equal(again, b) {
			t.Fatalf("decode/encode not byte-identical:\n in  %x\n out %x", b, again)
		}
		reads := parkWave([]parkedHit{{co, golden}, {co, b}, {co, golden}})
		for i, want := range [][]byte{golden, b, golden} {
			l := &reads[i]
			if !l.decoded {
				t.Fatalf("wave entry %d did not decode: %x", i, want)
			}
			if again := encodePayload(payload{exhaustive: want[1] == 1, rows: l.rows}); !bytes.Equal(again, want) {
				t.Fatalf("wave entry %d decoded to other rows:\n in  %x\n out %x", i, want, again)
			}
		}
	})
}
