package sqldb

import (
	"bytes"
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestCompareBasics(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{I64(1), I64(2), -1},
		{I64(2), I64(2), 0},
		{I64(3), I64(2), 1},
		{F64(1.5), I64(2), -1},
		{I64(2), F64(1.5), 1},
		{Str("a"), Str("b"), -1},
		{Bool(false), Bool(true), -1},
		{NullOf(TypeInt), I64(-100), -1},
		{NullOf(TypeInt), NullOf(TypeText), 0},
		{Time(time.Unix(1, 0)), Time(time.Unix(2, 0)), -1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEqualNullNeverEqual(t *testing.T) {
	if Equal(NullOf(TypeInt), NullOf(TypeInt)) {
		t.Fatal("NULL = NULL should be false")
	}
	if Equal(NullOf(TypeInt), I64(0)) {
		t.Fatal("NULL = 0 should be false")
	}
}

// TestQuickEncodeKeyOrderInt: key encoding preserves int order.
func TestQuickEncodeKeyOrderInt(t *testing.T) {
	f := func(a, b int64) bool {
		ka := EncodeKey(nil, I64(a))
		kb := EncodeKey(nil, I64(b))
		cmp := bytes.Compare(ka, kb)
		want := Compare(I64(a), I64(b))
		return cmp == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEncodeKeyOrderFloat(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		ka := EncodeKey(nil, F64(a))
		kb := EncodeKey(nil, F64(b))
		return bytes.Compare(ka, kb) == Compare(F64(a), F64(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEncodeKeyOrderString(t *testing.T) {
	f := func(a, b string) bool {
		ka := EncodeKey(nil, Str(a))
		kb := EncodeKey(nil, Str(b))
		return bytes.Compare(ka, kb) == Compare(Str(a), Str(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeKeyStringPrefixSafety(t *testing.T) {
	// Composite keys must not confuse ("ab","c") with ("a","bc").
	k1 := EncodeKey(EncodeKey(nil, Str("ab")), Str("c"))
	k2 := EncodeKey(EncodeKey(nil, Str("a")), Str("bc"))
	if bytes.Equal(k1, k2) {
		t.Fatal("composite string keys collide")
	}
	// Embedded NULs must stay ordered and unambiguous.
	k3 := EncodeKey(nil, Str("a\x00b"))
	k4 := EncodeKey(nil, Str("a"))
	if bytes.Compare(k4, k3) >= 0 {
		t.Fatal(`"a" should sort before "a\x00b"`)
	}
}

func TestEncodeKeyNullSortsFirst(t *testing.T) {
	kn := EncodeKey(nil, NullOf(TypeInt))
	kv := EncodeKey(nil, I64(math.MinInt64))
	if bytes.Compare(kn, kv) >= 0 {
		t.Fatal("NULL key should sort before all values")
	}
}

func TestRowCodecRoundTrip(t *testing.T) {
	rows := []Row{
		{I64(1), Str("hello"), Bool(true), F64(3.25), Time(time.Unix(123, 456000))},
		{I64(-9), Str(""), NullOf(TypeBool), NullOf(TypeFloat), NullOf(TypeTime)},
		{I64(0), Str("with\x00nul and 'quotes'"), Bool(false), F64(math.Inf(1)), Time(time.Unix(0, 0))},
	}
	for _, r := range rows {
		enc := encodeRow(nil, r)
		dec, err := decodeRow(enc)
		if err != nil {
			t.Fatal(err)
		}
		if len(dec) != len(r) {
			t.Fatalf("len = %d, want %d", len(dec), len(r))
		}
		for i := range r {
			if r[i].Null != dec[i].Null || r[i].Type != dec[i].Type {
				t.Fatalf("col %d: %+v != %+v", i, dec[i], r[i])
			}
			if !r[i].Null && Compare(r[i], dec[i]) != 0 {
				t.Fatalf("col %d: %v != %v", i, dec[i], r[i])
			}
		}
	}
}

func TestQuickRowCodec(t *testing.T) {
	f := func(i int64, s string, b bool, fl float64) bool {
		if math.IsNaN(fl) {
			return true
		}
		r := Row{I64(i), Str(s), Bool(b), F64(fl)}
		dec, err := decodeRow(encodeRow(nil, r))
		if err != nil {
			return false
		}
		return Compare(dec[0], r[0]) == 0 && Compare(dec[1], r[1]) == 0 &&
			Compare(dec[2], r[2]) == 0 && Compare(dec[3], r[3]) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeRowInto: rows append to one dst; with s = string(b) the decode
// allocates nothing, and a failed decode leaves dst as it was.
func TestDecodeRowInto(t *testing.T) {
	a := encodeRow(nil, Row{I64(1), Str("hello"), NullOf(TypeText)})
	b := encodeRow(nil, Row{Str(""), Str("x\x00y"), F64(-2)})
	dst := make([]Value, 0, 6)
	sa := string(a)
	if n := testing.AllocsPerRun(100, func() {
		var err error
		if _, err = DecodeRowInto(dst[:0], a, sa); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("decoding into room with the text given: %.0f allocs", n)
	}
	out, err := DecodeRowInto(dst, a, sa)
	if err != nil {
		t.Fatal(err)
	}
	out, err = DecodeRowInto(out, b, "") // texts copied out of b
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 6 || &out[0] != &dst[:1][0] || out[1].S != "hello" || !out[2].Null || out[4].S != "x\x00y" || out[5].F != -2 {
		t.Fatalf("decoded %+v", out)
	}
	clear(b)
	if out[4].S != "x\x00y" {
		t.Error("a text value aliases the record it was copied from")
	}
	for _, bad := range [][]byte{
		append(slices.Clone(a), 0),            // trailing byte
		{1, 0, 0, 0, byte(TypeInt), 2},        // null flag neither 0 nor 1
		{0xff, 0xff, 0xff, 0x7f, 1, 1, 1, 1},  // count the bytes cannot hold
		{1, 0, 0, 0, 99, 0, 0, 0, 0, 0, 0, 0}, // unknown type
	} {
		got, err := DecodeRowInto(out[:2], bad, string(bad))
		if err == nil || len(got) != 2 {
			t.Errorf("%x: err %v, dst len %d; want an error and dst unchanged", bad, err, len(got))
		}
	}
}

func TestDecodeRowCorruption(t *testing.T) {
	r := Row{I64(1), Str("x")}
	enc := encodeRow(nil, r)
	for cut := 0; cut < len(enc); cut++ {
		if _, err := decodeRow(enc[:cut]); err == nil && cut < len(enc) {
			// Some prefixes may decode as shorter valid rows only if the
			// count matches; the count is in the first 4 bytes so any cut
			// below full length must error.
			t.Fatalf("decode of %d/%d bytes succeeded", cut, len(enc))
		}
	}
}
