package rowlist

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"cachegenie/internal/sqlval"
)

// row is a (pk, value, text) row: a top-K list sorts by value, a link list's
// target field and a relation row's join field are both column 1.
func row(pk, v int64) sqlval.Row {
	return sqlval.Row{sqlval.I64(pk), sqlval.I64(v), sqlval.Str(fmt.Sprintf("text of %d", pk))}
}

var shapes = map[string]Shape{
	"feature": {Class: Feature},
	"link":    {Class: Link, TargetCol: 1, JoinCol: 1},
	"topk":    {Class: TopK, SortCol: 1, Desc: true, K: 3, Limit: 5},
}

// edit encodes ops as one edit under s.
func edit(s Shape, ops ...Op) []byte {
	n := ShapeLen(s)
	for i := range ops {
		n += OpLen(&ops[i])
	}
	b := AppendShape(make([]byte, 0, n), s)
	for i := range ops {
		b = AppendOp(b, &ops[i])
	}
	if len(b) != n {
		panic(fmt.Sprintf("edit is %d bytes, sized %d", len(b), n))
	}
	return b
}

// randomOp draws a list edit over a few primary keys.
func randomOp(rng *rand.Rand, s Shape) Op {
	pk, v := rng.Int63n(8), rng.Int63n(50)
	switch k := Kind(rng.Intn(5)); {
	case k == Append && s.Class == Link:
		return Op{Kind: Append, Rows: []sqlval.Row{row(pk, v), row(pk+1, v)}}
	case k == Unlink && s.Class == Link:
		return Op{Kind: Unlink, Old: row(99, v%5)}
	case k == Replace:
		return Op{Kind: Replace, Old: row(pk, rng.Int63n(50)), New: row(pk, v)}
	case k == Remove:
		return Op{Kind: Remove, Old: row(pk, v)}
	}
	return Op{Kind: Insert, New: row(pk, v)}
}

// TestReplayMatchesApply: replaying an edit over an encoded list leaves the
// bytes that applying its ops to the decoded list and encoding it does, and
// counts one update per op that changed the list; a short top-K list is
// dropped instead.
func TestReplayMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var sc Scratch
	for name, s := range shapes {
		for round := 0; round < 300; round++ {
			var l List
			l.Exhaustive = rng.Intn(2) == 0
			for i := rng.Intn(6); i > 0; i-- {
				l.Rows = append(l.Rows, row(rng.Int63n(8), rng.Int63n(50)))
			}
			if s.Class == TopK {
				l.Rows = nil
				for i := int64(0); i < int64(rng.Intn(6)); i++ {
					l.Rows = append(l.Rows, row(10+i, 60-10*i))
				}
			}
			cur := Encode(l)
			ops := make([]Op, 1+rng.Intn(4))
			for i := range ops {
				ops[i] = randomOp(rng, s)
			}
			want, err := Decode(cur)
			if err != nil {
				t.Fatal(err)
			}
			updates, short := int32(0), false
			for i := range ops {
				c, sh := s.Apply(&want, &ops[i])
				if c {
					updates++
				}
				if short = short || sh; short {
					break
				}
			}
			out, err := sc.Replay(edit(s, ops...), cur, true)
			if err != nil {
				t.Fatalf("%s round %d: %v", name, round, err)
			}
			if short {
				if !out.Short || out.Present || !out.Changed {
					t.Fatalf("%s round %d: a short list replayed to %+v, want dropped", name, round, out)
				}
				continue
			}
			if out.Updates != updates || out.Short {
				t.Fatalf("%s round %d: counted %+v, want %d updates", name, round, out.Result, updates)
			}
			wantEnc := Encode(want)
			if got := out.Entry; out.Changed != (updates > 0) || updates > 0 && !bytes.Equal(got, wantEnc) {
				t.Fatalf("%s round %d: changed=%v entry %x, want %v %x", name, round, out.Changed, got, updates > 0, wantEnc)
			}
		}
	}
}

// TestReplayChains pins a chain's replay in record order over an absent or a
// present key, the populates and deletes of a bus window included.
func TestReplayChains(t *testing.T) {
	feature := shapes["feature"]
	list := Encode(List{Rows: []sqlval.Row{row(1, 10)}})
	populated := Encode(List{Rows: []sqlval.Row{row(2, 20)}})
	for _, c := range []struct {
		name    string
		s       Shape
		cur     []byte // nil: absent
		ops     []Op
		want    string // the entry after, "" when absent
		changed bool
		res     Result
	}{
		{"an edit of an absent key skips", feature, nil, []Op{{Kind: Insert, New: row(2, 20)}}, "", false, Result{Skips: 1}},
		{"an edit of a present key updates", feature, list, []Op{{Kind: Insert, New: row(2, 20)}}, "1 2", true, Result{Updates: 1}},
		{"an edit that changes nothing counts nothing", feature, list, []Op{{Kind: Insert, New: row(1, 10)}}, "1", false, Result{}},
		{"populate then delete leaves the key absent", feature, nil, []Op{{Kind: Populate, Enc: populated}, {Kind: Delete}}, "", false, Result{Deletes: 1}},
		{"delete then populate leaves the populated entry", feature, list, []Op{{Kind: Delete}, {Kind: Populate, Enc: populated}}, "2", true, Result{Deletes: 1}},
		{"a populate of a present key is refused", feature, list, []Op{{Kind: Populate, Enc: populated}}, "1", false, Result{Refused: 1}},
		{"populate then edit edits the populated list", feature, nil, []Op{{Kind: Populate, Enc: populated}, {Kind: Insert, New: row(3, 30)}}, "2 3", true, Result{Updates: 1}},
		{"a delete of an absent key skips", feature, nil, []Op{{Kind: Delete}}, "", false, Result{Skips: 1}},
		{"a corrupt list is dropped", feature, []byte("junk"), []Op{{Kind: Insert, New: row(2, 20)}, {Kind: Remove, Old: row(2, 20)}}, "", true, Result{Deletes: 1, Skips: 1}},
		{"a count sums its incrs", Shape{}, []byte("5"), []Op{{Kind: Incr, Delta: 2}, {Kind: Incr, Delta: -4}}, "=3", true, Result{Updates: 2}},
		{"populate then incr leaves the exact count", Shape{}, nil, []Op{{Kind: Populate, Enc: []byte("2")}, {Kind: Incr, Delta: 1}}, "=3", true, Result{Updates: 1}},
		{"a corrupt count is dropped", Shape{}, []byte("x"), []Op{{Kind: Incr, Delta: 1}}, "", true, Result{Deletes: 1}},
		{"a removal that uses up the reserve drops the list; the ops after it count as they apply", shapes["topk"], Encode(List{Rows: []sqlval.Row{row(1, 30), row(2, 20), row(3, 10)}}),
			[]Op{{Kind: Remove, Old: row(1, 30)}, {Kind: Insert, New: row(4, 40)}, {Kind: Insert, New: row(4, 40)}, {Kind: Remove, Old: row(9, 5)}}, "", true, Result{Updates: 2, Short: true}},
		{"a delete after a short removal counts, and a populate after it is dropped with the key", shapes["topk"], Encode(List{Rows: []sqlval.Row{row(1, 30), row(2, 20), row(3, 10)}}),
			[]Op{{Kind: Remove, Old: row(1, 30)}, {Kind: Delete}, {Kind: Populate, Enc: populated}}, "", true, Result{Updates: 1, Deletes: 1, Short: true}},
	} {
		var sc Scratch
		out, err := sc.Replay(edit(c.s, c.ops...), c.cur, c.cur != nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := ""
		switch {
		case !out.Present:
		case c.s.Class == 0:
			got = "=" + string(out.Entry)
		default:
			entry := out.Entry
			if !out.Changed {
				entry = c.cur
			}
			l, err := Decode(entry)
			if err != nil {
				t.Fatalf("%s: entry does not decode: %v", c.name, err)
			}
			for i, r := range l.Rows {
				if i > 0 {
					got += " "
				}
				got += fmt.Sprint(PK(r))
			}
		}
		if got != c.want || out.Changed != c.changed || out.Result != c.res {
			t.Errorf("%s: entry %q changed=%v %+v, want %q %v %+v", c.name, got, out.Changed, out.Result, c.want, c.changed, c.res)
		}
	}
}

// TestReplayRefusesMalformedEdits: an edit that does not decode, or whose
// rows lack a column the shape reads, drops the key and errs — no panic.
func TestReplayRefusesMalformedEdits(t *testing.T) {
	list := Encode(List{Rows: []sqlval.Row{row(1, 10)}})
	good := edit(shapes["topk"], Op{Kind: Insert, New: row(2, 20)})
	for name, ed := range map[string][]byte{
		"empty":                   nil,
		"bad version":             append([]byte{9}, good[1:]...),
		"bad class":               append([]byte{1, 9}, good[2:]...),
		"truncated":               good[:len(good)-3],
		"unknown kind":            append(bytes.Clone(good), 42),
		"a row too narrow":        edit(shapes["topk"], Op{Kind: Insert, New: sqlval.Row{sqlval.I64(2)}}),
		"a list edit of no list":  edit(Shape{}, Op{Kind: Insert, New: row(2, 20)}),
		"an unlink of a non-link": edit(shapes["feature"], Op{Kind: Unlink, Old: row(2, 20)}),
		"an append claiming 2^40": append(AppendShape(nil, shapes["link"]), byte(Append), 0x80, 0x80, 0x80, 0x80, 0x80, 0x20),
	} {
		var sc Scratch
		out, err := sc.Replay(ed, list, true)
		if err == nil || out.Present || !out.Changed || out.Deletes != 1 {
			t.Errorf("%s: replay = %+v, %v; want the key dropped and an error", name, out, err)
		}
	}
}

// listOf is a feature list of n rows whose text is a few dozen bytes each.
func listOf(n int) List {
	var l List
	for i := 0; i < n; i++ {
		l.Rows = append(l.Rows, row(int64(i), int64(i)))
	}
	return l
}

// TestReplayAllocs: with its scratch warm, a replay that decodes a list,
// edits it and encodes the result allocates nothing.
func TestReplayAllocs(t *testing.T) {
	cur := Encode(listOf(20))
	ed := edit(shapes["feature"], Op{Kind: Replace, Old: row(7, 7), New: row(7, 8)}, Op{Kind: Insert, New: row(40, 1)})
	var sc Scratch
	if out, err := sc.Replay(ed, cur, true); err != nil || out.Updates != 2 {
		t.Fatalf("replay = %+v, %v", out, err)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = sc.Replay(ed, cur, true) }); n != 0 {
		t.Fatalf("a warm replay allocates %.1f times, want 0", n)
	}
}

func BenchmarkReplay(b *testing.B) {
	cur := Encode(listOf(20))
	ed := edit(shapes["feature"], Op{Kind: Replace, Old: row(7, 7), New: row(7, 8)})
	var sc Scratch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sc.Replay(ed, cur, true); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzReplay replays arbitrary edits over arbitrary entries: no input may
// panic a cache node. An edit that replays cleanly leaves an entry that is
// either the edit's own bytes, a count, or a list that frames.
func FuzzReplay(f *testing.F) {
	list := Encode(List{Rows: []sqlval.Row{row(1, 30), row(2, 20)}})
	for _, s := range shapes {
		f.Add(edit(s, Op{Kind: Insert, New: row(3, 25)}, Op{Kind: Remove, Old: row(1, 30)}), list, true)
		f.Add(edit(s, Op{Kind: Replace, Old: row(2, 20), New: row(2, 40)}, Op{Kind: Unlink, Old: row(9, 20)}), list, true)
		f.Add(edit(s, Op{Kind: Populate, Enc: list}, Op{Kind: Append, Rows: []sqlval.Row{row(5, 5)}}), []byte(nil), false)
	}
	f.Add(edit(Shape{}, Op{Kind: Incr, Delta: -3}, Op{Kind: Delete}), []byte("7"), true)
	f.Fuzz(func(t *testing.T, ed, cur []byte, present bool) {
		var sc Scratch
		out, err := sc.Replay(ed, cur, present)
		if err != nil || !out.Present || !out.Changed {
			return
		}
		if _, ok := ParseCount(out.Entry); ok {
			return
		}
		if _, err := FrameOf(out.Entry); err != nil && !bytes.Contains(ed, out.Entry) {
			t.Fatalf("replay stored %x, which is neither a list, a count nor a populated entry", out.Entry)
		}
	})
}
