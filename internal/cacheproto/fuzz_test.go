package cacheproto

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"testing"

	"cachegenie/internal/kvcache"
	"cachegenie/internal/rowlist"
	"cachegenie/internal/sqlval"
)

// FuzzServerInput drives the server's per-connection dispatch loop over
// arbitrary byte streams, the same socketless harness the hot-path
// benchmarks use. The property under test is narrow: no input may panic
// the parser or hang the loop. Protocol errors (the expected outcome for
// almost every mutated input) are fine; the framing tests in
// robustness_test.go cover their semantics.
func FuzzServerInput(f *testing.F) {
	seeds := []string{
		// Well-formed traffic so mutations start near the grammar.
		"get k\r\n",
		"gets k missing\r\n",
		"set k 0 0 2\r\nhi\r\n",
		"add k2 0 30 2\r\nhi\r\n",
		"cas k 0 0 2 7\r\nhi\r\n",
		"delete k\r\n",
		"incr n 5\r\n",
		"mop 2\r\nget k\r\ndelete k\r\n",
		"mop 3\r\ngets k\r\ngets missing\r\nincr n 1\r\n",
		"mop 2\r\ncas k 0 0 2 1\r\nhi\r\ncas missing 0 0 2 1\r\nhi\r\n",
		"stats\r\nkeys\r\nflush_all\r\nquit\r\n",
		// The malformed-input table from TestServerMalformedInput.
		"frobnicate key\r\n",
		"set k 0 0 banana\r\n",
		"set k 0 0 -5\r\n",
		"set k\r\n",
		"mop banana\r\n",
		"mop 3\r\ndelete k\r\n",
		"mop 1\r\nflush_all\r\n",
		"mop 1\r\nget k\r\n",
		"mop 2\r\ngets\r\ndelete k\r\n",
		"mop 2\r\ncas k 0 0 11 notanumber\r\nflush_all\r\n\r\nflush_all\r\n",
		"mop 1\r\ncas k 0 0 2\r\nhi\r\n",
		"mop 1\r\ncas k 0 0 100 7\r\nonly-ten-b",
		"set k 0 0 100\r\nonly-ten-b",
		"set k 0 0 2\r\nhiXX",
		"cas k 0 0 11 notanumber\r\nflush_all\r\n\r\n",
		"set k 0 0 18446744073709551616\r\n",
		// Framing edge cases: bare CR, bare LF, NULs, huge single line.
		"\r\n\r\n\r\n",
		"get k\nget k\n",
		"get \x00\r\n",
		"incr n 99999999999999999999\r\n",
		// A read wave as the client sends it: one mop of nothing but gets, hits
		// and misses mixed. (Appended last: seed names are positional.)
		"mop 7\r\ngets k\r\ngets cg:user_by_id:7\r\ngets n\r\ngets cg:wall:7\r\ngets k\r\ngets missing\r\ngets n\r\n",
	}
	// The write-set's edit sub-command (appended after the positional seeds
	// above): a valid list edit of a cached list, one whose data block is
	// cut short, one whose byte count is past the value cap, one of a stored
	// value that does not frame as a list ("k"), and a malformed edit.
	row := sqlval.Row{sqlval.I64(3), sqlval.Str("new row")}
	op := rowlist.Op{Kind: rowlist.Insert, New: row}
	ed := string(rowlist.AppendOp(rowlist.AppendShape(nil, rowlist.Shape{Class: rowlist.Feature}), &op))
	edit := func(key string) string { return fmt.Sprintf("edit %s 0 0 %d\r\n%s\r\n", key, len(ed), ed) }
	seeds = append(seeds,
		"mop 2\r\n"+edit("list")+"incr n 1\r\n",
		fmt.Sprintf("mop 1\r\nedit list 0 0 %d\r\n%s", len(ed), ed[:len(ed)/2]),
		fmt.Sprintf("mop 1\r\nedit list 0 0 %d\r\n", maxValueBytes+1),
		"mop 1\r\n"+edit("k"),
		"mop 1\r\nedit list 0 0 5\r\n\x01\x09\x00\x00\x00\r\n",
	)
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	list := rowlist.Encode(rowlist.List{Rows: []sqlval.Row{{sqlval.I64(1), sqlval.Str("cached")}}})
	f.Fuzz(func(t *testing.T, in []byte) {
		store := kvcache.New(1 << 20)
		store.Set("k", []byte("v1"), 0)
		store.Set("n", []byte("41"), 0)
		store.Set("list", list, 0)
		c := NewServer(store).newServerConn(
			bufio.NewReader(bytes.NewReader(in)),
			bufio.NewWriter(io.Discard))
		// Finite input guarantees termination (readLine hits EOF), but cap
		// the request count anyway so a loop bug fails fast instead of
		// burning the fuzz budget.
		for i := 0; i < 4096; i++ {
			if !c.serveOne() {
				return
			}
		}
		t.Fatalf("dispatch loop still live after 4096 requests on %d input bytes", len(in))
	})
}
