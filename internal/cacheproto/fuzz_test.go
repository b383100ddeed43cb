package cacheproto

import (
	"bufio"
	"bytes"
	"io"
	"testing"

	"cachegenie/internal/kvcache"
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
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		store := kvcache.New(1 << 20)
		store.Set("k", []byte("v1"), 0)
		store.Set("n", []byte("41"), 0)
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
