// Package hotpath exercises the hotpathalloc analyzer.
package hotpath

import "fmt"

//genie:hotpath
func hot(b []byte, s string) string {
	_ = fmt.Sprintf("x %d", len(b)) // want `fmt\.Sprintf allocates`
	k := string(b)                  // want `string\(\[\]byte\) conversion`
	_ = []byte(s)                   // want `\[\]byte\(string\) conversion`
	f := func() {}                  // want `closure in hot path`
	f()
	return k + s // want `string concatenation`
}

// allowedContexts: the compiler-recognized non-allocating string([]byte)
// uses must stay quiet.
//
//genie:hotpath
func allowedContexts(m map[string]int, b []byte) int {
	switch string(b) {
	case "x":
		return 1
	}
	if string(b) == "y" {
		return 2
	}
	return m[string(b)]
}

type key interface{ ~string | ~[]byte }

// generic: a type parameter that admits []byte converts like one — free in
// a map index, a copy once the result is kept.
//
//genie:hotpath
func generic[K key](m map[string]int, k K, keep *string) int {
	x := string(k) // want `string\(\[\]byte\) conversion`
	*keep = x
	return m[string(k)]
}

func sink(v any) {}

//genie:hotpath
func boxing(n int, p *int) {
	sink(n) // want `boxes the value`
	sink(p)
}

// cold is unannotated: everything here is fine.
func cold(b []byte) string {
	return fmt.Sprintf("%s!", string(b))
}
