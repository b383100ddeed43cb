// Package good keeps every genielint invariant; the e2e test asserts a
// clean run exits zero with no output.
package good

import "sync"

var mu sync.Mutex

func sum(p []byte) int {
	mu.Lock()
	defer mu.Unlock()
	n := 0
	for _, b := range p {
		n += int(b)
	}
	return n
}

var _ = sum
