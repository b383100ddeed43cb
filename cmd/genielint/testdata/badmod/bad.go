// Package bad violates genielint invariants on purpose. The e2e test in
// cmd/genielint asserts the linter reports each violation at its position
// and exits nonzero.
package bad

import "sync"

var mu sync.Mutex

func spin() {
	go func() {
		for {
		}
	}()
}

func leak() {
	mu.Lock()
}

var _ = spin
var _ = leak
