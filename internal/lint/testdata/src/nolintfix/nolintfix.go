// Package nolintfix exercises //genie:nolint suppression handling (run
// under the lockscope analyzer: each Lock below lacks its Unlock).
package nolintfix

import "sync"

var mu sync.Mutex

func suppressedAbove() {
	//genie:nolint lockscope -- released by the caller's unlockAll
	mu.Lock()
}

func suppressedTrailing() {
	mu.Lock() //genie:nolint lockscope -- released by the caller's unlockAll
}

func suppressedByList() {
	//genie:nolint goroleak,lockscope -- released by the caller's unlockAll
	mu.Lock()
}

func unsuppressed() {
	//genie:nolint lockscope want `malformed suppression`
	mu.Lock() // want `mu\.Lock\(\) without a matching Unlock`
}

func otherAnalyzerOnly() {
	//genie:nolint goroleak -- names another analyzer, so lockscope still reports
	mu.Lock() // want `mu\.Lock\(\) without a matching Unlock`
}

func suppressAll() {
	//genie:nolint all -- demo of the catch-all form
	mu.Lock()
}
