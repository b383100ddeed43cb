package cluster

import (
	"fmt"
	"slices"
	"testing"

	"cachegenie/internal/kvcache"
)

// TestPlacementGolden pins key placement to values recorded before the hash
// moved into this package: hash64 of plain, brace-tagged, empty-tag and
// backslash-brace keys, and NodeFor/ReplicasFor on a fixed three-node ring
// at R = 1 and R = 2. A change here moves keys between cache servers.
func TestPlacementGolden(t *testing.T) {
	for _, tc := range []struct {
		key  string
		hash uint64
	}{
		{"", 0xefd01f60ba992926},
		{"plain", 0x4add0c1fb25b12ac},
		{"cg:user_profile:7", 0x300a2e3e7ca5aba5},
		{"cg:friends_of_user:{42}", 0xbe35c17082e3b0a0},
		{"cg:x:{}:7", 0xe01f745468415e2a},
		{`cg:x:\{7}`, 0xde290aaecdf37cdf},
		{"{7}", 0x88bd04643bea32f8},
		{"key-1", 0xa002e14b20bb64ec},
	} {
		if got := hash64(tc.key); got != tc.hash {
			t.Errorf("hash64(%q) = %#016x, want %#016x", tc.key, got, tc.hash)
		}
	}
	nodes := []kvcache.Cache{kvcache.New(0), kvcache.New(0), kvcache.New(0)}
	for _, tc := range []struct {
		replicas int
		key      string
		set      []int
	}{
		{1, "plain", []int{2}},
		{1, "cg:friends_of_user:{42}", []int{1}},
		{1, "cg:user_profile:{42}", []int{1}},
		{1, "cg:x:{}:7", []int{0}},
		{1, `cg:x:\{7}`, []int{0}},
		{1, "key-1", []int{0}},
		{1, "key-2", []int{1}},
		{1, "key-3", []int{2}},
		{2, "plain", []int{2, 0}},
		{2, "cg:friends_of_user:{42}", []int{1, 2}},
		{2, "cg:user_profile:{42}", []int{1, 2}},
		{2, "cg:x:{}:7", []int{0, 1}},
		{2, `cg:x:\{7}`, []int{0, 1}},
		{2, "key-1", []int{0, 2}},
		{2, "key-2", []int{1, 0}},
		{2, "key-3", []int{2, 0}},
	} {
		t.Run(fmt.Sprintf("R=%d/%s", tc.replicas, tc.key), func(t *testing.T) {
			r, err := NewRingIDs([]string{"a:1", "b:2", "c:3"}, nodes, WithReplicas(tc.replicas))
			if err != nil {
				t.Fatal(err)
			}
			if got := r.NodeFor(tc.key); got != tc.set[0] {
				t.Errorf("NodeFor = %d, want %d", got, tc.set[0])
			}
			if got := r.ReplicasFor(tc.key); !slices.Equal(got, tc.set) {
				t.Errorf("ReplicasFor = %v, want %v", got, tc.set)
			}
		})
	}
}
