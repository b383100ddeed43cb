// Package btree implements an in-memory B+tree with byte-string keys and
// int64 values. It backs the secondary indexes of the SQL engine and the
// database-versus-cache lookup microbenchmark (paper §5.3).
//
// Keys are compared with bytes.Compare, so callers that need composite or
// typed keys must use an order-preserving encoding (see the sqldb package).
// The tree is not safe for concurrent use; the engine serializes access.
package btree

import (
	"bytes"
	"fmt"
)

// DefaultOrder is the default maximum number of children per internal node.
const DefaultOrder = 64

// Tree is a B+tree mapping []byte keys to int64 values. Keys are unique;
// inserting an existing key replaces its value. The zero value is not usable;
// call New.
type Tree struct {
	order int
	root  node
	size  int
}

// New returns an empty tree with the given order (maximum children per
// internal node). Orders below 4 are raised to 4.
func New(order int) *Tree {
	if order < 4 {
		order = 4
	}
	return &Tree{order: order, root: &leafNode{}}
}

// Len reports the number of keys stored in the tree.
func (t *Tree) Len() int { return t.size }

// node is either *leafNode or *innerNode.
type node interface {
	// firstKey returns the smallest key in the subtree.
	firstKey() []byte
}

type leafNode struct {
	keys [][]byte
	vals []int64
	next *leafNode
	prev *leafNode
}

func (l *leafNode) firstKey() []byte {
	if len(l.keys) == 0 {
		return nil
	}
	return l.keys[0]
}

type innerNode struct {
	// keys[i] is the smallest key in children[i+1]'s subtree; len(children)
	// == len(keys)+1.
	keys     [][]byte
	children []node
}

func (in *innerNode) firstKey() []byte { return in.children[0].firstKey() }

// search returns the index of the first key >= k in keys.
func search(keys [][]byte, k []byte) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(keys[mid], k) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childIndex returns the child to descend into for key k.
func (in *innerNode) childIndex(k []byte) int {
	// Descend into children[i] where keys[i-1] <= k < keys[i].
	lo, hi := 0, len(in.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(in.keys[mid], k) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Get returns the value stored under key, and whether it was present.
func (t *Tree) Get(key []byte) (int64, bool) {
	n := t.root
	for {
		switch x := n.(type) {
		case *innerNode:
			n = x.children[x.childIndex(key)]
		case *leafNode:
			i := search(x.keys, key)
			if i < len(x.keys) && bytes.Equal(x.keys[i], key) {
				return x.vals[i], true
			}
			return 0, false
		}
	}
}

// Set inserts key with value v, replacing any existing value. It reports
// whether a new key was inserted (false means replaced).
func (t *Tree) Set(key []byte, v int64) bool {
	k := append([]byte(nil), key...) // tree owns its keys
	newChild, splitKey, inserted := t.insert(t.root, k, v)
	if newChild != nil {
		t.root = &innerNode{
			keys:     [][]byte{splitKey},
			children: []node{t.root, newChild},
		}
	}
	if inserted {
		t.size++
	}
	return inserted
}

// insert adds k/v under n. If n splits, it returns the new right sibling and
// the smallest key of that sibling.
func (t *Tree) insert(n node, k []byte, v int64) (node, []byte, bool) {
	switch x := n.(type) {
	case *leafNode:
		i := search(x.keys, k)
		if i < len(x.keys) && bytes.Equal(x.keys[i], k) {
			x.vals[i] = v
			return nil, nil, false
		}
		x.keys = append(x.keys, nil)
		copy(x.keys[i+1:], x.keys[i:])
		x.keys[i] = k
		x.vals = append(x.vals, 0)
		copy(x.vals[i+1:], x.vals[i:])
		x.vals[i] = v
		if len(x.keys) < t.order {
			return nil, nil, true
		}
		// Split leaf.
		mid := len(x.keys) / 2
		right := &leafNode{
			keys: append([][]byte(nil), x.keys[mid:]...),
			vals: append([]int64(nil), x.vals[mid:]...),
			next: x.next,
			prev: x,
		}
		if x.next != nil {
			x.next.prev = right
		}
		x.keys = x.keys[:mid:mid]
		x.vals = x.vals[:mid:mid]
		x.next = right
		return right, right.keys[0], true
	case *innerNode:
		ci := x.childIndex(k)
		newChild, splitKey, inserted := t.insert(x.children[ci], k, v)
		if newChild == nil {
			return nil, nil, inserted
		}
		x.keys = append(x.keys, nil)
		copy(x.keys[ci+1:], x.keys[ci:])
		x.keys[ci] = splitKey
		x.children = append(x.children, nil)
		copy(x.children[ci+2:], x.children[ci+1:])
		x.children[ci+1] = newChild
		if len(x.children) <= t.order {
			return nil, nil, inserted
		}
		// Split inner node: middle key moves up.
		mid := len(x.keys) / 2
		upKey := x.keys[mid]
		right := &innerNode{
			keys:     append([][]byte(nil), x.keys[mid+1:]...),
			children: append([]node(nil), x.children[mid+1:]...),
		}
		x.keys = x.keys[:mid:mid]
		x.children = x.children[: mid+1 : mid+1]
		return right, upKey, inserted
	}
	panic("btree: unknown node type")
}

// Delete removes key from the tree and reports whether it was present.
func (t *Tree) Delete(key []byte) bool {
	deleted := t.delete(t.root, key)
	if deleted {
		t.size--
	}
	// Collapse a root inner node with a single child.
	if in, ok := t.root.(*innerNode); ok && len(in.children) == 1 {
		t.root = in.children[0]
	}
	return deleted
}

// minLeafKeys is the minimum fill for a non-root leaf.
func (t *Tree) minLeafKeys() int { return (t.order - 1) / 2 }

// minInnerChildren is the minimum fill for a non-root inner node.
func (t *Tree) minInnerChildren() int { return (t.order + 1) / 2 }

func (t *Tree) delete(n node, k []byte) bool {
	switch x := n.(type) {
	case *leafNode:
		i := search(x.keys, k)
		if i >= len(x.keys) || !bytes.Equal(x.keys[i], k) {
			return false
		}
		x.keys = append(x.keys[:i], x.keys[i+1:]...)
		x.vals = append(x.vals[:i], x.vals[i+1:]...)
		return true
	case *innerNode:
		ci := x.childIndex(k)
		if !t.delete(x.children[ci], k) {
			return false
		}
		t.rebalance(x, ci)
		return true
	}
	panic("btree: unknown node type")
}

// rebalance fixes up child ci of parent after a deletion may have left it
// underfull, by borrowing from or merging with a sibling.
func (t *Tree) rebalance(parent *innerNode, ci int) {
	child := parent.children[ci]
	switch c := child.(type) {
	case *leafNode:
		if len(c.keys) >= t.minLeafKeys() {
			return
		}
		// Try borrowing from left sibling.
		if ci > 0 {
			left := parent.children[ci-1].(*leafNode)
			if len(left.keys) > t.minLeafKeys() {
				last := len(left.keys) - 1
				c.keys = append([][]byte{left.keys[last]}, c.keys...)
				c.vals = append([]int64{left.vals[last]}, c.vals...)
				left.keys = left.keys[:last]
				left.vals = left.vals[:last]
				parent.keys[ci-1] = c.keys[0]
				return
			}
		}
		// Try borrowing from right sibling.
		if ci < len(parent.children)-1 {
			right := parent.children[ci+1].(*leafNode)
			if len(right.keys) > t.minLeafKeys() {
				c.keys = append(c.keys, right.keys[0])
				c.vals = append(c.vals, right.vals[0])
				right.keys = right.keys[1:]
				right.vals = right.vals[1:]
				parent.keys[ci] = right.keys[0]
				return
			}
		}
		// Merge with a sibling.
		if ci > 0 {
			left := parent.children[ci-1].(*leafNode)
			left.keys = append(left.keys, c.keys...)
			left.vals = append(left.vals, c.vals...)
			left.next = c.next
			if c.next != nil {
				c.next.prev = left
			}
			parent.keys = append(parent.keys[:ci-1], parent.keys[ci:]...)
			parent.children = append(parent.children[:ci], parent.children[ci+1:]...)
		} else {
			right := parent.children[ci+1].(*leafNode)
			c.keys = append(c.keys, right.keys...)
			c.vals = append(c.vals, right.vals...)
			c.next = right.next
			if right.next != nil {
				right.next.prev = c
			}
			parent.keys = append(parent.keys[:ci], parent.keys[ci+1:]...)
			parent.children = append(parent.children[:ci+1], parent.children[ci+2:]...)
		}
	case *innerNode:
		if len(c.children) >= t.minInnerChildren() {
			return
		}
		if ci > 0 {
			left := parent.children[ci-1].(*innerNode)
			if len(left.children) > t.minInnerChildren() {
				// Rotate right through the parent separator.
				lastChild := left.children[len(left.children)-1]
				lastKey := left.keys[len(left.keys)-1]
				c.children = append([]node{lastChild}, c.children...)
				c.keys = append([][]byte{parent.keys[ci-1]}, c.keys...)
				parent.keys[ci-1] = lastKey
				left.children = left.children[:len(left.children)-1]
				left.keys = left.keys[:len(left.keys)-1]
				return
			}
		}
		if ci < len(parent.children)-1 {
			right := parent.children[ci+1].(*innerNode)
			if len(right.children) > t.minInnerChildren() {
				// Rotate left through the parent separator.
				c.children = append(c.children, right.children[0])
				c.keys = append(c.keys, parent.keys[ci])
				parent.keys[ci] = right.keys[0]
				right.children = right.children[1:]
				right.keys = right.keys[1:]
				return
			}
		}
		if ci > 0 {
			left := parent.children[ci-1].(*innerNode)
			left.keys = append(left.keys, parent.keys[ci-1])
			left.keys = append(left.keys, c.keys...)
			left.children = append(left.children, c.children...)
			parent.keys = append(parent.keys[:ci-1], parent.keys[ci:]...)
			parent.children = append(parent.children[:ci], parent.children[ci+1:]...)
		} else {
			right := parent.children[ci+1].(*innerNode)
			c.keys = append(c.keys, parent.keys[ci])
			c.keys = append(c.keys, right.keys...)
			c.children = append(c.children, right.children...)
			parent.keys = append(parent.keys[:ci], parent.keys[ci+1:]...)
			parent.children = append(parent.children[:ci+1], parent.children[ci+2:]...)
		}
	}
}

// Iterator walks keys in ascending order. It is invalidated by mutation.
type Iterator struct {
	leaf *leafNode
	idx  int
	hi   []byte // exclusive upper bound; nil means unbounded
}

// Valid reports whether the iterator currently points at an entry.
func (it *Iterator) Valid() bool {
	if it.leaf == nil || it.idx >= len(it.leaf.keys) {
		return false
	}
	if it.hi != nil && bytes.Compare(it.leaf.keys[it.idx], it.hi) >= 0 {
		return false
	}
	return true
}

// Key returns the current key. The caller must not modify it.
func (it *Iterator) Key() []byte { return it.leaf.keys[it.idx] }

// Value returns the current value.
func (it *Iterator) Value() int64 { return it.leaf.vals[it.idx] }

// Next advances the iterator.
func (it *Iterator) Next() {
	it.idx++
	for it.leaf != nil && it.idx >= len(it.leaf.keys) {
		it.leaf = it.leaf.next
		it.idx = 0
	}
}

// Scan returns an iterator positioned at the first key >= lo, bounded
// exclusively by hi (nil hi means unbounded). The iterator is a value, so a
// scan allocates nothing.
func (t *Tree) Scan(lo, hi []byte) Iterator {
	n := t.root
	for {
		switch x := n.(type) {
		case *innerNode:
			if lo == nil {
				n = x.children[0]
			} else {
				n = x.children[x.childIndex(lo)]
			}
		case *leafNode:
			it := Iterator{leaf: x, hi: hi}
			if lo != nil {
				it.idx = search(x.keys, lo)
			}
			for it.leaf != nil && it.idx >= len(it.leaf.keys) {
				it.leaf = it.leaf.next
				it.idx = 0
			}
			return it
		}
	}
}

// Ascend calls fn for every key/value pair in ascending order until fn
// returns false.
func (t *Tree) Ascend(fn func(key []byte, v int64) bool) {
	for it := t.Scan(nil, nil); it.Valid(); it.Next() {
		if !fn(it.Key(), it.Value()) {
			return
		}
	}
}

// Min returns the smallest key, or nil if the tree is empty.
func (t *Tree) Min() []byte {
	it := t.Scan(nil, nil)
	if !it.Valid() {
		return nil
	}
	return it.Key()
}

// Max returns the largest key, or nil if the tree is empty.
func (t *Tree) Max() []byte {
	n := t.root
	for {
		switch x := n.(type) {
		case *innerNode:
			n = x.children[len(x.children)-1]
		case *leafNode:
			// The rightmost leaf can transiently be empty only when the tree
			// is empty (root leaf).
			if len(x.keys) == 0 {
				return nil
			}
			return x.keys[len(x.keys)-1]
		}
	}
}

// check validates tree invariants; used by tests.
func (t *Tree) check() error {
	count := 0
	var prev []byte
	t.Ascend(func(k []byte, _ int64) bool {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			panic(fmt.Sprintf("btree: keys out of order: %q >= %q", prev, k))
		}
		prev = k
		count++
		return true
	})
	if count != t.size {
		return fmt.Errorf("btree: size mismatch: counted %d, recorded %d", count, t.size)
	}
	return nil
}
