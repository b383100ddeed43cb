// Package btree implements an in-memory B+tree with byte-string keys and
// int64 values. It backs the secondary indexes of the SQL engine and the
// database-versus-cache lookup microbenchmark (paper §5.3).
//
// Keys are compared with bytes.Compare, so callers that need composite or
// typed keys must use an order-preserving encoding (see the sqldb package).
// The tree is not safe for concurrent use; the engine serializes access.
//
// A node packs its keys back to back into one byte buffer beside arrays of
// offsets and comparison words, and its values into one int64 slice. A node
// is therefore a handful of heap objects however many keys it holds, and
// none of them but the node itself holds a pointer: the garbage collector
// has no per-key object to mark.
package btree

import (
	"bytes"
	"encoding/binary"
	"slices"
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
	return &Tree{order: order, root: &leafNode{keys: newKeyList(0, 0)}}
}

// Len reports the number of keys stored in the tree.
func (t *Tree) Len() int { return t.size }

// node is either *leafNode or *innerNode.
type node interface{ isNode() }

type leafNode struct {
	keys keyList
	vals []int64
	next *leafNode
}

type innerNode struct {
	// keys.at(i) separates children[i] (keys below it) from children[i+1]
	// (keys at or above it); len(children) == keys.len()+1.
	keys     keyList
	children []node
}

func (*leafNode) isNode()  {}
func (*innerNode) isNode() {}

// keyList is a sorted run of keys packed into one buffer: key i is
// buf[offs[i]:offs[i+1]]. offs[0] is 0, so a list of n keys has n+1
// offsets; make one with newKeyList.
//
// Every key starts with the list's first skip bytes, so a search compares
// only what follows them, and heads[i] holds the next 4 bytes of key i,
// big-endian and zero-padded: two keys whose heads differ are ordered as
// their heads are, so most comparisons in a search are of two integers.
type keyList struct {
	buf   []byte
	offs  []uint32
	heads []uint32
	skip  uint32
}

// newKeyList returns an empty list with room for n keys in size bytes.
func newKeyList(size, n int) keyList {
	return keyList{
		buf:   make([]byte, 0, size),
		offs:  append(make([]uint32, 0, n+1), 0),
		heads: make([]uint32, 0, n),
	}
}

func (kl *keyList) len() int { return len(kl.offs) - 1 }

// at returns key i as a view into the buffer. Its capacity ends with the
// key, so appending to it copies rather than overwriting the next key.
func (kl *keyList) at(i int) []byte {
	end := kl.offs[i+1]
	return kl.buf[kl.offs[i]:end:end]
}

// head is the comparison word of a key suffix: its first 4 bytes,
// big-endian, zero-padded.
func head(b []byte) uint32 {
	if len(b) >= 4 {
		return binary.BigEndian.Uint32(b)
	}
	var w [4]byte
	copy(w[:], b)
	return binary.BigEndian.Uint32(w[:])
}

// search returns the index of the first key >= k, and whether that key is k.
func (kl *keyList) search(k []byte) (int, bool) {
	n := kl.len()
	if n == 0 {
		return 0, false
	}
	if p := kl.buf[:kl.skip]; !bytes.HasPrefix(k, p) {
		// k sorts before or after every key, as it does against p.
		if bytes.Compare(k, p) < 0 {
			return 0, false
		}
		return n, false
	}
	k = k[kl.skip:]
	kh := head(k)
	buf, offs, heads, skip := kl.buf, kl.offs, kl.heads[:n], kl.skip
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		c := 0
		switch h := heads[mid]; {
		case h < kh:
			c = -1
		case h > kh:
			c = 1
		default:
			c = bytes.Compare(buf[offs[mid]+skip:offs[mid+1]], k)
		}
		switch {
		case c < 0:
			lo = mid + 1
		case c > 0:
			hi = mid
		default:
			return mid, true
		}
	}
	return lo, false
}

// upper returns the index of the first key > k: the child of an inner node
// whose subtree holds k.
func (kl *keyList) upper(k []byte) int {
	i, found := kl.search(k)
	if found {
		i++
	}
	return i
}

// shift adds d (which may wrap, to subtract) to offsets i and up.
func (kl *keyList) shift(i int, d uint32) {
	for j := i; j < len(kl.offs); j++ {
		kl.offs[j] += d
	}
}

// admit readies the list to take k: when k does not start with the shared
// prefix, the prefix shrinks to what k shares and every head is recomputed.
func (kl *keyList) admit(k []byte) {
	if kl.len() == 0 {
		kl.skip = uint32(len(k))
		return
	}
	p := kl.buf[:kl.skip]
	if bytes.HasPrefix(k, p) {
		return
	}
	s := 0
	for s < len(p) && s < len(k) && p[s] == k[s] {
		s++
	}
	kl.skip = uint32(s)
	for i := range kl.heads {
		kl.heads[i] = head(kl.buf[kl.offs[i]+kl.skip : kl.offs[i+1]])
	}
}

// insert makes k key i, moving keys i and up one place.
func (kl *keyList) insert(i int, k []byte) {
	kl.admit(k)
	at := kl.offs[i]
	kl.buf = slices.Insert(kl.buf, int(at), k...)
	kl.offs = slices.Insert(kl.offs, i+1, at)
	kl.shift(i+1, uint32(len(k)))
	kl.heads = slices.Insert(kl.heads, i, head(k[kl.skip:]))
}

// set replaces key i with k.
func (kl *keyList) set(i int, k []byte) {
	kl.admit(k)
	lo, hi := kl.offs[i], kl.offs[i+1]
	kl.buf = slices.Replace(kl.buf, int(lo), int(hi), k...)
	kl.shift(i+1, uint32(len(k))-(hi-lo))
	kl.heads[i] = head(k[kl.skip:])
}

// remove deletes key i. The keys left still share the prefix.
func (kl *keyList) remove(i int) {
	lo, hi := kl.offs[i], kl.offs[i+1]
	kl.buf = slices.Delete(kl.buf, int(lo), int(hi))
	kl.offs = slices.Delete(kl.offs, i+1, i+2)
	kl.shift(i+1, lo-hi)
	kl.heads = slices.Delete(kl.heads, i, i+1)
}

// truncate keeps the first n keys.
func (kl *keyList) truncate(n int) {
	kl.buf = kl.buf[:kl.offs[n]]
	kl.offs = kl.offs[:n+1]
	kl.heads = kl.heads[:n]
}

// appendRange appends keys [i, j) of src, which must be another list.
func (kl *keyList) appendRange(src *keyList, i, j int) {
	for x := i; x < j; x++ {
		k := src.at(x)
		kl.admit(k)
		kl.buf = append(kl.buf, k...)
		kl.offs = append(kl.offs, uint32(len(kl.buf)))
		kl.heads = append(kl.heads, head(k[kl.skip:]))
	}
}

// cut returns a fresh list holding keys [i, j), with room for n keys of
// their mean length before it grows.
func (kl *keyList) cut(i, j, n int) keyList {
	size := int(kl.offs[j] - kl.offs[i])
	out := newKeyList(size*n/max(j-i, 1), n)
	out.appendRange(kl, i, j)
	return out
}

// leafFor returns the leaf whose range holds k; a nil k picks the leftmost.
func (t *Tree) leafFor(k []byte) *leafNode {
	n := t.root
	for {
		switch x := n.(type) {
		case *innerNode:
			i := 0
			if k != nil {
				i = x.keys.upper(k)
			}
			n = x.children[i]
		case *leafNode:
			return x
		}
	}
}

// Get returns the value stored under key, and whether it was present.
func (t *Tree) Get(key []byte) (int64, bool) {
	l := t.leafFor(key)
	if i, found := l.keys.search(key); found {
		return l.vals[i], true
	}
	return 0, false
}

// Set inserts key with value v, replacing any existing value. It reports
// whether a new key was inserted (false means replaced). The tree copies
// key's bytes into its own node storage, so the caller may reuse key.
func (t *Tree) Set(key []byte, v int64) bool {
	right, sep, inserted := t.insert(t.root, key, v)
	if right != nil {
		root := &innerNode{keys: newKeyList(len(sep), 1), children: []node{t.root, right}}
		root.keys.insert(0, sep)
		t.root = root
	}
	if inserted {
		t.size++
	}
	return inserted
}

// insert adds k/v under n. If n splits, it returns the new right sibling and
// its separator: a view into the split node's storage that the caller copies
// before the next mutation.
func (t *Tree) insert(n node, k []byte, v int64) (node, []byte, bool) {
	switch x := n.(type) {
	case *leafNode:
		i, found := x.keys.search(k)
		if found {
			x.vals[i] = v
			return nil, nil, false
		}
		x.keys.insert(i, k)
		x.vals = slices.Insert(x.vals, i, v)
		if x.keys.len() < t.order {
			return nil, nil, true
		}
		// Split: the upper half moves to a fresh leaf with room for a full
		// one; the lower half stays in this leaf's buffers.
		mid := x.keys.len() / 2
		right := &leafNode{
			keys: x.keys.cut(mid, x.keys.len(), t.order),
			vals: append(make([]int64, 0, t.order), x.vals[mid:]...),
			next: x.next,
		}
		x.keys.truncate(mid)
		x.vals = x.vals[:mid]
		x.next = right
		return right, right.keys.at(0), true
	case *innerNode:
		ci := x.keys.upper(k)
		newChild, sep, inserted := t.insert(x.children[ci], k, v)
		if newChild == nil {
			return nil, nil, inserted
		}
		x.keys.insert(ci, sep)
		x.children = slices.Insert(x.children, ci+1, newChild)
		if len(x.children) <= t.order {
			return nil, nil, inserted
		}
		// Split: the middle key moves up, the keys and children above it to
		// a fresh node. Truncation leaves the middle key's bytes in place.
		mid := x.keys.len() / 2
		right := &innerNode{
			keys:     x.keys.cut(mid+1, x.keys.len(), t.order),
			children: append(make([]node, 0, t.order+1), x.children[mid+1:]...),
		}
		up := x.keys.at(mid)
		x.keys.truncate(mid)
		clear(x.children[mid+1:])
		x.children = x.children[:mid+1]
		return right, up, inserted
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
		i, found := x.keys.search(k)
		if !found {
			return false
		}
		x.keys.remove(i)
		x.vals = slices.Delete(x.vals, i, i+1)
		return true
	case *innerNode:
		ci := x.keys.upper(k)
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
	// A merge folds children[m+1] into children[m].
	m := max(ci-1, 0)
	switch c := parent.children[ci].(type) {
	case *leafNode:
		if c.keys.len() >= t.minLeafKeys() {
			return
		}
		if ci > 0 {
			left := parent.children[ci-1].(*leafNode)
			if last := left.keys.len() - 1; last >= t.minLeafKeys() {
				c.keys.insert(0, left.keys.at(last))
				c.vals = slices.Insert(c.vals, 0, left.vals[last])
				left.keys.truncate(last)
				left.vals = left.vals[:last]
				parent.keys.set(ci-1, c.keys.at(0))
				return
			}
		}
		if ci < len(parent.children)-1 {
			right := parent.children[ci+1].(*leafNode)
			if right.keys.len() > t.minLeafKeys() {
				c.keys.appendRange(&right.keys, 0, 1)
				c.vals = append(c.vals, right.vals[0])
				right.keys.remove(0)
				right.vals = slices.Delete(right.vals, 0, 1)
				parent.keys.set(ci, right.keys.at(0))
				return
			}
		}
		left, right := parent.children[m].(*leafNode), parent.children[m+1].(*leafNode)
		left.keys.appendRange(&right.keys, 0, right.keys.len())
		left.vals = append(left.vals, right.vals...)
		left.next = right.next
	case *innerNode:
		if len(c.children) >= t.minInnerChildren() {
			return
		}
		if ci > 0 {
			left := parent.children[ci-1].(*innerNode)
			if last := len(left.children) - 1; last >= t.minInnerChildren() {
				// Rotate right through the parent separator.
				c.children = slices.Insert(c.children, 0, left.children[last])
				c.keys.insert(0, parent.keys.at(ci-1))
				parent.keys.set(ci-1, left.keys.at(last-1))
				left.children[last] = nil
				left.children = left.children[:last]
				left.keys.truncate(last - 1)
				return
			}
		}
		if ci < len(parent.children)-1 {
			right := parent.children[ci+1].(*innerNode)
			if len(right.children) > t.minInnerChildren() {
				// Rotate left through the parent separator.
				c.children = append(c.children, right.children[0])
				c.keys.appendRange(&parent.keys, ci, ci+1)
				parent.keys.set(ci, right.keys.at(0))
				right.children = slices.Delete(right.children, 0, 1)
				right.keys.remove(0)
				return
			}
		}
		left, right := parent.children[m].(*innerNode), parent.children[m+1].(*innerNode)
		left.keys.appendRange(&parent.keys, m, m+1)
		left.keys.appendRange(&right.keys, 0, right.keys.len())
		left.children = append(left.children, right.children...)
	}
	parent.keys.remove(m)
	parent.children = slices.Delete(parent.children, m+1, m+2)
}

// Iterator walks keys in ascending order. It is invalidated by mutation.
type Iterator struct {
	leaf *leafNode
	idx  int
	hi   []byte // exclusive upper bound; nil means unbounded
}

// Valid reports whether the iterator currently points at an entry.
func (it *Iterator) Valid() bool {
	if it.leaf == nil || it.idx >= it.leaf.keys.len() {
		return false
	}
	return it.hi == nil || bytes.Compare(it.leaf.keys.at(it.idx), it.hi) < 0
}

// Key returns the current key: a view into the tree's node storage, valid
// only until the tree's next Set or Delete, which may move or overwrite it.
// The caller must not modify it, and must copy it to keep it longer.
func (it *Iterator) Key() []byte { return it.leaf.keys.at(it.idx) }

// Value returns the current value.
func (it *Iterator) Value() int64 { return it.leaf.vals[it.idx] }

// Next advances the iterator.
func (it *Iterator) Next() {
	it.idx++
	for it.leaf != nil && it.idx >= it.leaf.keys.len() {
		it.leaf = it.leaf.next
		it.idx = 0
	}
}

// Scan returns an iterator positioned at the first key >= lo, bounded
// exclusively by hi (nil hi means unbounded). The iterator is a value, so a
// scan allocates nothing.
func (t *Tree) Scan(lo, hi []byte) Iterator {
	it := Iterator{leaf: t.leafFor(lo), hi: hi}
	if lo != nil {
		it.idx, _ = it.leaf.keys.search(lo)
	}
	for it.leaf != nil && it.idx >= it.leaf.keys.len() {
		it.leaf = it.leaf.next
		it.idx = 0
	}
	return it
}

// Ascend calls fn for every key/value pair in ascending order until fn
// returns false. Each key is a view, as from Iterator.Key, and fn must not
// mutate the tree.
func (t *Tree) Ascend(fn func(key []byte, v int64) bool) {
	for it := t.Scan(nil, nil); it.Valid(); it.Next() {
		if !fn(it.Key(), it.Value()) {
			return
		}
	}
}

// Min returns the smallest key, or nil if the tree is empty. Like
// Iterator.Key, it is a view valid until the tree's next mutation.
func (t *Tree) Min() []byte {
	it := t.Scan(nil, nil)
	if !it.Valid() {
		return nil
	}
	return it.Key()
}

// Max returns the largest key, or nil if the tree is empty. Like
// Iterator.Key, it is a view valid until the tree's next mutation.
func (t *Tree) Max() []byte {
	n := t.root
	for {
		switch x := n.(type) {
		case *innerNode:
			n = x.children[len(x.children)-1]
		case *leafNode:
			// The rightmost leaf is empty only when it is the root of an
			// empty tree.
			if x.keys.len() == 0 {
				return nil
			}
			return x.keys.at(x.keys.len() - 1)
		}
	}
}
