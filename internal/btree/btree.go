// Package btree implements an in-memory B-Tree over int64 keys — the
// traditional index structure that learned index structures are measured
// against (Kraska et al. report a two-stage RMI outperforming a highly
// optimized B-Tree; the poisoning paper's premise is that this advantage is
// what an attacker erodes).
//
// The tree supports insertion, point lookup with comparison accounting, and
// ordered iteration, using the classic preemptive split so that every
// insertion completes in a single root-to-leaf pass.
package btree

import "fmt"

// Tree is a B-Tree of minimum degree d: every node except the root holds
// between d−1 and 2d−1 keys. The zero value is not usable; call New.
type Tree struct {
	root   *node
	degree int
	size   int
}

type node struct {
	keys     []int64
	children []*node
}

func (n *node) leaf() bool { return len(n.children) == 0 }

// New creates an empty tree with the given minimum degree (>= 2). A degree
// of 32 gives node sizes comparable to cache-line-friendly production trees.
func New(degree int) (*Tree, error) {
	if degree < 2 {
		return nil, fmt.Errorf("btree: minimum degree must be >= 2, got %d", degree)
	}
	return &Tree{root: &node{}, degree: degree}, nil
}

// Len returns the number of stored keys.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels (1 for a tree holding only a root).
func (t *Tree) Height() int {
	h := 0
	for n := t.root; n != nil; {
		h++
		if n.leaf() {
			break
		}
		n = n.children[0]
	}
	return h
}

// search returns the index of the first key >= k in the node and whether it
// equals k, counting comparisons into *probes (binary search within node).
func (n *node) search(k int64, probes *int) (int, bool) {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		*probes++
		if n.keys[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(n.keys) && n.keys[lo] == k
}

// Get reports whether k is stored, along with the number of key comparisons
// performed — the implementation-independent lookup-cost metric used when
// comparing against the learned index.
func (t *Tree) Get(k int64) (found bool, probes int) {
	n := t.root
	for {
		i, ok := n.search(k, &probes)
		if ok {
			return true, probes
		}
		if n.leaf() {
			return false, probes
		}
		n = n.children[i]
	}
}

// Insert adds k; accepted is false if k was already present or negative
// (the repository's key universe is [0, m), and Keys() materializes into a
// keys.Set that enforces it). The second result is index.Backend's
// retrained flag and is always false: a B-Tree rebalances incrementally on
// the way down and never retrains.
func (t *Tree) Insert(k int64) (accepted, retrained bool) {
	if k < 0 {
		return false, false
	}
	r := t.root
	if len(r.keys) == 2*t.degree-1 {
		// Preemptive root split keeps the downward pass single-phase.
		newRoot := &node{children: []*node{r}}
		newRoot.splitChild(0, t.degree)
		t.root = newRoot
	}
	if t.root.insertNonFull(k, t.degree) {
		t.size++
		return true, false
	}
	return false, false
}

// splitChild splits the full child at index i into two d−1-key nodes,
// hoisting the median into n.
func (n *node) splitChild(i, d int) {
	child := n.children[i]
	median := child.keys[d-1]

	right := &node{keys: append([]int64(nil), child.keys[d:]...)}
	if !child.leaf() {
		right.children = append([]*node(nil), child.children[d:]...)
		child.children = child.children[:d]
	}
	child.keys = child.keys[:d-1]

	n.keys = append(n.keys, 0)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = median

	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
}

func (n *node) insertNonFull(k int64, d int) bool {
	var probes int
	i, ok := n.search(k, &probes)
	if ok {
		return false
	}
	if n.leaf() {
		n.keys = append(n.keys, 0)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = k
		return true
	}
	if len(n.children[i].keys) == 2*d-1 {
		n.splitChild(i, d)
		if k == n.keys[i] {
			return false
		}
		if k > n.keys[i] {
			i++
		}
	}
	return n.children[i].insertNonFull(k, d)
}

// Ascend calls fn on every key in increasing order until fn returns false.
func (t *Tree) Ascend(fn func(k int64) bool) {
	t.root.ascend(fn)
}

func (n *node) ascend(fn func(k int64) bool) bool {
	for i, k := range n.keys {
		if !n.leaf() && !n.children[i].ascend(fn) {
			return false
		}
		if !fn(k) {
			return false
		}
	}
	if !n.leaf() {
		return n.children[len(n.children)-1].ascend(fn)
	}
	return true
}

// clone deep-copies the subtree: fresh nodes, fresh key slices, same
// contents. Probe counts through the copy are identical to the original's
// because the structure is identical.
func (n *node) clone() *node {
	c := &node{keys: append([]int64(nil), n.keys...)}
	if !n.leaf() {
		c.children = make([]*node, len(n.children))
		for i, ch := range n.children {
			c.children[i] = ch.clone()
		}
	}
	return c
}

// Clone returns an independent structural copy of the tree in O(n): same
// keys, same node layout, so every lookup answers with the same probe
// count. Mutating either tree afterwards leaves the other untouched.
func (t *Tree) Clone() *Tree {
	return &Tree{root: t.root.clone(), degree: t.degree, size: t.size}
}

// Bulk builds a tree from keys by repeated insertion.
func Bulk(degree int, ks []int64) (*Tree, error) {
	t, err := New(degree)
	if err != nil {
		return nil, err
	}
	for _, k := range ks {
		t.Insert(k)
	}
	return t, nil
}

// checkInvariants walks the tree verifying ordering, occupancy, and the
// size count. Exposed to tests via export_test.go.
func (t *Tree) checkInvariants() error {
	if t.root == nil {
		return fmt.Errorf("btree: nil root")
	}
	n, err := t.root.check(t.degree, true, nil, nil)
	if err != nil {
		return err
	}
	if n != t.size {
		return fmt.Errorf("btree: size %d but %d keys reachable", t.size, n)
	}
	return nil
}

func (n *node) check(d int, isRoot bool, lo, hi *int64) (int, error) {
	if !isRoot && len(n.keys) < d-1 {
		return 0, fmt.Errorf("btree: underfull node (%d keys, degree %d)", len(n.keys), d)
	}
	if len(n.keys) > 2*d-1 {
		return 0, fmt.Errorf("btree: overfull node (%d keys)", len(n.keys))
	}
	for i, k := range n.keys {
		if i > 0 && n.keys[i-1] >= k {
			return 0, fmt.Errorf("btree: unsorted keys in node")
		}
		if lo != nil && k <= *lo {
			return 0, fmt.Errorf("btree: key %d violates lower bound %d", k, *lo)
		}
		if hi != nil && k >= *hi {
			return 0, fmt.Errorf("btree: key %d violates upper bound %d", k, *hi)
		}
	}
	if n.leaf() {
		return len(n.keys), nil
	}
	if len(n.children) != len(n.keys)+1 {
		return 0, fmt.Errorf("btree: fanout mismatch: %d keys, %d children", len(n.keys), len(n.children))
	}
	total := len(n.keys)
	for i, c := range n.children {
		var clo, chi *int64
		if i > 0 {
			clo = &n.keys[i-1]
		} else {
			clo = lo
		}
		if i < len(n.keys) {
			chi = &n.keys[i]
		} else {
			chi = hi
		}
		cnt, err := c.check(d, false, clo, chi)
		if err != nil {
			return 0, err
		}
		total += cnt
	}
	return total, nil
}
