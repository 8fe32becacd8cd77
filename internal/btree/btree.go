// Package btree implements an in-memory B-Tree over int64 keys — the
// traditional index structure that learned index structures are measured
// against (Kraska et al. report a two-stage RMI outperforming a highly
// optimized B-Tree; the poisoning paper's premise is that this advantage is
// what an attacker erodes).
//
// The tree supports insertion, deletion, point lookup with comparison
// accounting, ordered iteration, and rank queries, using the classic
// preemptive split/merge algorithms so that every operation completes in a
// single root-to-leaf pass.
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
	// counts[i] = total keys in subtree children[i]; maintained for O(log n)
	// rank queries. nil for leaves.
	counts []int
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

func (n *node) subtreeSize() int {
	s := len(n.keys)
	for _, c := range n.counts {
		s += c
	}
	return s
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

// Contains reports whether k is stored.
func (t *Tree) Contains(k int64) bool {
	ok, _ := t.Get(k)
	return ok
}

// Rank returns the number of stored keys strictly less than k, in O(log n)
// via subtree counts.
func (t *Tree) Rank(k int64) int {
	rank := 0
	n := t.root
	for {
		var probes int
		i, ok := n.search(k, &probes)
		if n.leaf() {
			return rank + i
		}
		for j := 0; j < i; j++ {
			rank += n.counts[j]
		}
		rank += i
		if ok {
			// keys[0..i-1], subtrees 0..i-1, and the whole subtree i are
			// all strictly below k.
			return rank + n.counts[i]
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
		newRoot := &node{children: []*node{r}, counts: []int{r.subtreeSize()}}
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
		right.counts = append([]int(nil), child.counts[d:]...)
		child.children = child.children[:d]
		child.counts = child.counts[:d]
	}
	child.keys = child.keys[:d-1]

	n.keys = append(n.keys, 0)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = median

	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right

	n.counts = append(n.counts, 0)
	copy(n.counts[i+2:], n.counts[i+1:])
	n.counts[i] = child.subtreeSize()
	n.counts[i+1] = right.subtreeSize()
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
	inserted := n.children[i].insertNonFull(k, d)
	if inserted {
		n.counts[i]++
	}
	return inserted
}

// Delete removes k; it reports false if k was not present.
func (t *Tree) Delete(k int64) bool {
	deleted := t.root.delete(k, t.degree)
	// The descent may restructure (merge) before discovering the key is
	// absent, so the root fix-up must run on every path, found or not.
	if len(t.root.keys) == 0 && !t.root.leaf() {
		t.root = t.root.children[0]
	}
	if deleted {
		t.size--
	}
	return deleted
}

// delete removes k from the subtree rooted at n, assuming n has at least d
// keys (or is the root). Standard CLRS case analysis.
func (n *node) delete(k int64, d int) bool {
	var probes int
	i, ok := n.search(k, &probes)
	if n.leaf() {
		if !ok {
			return false
		}
		n.keys = append(n.keys[:i], n.keys[i+1:]...)
		return true
	}
	if ok {
		// Case 2: k lives in this internal node.
		if len(n.children[i].keys) >= d {
			pred := n.children[i].max()
			n.keys[i] = pred
			n.children[i].delete(pred, d)
			n.counts[i]--
			return true
		}
		if len(n.children[i+1].keys) >= d {
			succ := n.children[i+1].min()
			n.keys[i] = succ
			n.children[i+1].delete(succ, d)
			n.counts[i+1]--
			return true
		}
		// Both neighbours minimal: merge and recurse.
		n.mergeChildren(i)
		deleted := n.children[i].delete(k, d)
		if deleted {
			n.counts[i]--
		}
		return deleted
	}
	// Case 3: k (if present) lives in subtree i; ensure it has >= d keys.
	child := n.children[i]
	if len(child.keys) == d-1 {
		switch {
		case i > 0 && len(n.children[i-1].keys) >= d:
			n.borrowFromLeft(i)
		case i < len(n.children)-1 && len(n.children[i+1].keys) >= d:
			n.borrowFromRight(i)
		default:
			if i == len(n.children)-1 {
				i--
			}
			n.mergeChildren(i)
		}
	}
	deleted := n.children[i].delete(k, d)
	if deleted {
		n.counts[i]--
	}
	return deleted
}

func (n *node) min() int64 {
	for !n.leaf() {
		n = n.children[0]
	}
	return n.keys[0]
}

func (n *node) max() int64 {
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	return n.keys[len(n.keys)-1]
}

// borrowFromLeft rotates a key from child i−1 through the separator into
// child i.
func (n *node) borrowFromLeft(i int) {
	child, left := n.children[i], n.children[i-1]
	child.keys = append(child.keys, 0)
	copy(child.keys[1:], child.keys)
	child.keys[0] = n.keys[i-1]
	n.keys[i-1] = left.keys[len(left.keys)-1]
	left.keys = left.keys[:len(left.keys)-1]
	moved := 1
	if !left.leaf() {
		c := left.children[len(left.children)-1]
		cc := left.counts[len(left.counts)-1]
		left.children = left.children[:len(left.children)-1]
		left.counts = left.counts[:len(left.counts)-1]
		child.children = append(child.children, nil)
		copy(child.children[1:], child.children)
		child.children[0] = c
		child.counts = append(child.counts, 0)
		copy(child.counts[1:], child.counts)
		child.counts[0] = cc
		moved += cc
	}
	n.counts[i-1] -= moved
	n.counts[i] += moved
}

// borrowFromRight rotates a key from child i+1 through the separator into
// child i.
func (n *node) borrowFromRight(i int) {
	child, right := n.children[i], n.children[i+1]
	child.keys = append(child.keys, n.keys[i])
	n.keys[i] = right.keys[0]
	right.keys = append(right.keys[:0], right.keys[1:]...)
	moved := 1
	if !right.leaf() {
		c := right.children[0]
		cc := right.counts[0]
		right.children = append(right.children[:0], right.children[1:]...)
		right.counts = append(right.counts[:0], right.counts[1:]...)
		child.children = append(child.children, c)
		child.counts = append(child.counts, cc)
		moved += cc
	}
	n.counts[i+1] -= moved
	n.counts[i] += moved
}

// mergeChildren folds child i+1 and the separator key into child i.
func (n *node) mergeChildren(i int) {
	child, right := n.children[i], n.children[i+1]
	child.keys = append(child.keys, n.keys[i])
	child.keys = append(child.keys, right.keys...)
	if !child.leaf() {
		child.children = append(child.children, right.children...)
		child.counts = append(child.counts, right.counts...)
	}
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.children = append(n.children[:i+1], n.children[i+2:]...)
	merged := n.counts[i] + n.counts[i+1] + 1
	n.counts = append(n.counts[:i], n.counts[i+1:]...)
	n.counts[i] = merged
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

// clone deep-copies the subtree: fresh nodes, fresh key/count slices, same
// contents. Probe counts through the copy are identical to the original's
// because the structure is identical.
func (n *node) clone() *node {
	c := &node{keys: append([]int64(nil), n.keys...)}
	if !n.leaf() {
		c.children = make([]*node, len(n.children))
		for i, ch := range n.children {
			c.children[i] = ch.clone()
		}
		c.counts = append([]int(nil), n.counts...)
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

// checkInvariants walks the tree verifying ordering, occupancy, and count
// bookkeeping. Exposed to tests via export_test.go.
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
	if len(n.children) != len(n.keys)+1 || len(n.counts) != len(n.children) {
		return 0, fmt.Errorf("btree: fanout mismatch: %d keys, %d children, %d counts",
			len(n.keys), len(n.children), len(n.counts))
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
		if cnt != n.counts[i] {
			return 0, fmt.Errorf("btree: count cache %d but subtree holds %d", n.counts[i], cnt)
		}
		total += cnt
	}
	return total, nil
}
