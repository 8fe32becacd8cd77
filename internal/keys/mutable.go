package keys

import (
	"fmt"
)

// InsertAt places k at position i of the sorted slice buf and returns the
// resulting slice. With clone=false it shifts in place (amortized append,
// exactly the historical delta-buffer insert); with clone=true it builds a
// fresh slice and leaves buf's backing array untouched — the copy-on-write
// step the snapshot-isolated dynamic.Index (and so the single-model RMI
// and every shard, which are dynamic.Index values) takes on the first
// mutation after handing out a snapshot that aliases buf.
func InsertAt(buf []int64, i int, k int64, clone bool) []int64 {
	if clone {
		nb := make([]int64, len(buf)+1)
		copy(nb, buf[:i])
		nb[i] = k
		copy(nb[i+1:], buf[i:])
		return nb
	}
	buf = append(buf, 0)
	copy(buf[i+1:], buf[i:])
	buf[i] = k
	return buf
}

// MutableSet is the mutable companion of Set for the attack hot loops: a
// sorted, duplicate-free key slice with pre-reserved tail capacity so that
// Insert is a single in-place memmove — no allocation, no re-sort — until
// the reserve is exhausted. It backs the incremental attack kernel
// (regression.NewPrefixMutable), where Algorithm 1 inserts up to p poisoning
// keys one at a time and the historical copy-on-insert of Set cost O(n)
// allocations per step (see DESIGN.md §3, "Allocation budget").
//
// A MutableSet is NOT safe for concurrent mutation. Concurrent readers are
// safe between mutations, which is exactly the discipline the greedy attack
// follows: the parallel candidate scan reads a View, the chosen key is
// inserted sequentially, and only then does the next scan start.
type MutableSet struct {
	ks []int64
}

// NewMutable copies s into a MutableSet with capacity for reserve further
// inserts. reserve < 0 is treated as 0.
func NewMutable(s Set, reserve int) *MutableSet {
	m := new(MutableSet)
	m.Reset(s, reserve)
	return m
}

// Reset refills m in place with a copy of s, keeping capacity for reserve
// further inserts (reserve < 0 is treated as 0). The backing array is
// reused when it has room and replaced otherwise, so a workspace that
// refills one MutableSet per run allocates only when a run outgrows every
// earlier one. Views taken before the Reset must not be used after it.
func (m *MutableSet) Reset(s Set, reserve int) {
	if need := s.Len() + max(reserve, 0); cap(m.ks) < need {
		m.ks = make([]int64, 0, need)
	}
	m.ks = append(m.ks[:0], s.Keys()...)
}

// Len returns the number of keys currently stored.
func (m *MutableSet) Len() int { return len(m.ks) }

// Cap returns the total capacity (stored keys + remaining reserve).
func (m *MutableSet) Cap() int { return cap(m.ks) }

// At returns the key of rank i+1.
func (m *MutableSet) At(i int) int64 { return m.ks[i] }

// View returns the current content as a Set WITHOUT copying. The view
// shares the backing array: it is valid only until the next Insert or
// Reset, which move keys underneath it. A caller that needs a durable
// snapshot while the set lives on must copy the view (New copies); a view
// that outlives the set's last mutation is durable as it is.
func (m *MutableSet) View() Set { return Set{ks: m.ks} }

// Window returns how many stored keys are below k, and dst with the keys
// of ranks [pos−w, pos+w), clipped to the set, appended in order: the rank
// face (index.Ranker) a defense guard's mirror serves through.
func (m *MutableSet) Window(k int64, w int, dst []int64) (pos int, near []int64) {
	pos = m.CountLess(k)
	w = min(w, len(m.ks))
	return pos, append(dst, m.ks[max(pos-w, 0):min(pos+w, len(m.ks))]...)
}

// CountLess returns |{x : x < k}|, the 0-based insertion index of k.
// Rank arithmetic delegates through the zero-cost View so the mutable and
// immutable paths can never diverge.
func (m *MutableSet) CountLess(k int64) int { return m.View().CountLess(k) }

// InsertedRank returns the 1-based rank k would take if inserted; the second
// result is false if k is already present.
func (m *MutableSet) InsertedRank(k int64) (int, bool) { return m.View().InsertedRank(k) }

// Insert adds k in place, returning its 0-based position. If k is negative
// or already present, ok is false and the set is unchanged. Within the
// reserved capacity the cost is one binary search plus one memmove and zero
// allocations; beyond it the backing array grows (append semantics), which
// the attack kernels avoid by reserving their full poison budget up front.
func (m *MutableSet) Insert(k int64) (pos int, ok bool) {
	if k < 0 {
		return 0, false
	}
	i := m.CountLess(k)
	if i < len(m.ks) && m.ks[i] == k {
		return 0, false
	}
	n := len(m.ks)
	if n < cap(m.ks) {
		m.ks = m.ks[:n+1]
	} else {
		m.ks = append(m.ks, 0) // reserve exhausted: pay the growth once
	}
	copy(m.ks[i+1:], m.ks[i:n])
	m.ks[i] = k
	return i, true
}

// String renders like Set.
func (m *MutableSet) String() string {
	return fmt.Sprintf("keys.MutableSet{n=%d, cap=%d}", len(m.ks), cap(m.ks))
}
