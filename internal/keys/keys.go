// Package keys provides the key-set substrate shared by every component of
// the repository: validated, sorted, duplicate-free sets of non-negative
// integer keys, together with the rank and gap machinery that the CDF
// poisoning attacks operate on.
//
// Terminology follows the paper (Section III): a key set K of size n is a
// subset of a key universe [0, m); the rank of a key is its 1-based position
// in the sorted order of K; the density of K is n/m. Poisoning keys must be
// unoccupied integers strictly between the minimum and maximum legitimate
// key, so the central iteration primitive here is the enumeration of
// "gaps" — maximal runs of unoccupied keys between consecutive stored keys.
package keys

import (
	"errors"
	"fmt"
	"sort"
)

// ErrEmpty is returned by operations that require at least one key.
var ErrEmpty = errors.New("keys: empty key set")

// ErrDuplicate is returned by strict constructors when the input contains a
// repeated key. The paper's key sets contain no multiplicities.
var ErrDuplicate = errors.New("keys: duplicate key")

// ErrNegative is returned when a key is negative; the paper assumes keys are
// non-negative integers so that a total order is always defined.
var ErrNegative = errors.New("keys: negative key")

// Set is an immutable, sorted, duplicate-free collection of non-negative
// integer keys. The zero value is an empty set. Construct with New,
// NewStrict, or FromSorted; all accessors are safe on the zero value.
type Set struct {
	ks []int64
}

// New builds a Set from arbitrary input: it copies, sorts, and removes
// duplicates. Negative keys yield an error. Use NewStrict when duplicates
// should be rejected rather than collapsed.
func New(input []int64) (Set, error) {
	ks := make([]int64, len(input))
	copy(ks, input)
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	out := ks[:0]
	var prev int64 = -1
	for _, k := range ks {
		if k < 0 {
			return Set{}, fmt.Errorf("%w: %d", ErrNegative, k)
		}
		if k == prev && len(out) > 0 {
			continue
		}
		out = append(out, k)
		prev = k
	}
	return Set{ks: out}, nil
}

// NewStrict is like New but returns ErrDuplicate if the input contains any
// repeated key instead of silently deduplicating.
func NewStrict(input []int64) (Set, error) {
	ks := make([]int64, len(input))
	copy(ks, input)
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	for i, k := range ks {
		if k < 0 {
			return Set{}, fmt.Errorf("%w: %d", ErrNegative, k)
		}
		if i > 0 && ks[i-1] == k {
			return Set{}, fmt.Errorf("%w: %d", ErrDuplicate, k)
		}
	}
	return Set{ks: ks}, nil
}

// FromSorted adopts a slice that the caller guarantees is strictly
// increasing and non-negative; it panics otherwise. It does not copy, so the
// caller must not mutate the slice afterwards. It exists for the hot paths
// (partitioning a large set into thousands of per-model subsets).
func FromSorted(sorted []int64) Set {
	for i, k := range sorted {
		if k < 0 {
			panic("keys: FromSorted with negative key")
		}
		if i > 0 && sorted[i-1] >= k {
			panic("keys: FromSorted with unsorted or duplicate keys")
		}
	}
	return Set{ks: sorted}
}

// Len returns the number of keys n.
func (s Set) Len() int { return len(s.ks) }

// At returns the key of rank i+1 (0-based index into the sorted order).
func (s Set) At(i int) int64 { return s.ks[i] }

// Min returns the smallest key; it panics on an empty set.
func (s Set) Min() int64 { return s.ks[0] }

// Max returns the largest key; it panics on an empty set.
func (s Set) Max() int64 { return s.ks[len(s.ks)-1] }

// Keys returns the backing sorted slice. Callers must treat it as read-only.
func (s Set) Keys() []int64 { return s.ks }

// Contains reports whether k is stored in the set.
func (s Set) Contains(k int64) bool {
	i := sort.Search(len(s.ks), func(i int) bool { return s.ks[i] >= k })
	return i < len(s.ks) && s.ks[i] == k
}

// Rank returns the 1-based rank of k if present, or 0 and false otherwise.
func (s Set) Rank(k int64) (int, bool) {
	i := sort.Search(len(s.ks), func(i int) bool { return s.ks[i] >= k })
	if i < len(s.ks) && s.ks[i] == k {
		return i + 1, true
	}
	return 0, false
}

// CountLess returns |{x in S : x < k}|, i.e. the 0-based insertion index.
// For an absent key k this is exactly (rank k would take) − 1.
func (s Set) CountLess(k int64) int {
	return sort.Search(len(s.ks), func(i int) bool { return s.ks[i] >= k })
}

// InsertedRank returns the 1-based rank the key k would take if inserted.
// If k is already present the second result is false.
func (s Set) InsertedRank(k int64) (int, bool) {
	i := s.CountLess(k)
	if i < len(s.ks) && s.ks[i] == k {
		return 0, false
	}
	return i + 1, true
}

// Insert returns a new Set containing k. If k is already present ok is
// false and the receiver is returned unchanged. The receiver is never
// mutated; Insert copies, costing O(n) — acceptable for attack loops that
// insert at most 0.2·n keys.
func (s Set) Insert(k int64) (Set, bool) {
	if k < 0 {
		return s, false
	}
	i := s.CountLess(k)
	if i < len(s.ks) && s.ks[i] == k {
		return s, false
	}
	out := make([]int64, len(s.ks)+1)
	copy(out, s.ks[:i])
	out[i] = k
	copy(out[i+1:], s.ks[i:])
	return Set{ks: out}, true
}

// Remove returns a new Set without k. If k is absent ok is false and the
// receiver is returned unchanged. The receiver is never mutated; the survivor
// keys are produced by one copy around the removed position — no re-sort, no
// re-validation — because deleting from a sorted duplicate-free slice cannot
// break either invariant.
func (s Set) Remove(k int64) (Set, bool) {
	i := s.CountLess(k)
	if i >= len(s.ks) || s.ks[i] != k {
		return s, false
	}
	out := make([]int64, len(s.ks)-1)
	copy(out, s.ks[:i])
	copy(out[i:], s.ks[i+1:])
	return Set{ks: out}, true
}

// Union returns the union of s and other (both already duplicate-free).
func (s Set) Union(other Set) Set {
	out := make([]int64, 0, len(s.ks)+len(other.ks))
	i, j := 0, 0
	for i < len(s.ks) && j < len(other.ks) {
		switch {
		case s.ks[i] < other.ks[j]:
			out = append(out, s.ks[i])
			i++
		case s.ks[i] > other.ks[j]:
			out = append(out, other.ks[j])
			j++
		default:
			out = append(out, s.ks[i])
			i++
			j++
		}
	}
	out = append(out, s.ks[i:]...)
	out = append(out, other.ks[j:]...)
	return Set{ks: out}
}

// Slice returns the sub-set of keys with 0-based sorted positions [lo, hi).
// The result shares backing storage with s.
func (s Set) Slice(lo, hi int) Set {
	return Set{ks: s.ks[lo:hi]}
}

// Density returns n/m for a universe of size m, or 0 when m <= 0.
func (s Set) Density(m int64) float64 {
	if m <= 0 {
		return 0
	}
	return float64(len(s.ks)) / float64(m)
}

// Gap is a maximal run of consecutive unoccupied keys strictly between two
// stored keys. Lo and Hi are the first and last unoccupied keys of the run
// (inclusive); Rank is the 1-based rank any key inserted in this gap would
// take. Width = Hi − Lo + 1 >= 1.
type Gap struct {
	Lo, Hi int64
	Rank   int
}

// Width returns the number of unoccupied keys in the gap.
func (g Gap) Width() int64 { return g.Hi - g.Lo + 1 }

// Gaps returns every gap between consecutive stored keys, in increasing key
// order. Out-of-range positions (below Min or above Max) are deliberately
// excluded: the paper restricts poisoning keys to the interior so that they
// cannot be filtered as out-of-range values or outliers (Section IV-C).
// A set with fewer than two keys has no interior and hence no gaps.
func (s Set) Gaps() []Gap {
	var gaps []Gap
	for i := 0; i+1 < len(s.ks); i++ {
		if s.ks[i+1]-s.ks[i] >= 2 {
			gaps = append(gaps, Gap{Lo: s.ks[i] + 1, Hi: s.ks[i+1] - 1, Rank: i + 2})
		}
	}
	return gaps
}

// FreeSlots returns the total number of unoccupied interior keys — the size
// of the feasible poisoning-key space.
func (s Set) FreeSlots() int64 {
	var total int64
	for i := 0; i+1 < len(s.ks); i++ {
		total += s.ks[i+1] - s.ks[i] - 1
	}
	return total
}

// Saturated reports whether the interior has no unoccupied key, i.e. the set
// is a run of consecutive integers (or has fewer than two keys). A saturated
// set cannot be poisoned under the paper's in-range constraint.
func (s Set) Saturated() bool { return s.FreeSlots() == 0 }

// Partition splits the set into fanout contiguous chunks whose sizes differ
// by at most one (the first n mod fanout chunks get the extra key), mirroring
// the equal-size key partition the RMI designer performs at initialization
// (Section V). It panics if fanout <= 0. Sets smaller than fanout yield
// some empty chunks at the tail.
func (s Set) Partition(fanout int) []Set {
	if fanout <= 0 {
		panic("keys: Partition with fanout <= 0")
	}
	n := len(s.ks)
	out := make([]Set, fanout)
	base := n / fanout
	extra := n % fanout
	lo := 0
	for i := 0; i < fanout; i++ {
		size := base
		if i < extra {
			size++
		}
		out[i] = Set{ks: s.ks[lo : lo+size]}
		lo += size
	}
	return out
}

// Equal reports whether two sets contain exactly the same keys.
func (s Set) Equal(other Set) bool {
	if len(s.ks) != len(other.ks) {
		return false
	}
	for i := range s.ks {
		if s.ks[i] != other.ks[i] {
			return false
		}
	}
	return true
}

// String renders small sets fully and large sets as a summary.
func (s Set) String() string {
	if len(s.ks) <= 16 {
		return fmt.Sprintf("keys.Set%v", s.ks)
	}
	return fmt.Sprintf("keys.Set{n=%d, min=%d, max=%d}", len(s.ks), s.Min(), s.Max())
}
