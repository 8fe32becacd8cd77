package robust

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"testing"

	"cdfpoison/internal/xrand"
)

// selectKthFunc is selectKth with every comparison routed through
// compare: the same introselect, pivot rule and sort fallback, step for
// step. It exists so tests can count comparisons and run McIlroy's
// adversary, which needs to see each comparison; TestSelectKthMatchesSort
// requires it to leave the same slice and return the same value as
// selectKth on every input, so the bounds it meets are selectKth's.
func selectKthFunc[T any](s []T, k int, compare func(a, b T) int) T {
	lo, hi := 0, len(s)
	unbalanced := 2 * bits.Len(uint(len(s)))
	for hi-lo > selectSortCutoff && unbalanced > 0 {
		size := hi - lo
		p := lo + partitionFunc(s[lo:hi], compare)
		switch {
		case k < p:
			hi = p
		case k > p:
			lo = p + 1
		default:
			return s[k]
		}
		if 8*(hi-lo) > 7*size {
			unbalanced--
		}
	}
	slices.SortFunc(s[lo:hi], compare)
	return s[k]
}

// partitionFunc is partition with every comparison routed through compare.
func partitionFunc[T any](s []T, compare func(a, b T) int) int {
	a, b, c := len(s)/4, len(s)/2, len(s)*3/4
	if compare(s[b], s[a]) < 0 {
		s[a], s[b] = s[b], s[a]
	}
	if compare(s[c], s[b]) < 0 {
		s[b], s[c] = s[c], s[b]
		if compare(s[b], s[a]) < 0 {
			s[a], s[b] = s[b], s[a]
		}
	}
	s[0], s[b] = s[b], s[0]
	pivot := s[0]
	i, j := 1, len(s)-1
	for {
		for i <= j && compare(s[i], pivot) < 0 {
			i++
		}
		for i <= j && compare(s[j], pivot) > 0 {
			j--
		}
		if i >= j {
			break
		}
		s[i], s[j] = s[j], s[i]
		i++
		j--
	}
	s[0], s[j] = s[j], s[0]
	return j
}

// killerOrdering runs McIlroy's adversary ("A Killer Adversary for
// Quicksort", 1999) against selectKthFunc(·, k). Every value starts as
// undecided gas, which compares above every frozen value. When two gas
// values meet, one is frozen at the next smallest value: the pivot
// candidate (the last gas value compared against a frozen one) if it is
// one of the two. Pivots are thus frozen low and each partition keeps
// almost its whole range. Replaying the selection on the frozen values
// repeats the same comparisons, so the result is the median-of-three
// killer for exactly this pivot rule.
func killerOrdering(n, k int) []float64 {
	gas := n
	val := make([]int, n)
	idx := make([]int, n)
	for i := range val {
		val[i] = gas
		idx[i] = i
	}
	solid, candidate := 0, 0
	selectKthFunc(idx, k, func(x, y int) int {
		if val[x] == gas && val[y] == gas {
			if x == candidate {
				val[x] = solid
			} else {
				val[y] = solid
			}
			solid++
		}
		if val[x] == gas {
			candidate = x
		} else if val[y] == gas {
			candidate = y
		}
		return cmp.Compare(val[x], val[y])
	})
	out := make([]float64, n)
	for i, v := range val {
		if v == gas {
			// Never met another gas value: any order above the frozen
			// values keeps every comparison's outcome.
			v = solid
			solid++
		}
		out[i] = float64(v)
	}
	return out
}

// selectOrderings are the inputs selectKth is checked on: the shapes that
// break naive quickselect pivots, plus all-equal values (TheilSen's slopes
// on a perfect progression) and a random baseline.
var selectOrderings = []struct {
	name string
	gen  func(n, k int) []float64
}{
	{"sorted", func(n, _ int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i)
		}
		return s
	}},
	{"reversed", func(n, _ int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i)
		}
		return s
	}},
	{"all-equal", func(n, _ int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = 7
		}
		return s
	}},
	{"organ-pipe", func(n, _ int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(min(i, n-1-i))
		}
		return s
	}},
	{"random", func(n, _ int) []float64 {
		rng := xrand.New(uint64(n))
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(rng.Intn(n))
		}
		return s
	}},
	{"median-of-3-killer", killerOrdering},
}

// selectCmpFactor is c in the comparison bound c·n·log2(n) every ordering
// must meet. Without the sort fallback, the killer ordering at n=1e4 costs
// about 25M comparisons, 47 times the bound.
const selectCmpFactor = 4

// TestSelectKthMatchesSort checks selectKth against slices.Sort on every
// ordering, size and rank, and runs selectKthFunc on the same input to
// count comparisons: the twin must leave the same slice and return the
// same value bit for bit, so its comparison count is selectKth's.
func TestSelectKthMatchesSort(t *testing.T) {
	for _, o := range selectOrderings {
		for _, n := range []int{1, 2, 3, selectSortCutoff, selectSortCutoff + 1, 100, 1459, 10_000} {
			for _, k := range []int{0, n / 4, n / 2, n * 9 / 10, n - 1} {
				checkSelect(t, fmt.Sprintf("%s n=%d k=%d", o.name, n, k), o.gen(n, k), k)
			}
		}
	}
}

// checkSelect runs selectKth(in, k) on a copy and checks that the returned
// value and s[k] equal the sorted k-th, nothing before k is larger,
// nothing after k smaller, and s stays a permutation of in. It then runs
// selectKthFunc on another copy and checks that the twin returns the same
// bits, leaves the same slice, and stays within selectCmpFactor·n·log2(n)
// comparisons.
func checkSelect(t *testing.T, name string, in []float64, k int) {
	t.Helper()
	want := slices.Clone(in)
	slices.Sort(want)
	s := slices.Clone(in)
	got := selectKth(s, k)
	if got != want[k] || s[k] != want[k] {
		t.Fatalf("%s: got %v, s[k] = %v, want %v", name, got, s[k], want[k])
	}
	for i, v := range s {
		if (i < k && v > s[k]) || (i > k && v < s[k]) {
			t.Fatalf("%s: s[%d] = %v on the wrong side of s[k] = %v", name, i, v, s[k])
		}
	}
	twin := slices.Clone(in)
	calls := 0
	twinGot := selectKthFunc(twin, k, func(a, b float64) int {
		calls++
		return cmp.Compare(a, b)
	})
	if math.Float64bits(twinGot) != math.Float64bits(got) {
		t.Fatalf("%s: twin returned %v, selectKth %v", name, twinGot, got)
	}
	for i := range s {
		if math.Float64bits(twin[i]) != math.Float64bits(s[i]) {
			t.Fatalf("%s: twin left %v at %d, selectKth %v", name, twin[i], i, s[i])
		}
	}
	slices.Sort(s)
	if !slices.Equal(s, want) {
		t.Fatalf("%s: result is not a permutation of the input", name)
	}
	n := float64(len(in))
	if bound := selectCmpFactor * n * math.Log2(n); float64(calls) > bound {
		t.Errorf("%s: %d comparisons, bound %.0f", name, calls, bound)
	}
}
