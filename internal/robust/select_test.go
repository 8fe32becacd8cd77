package robust

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"cdfpoison/internal/xrand"
)

// killerOrdering runs McIlroy's adversary ("A Killer Adversary for
// Quicksort", 1999) against selectKth(·, k). Every value starts as
// undecided gas, which compares above every frozen value. When two gas
// values meet, one is frozen at the next smallest value: the pivot
// candidate (the last gas value compared against a frozen one) if it is
// one of the two. Pivots are thus frozen low and each partition keeps
// almost its whole range. Replaying selectKth on the frozen values
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
	selectKth(idx, k, func(x, y int) int {
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

// TestSelectKthMatchesSort checks selectKth against slices.SortFunc on
// every ordering, size and rank, both on the raw values and on scored
// pairs carrying them as residuals (so all-equal values become
// all-equal residuals told apart only by index, the tie rule Trimmed
// relies on).
func TestSelectKthMatchesSort(t *testing.T) {
	for _, o := range selectOrderings {
		for _, n := range []int{1, 2, 3, selectSortCutoff, selectSortCutoff + 1, 100, 1459, 10_000} {
			for _, k := range []int{0, n / 4, n / 2, n * 9 / 10, n - 1} {
				in := o.gen(n, k)
				name := fmt.Sprintf("%s n=%d k=%d", o.name, n, k)
				checkSelect(t, name, in, k, cmp.Compare[float64])
				pairs := make([]scored, n)
				for i, v := range in {
					pairs[i] = scored{r: v, idx: n - 1 - i}
				}
				checkSelect(t, name+" scored", pairs, k, scored.compare)
			}
		}
	}
}

// checkSelect runs selectKth(in, k) on a copy and checks that the returned
// element and s[k] equal the sorted k-th, nothing before k is ordered
// after it, nothing after k before it, s stays a permutation of in, and
// the comparison count stays within selectCmpFactor·n·log2(n).
func checkSelect[T any](t *testing.T, name string, in []T, k int, compare func(a, b T) int) {
	t.Helper()
	want := slices.Clone(in)
	slices.SortFunc(want, compare)
	s := slices.Clone(in)
	calls := 0
	got := selectKth(s, k, func(a, b T) int {
		calls++
		return compare(a, b)
	})
	if compare(got, want[k]) != 0 || compare(s[k], want[k]) != 0 {
		t.Fatalf("%s: got %v, s[k] = %v, want %v", name, got, s[k], want[k])
	}
	for i, v := range s {
		if (i < k && compare(v, s[k]) > 0) || (i > k && compare(v, s[k]) < 0) {
			t.Fatalf("%s: s[%d] = %v on the wrong side of s[k] = %v", name, i, v, s[k])
		}
	}
	slices.SortFunc(s, compare)
	if slices.CompareFunc(s, want, compare) != 0 {
		t.Fatalf("%s: result is not a permutation of the input", name)
	}
	n := float64(len(in))
	if bound := selectCmpFactor * n * math.Log2(n); float64(calls) > bound {
		t.Errorf("%s: %d comparisons, bound %.0f", name, calls, bound)
	}
}
