package dynamic

// Sorted-batch probe kernel (index.BatchReader, DESIGN.md §12). For a
// sorted query batch the per-key Lookup's memory walks are redundant: every
// comparison outcome inside the envelope binary search is a pure function
// of the key's lower-bound rank in the base, and likewise for the buffer
// fallback. One merged gallop pass over base and buffer resolves all ranks,
// then each key's probe count is an O(1) read from the shared probe-depth
// tables (index.ProbeDepths) — the count depends only on (window size,
// rank in window) — so (probes, notFound) are bit-identical to view.Lookup
// summed per key with no mid-sequence walk at all.

import (
	"math"

	"cdfpoison/internal/index"
)

var (
	_ index.BatchReader = (*Index)(nil)
	_ index.BatchReader = (*view)(nil)
)

// ProbeSumSorted evaluates a sorted (non-decreasing) query batch against
// the current state, bit-identical to ProbeSum on the same batch.
func (x *Index) ProbeSumSorted(sorted []int64) (probes int64, notFound int) {
	return x.v.ProbeSumSorted(sorted)
}

// ProbeSumSorted is the snapshot-side batch kernel: one forward gallop
// cursor per array (base, buffer), O(1) arithmetic replay per key via the
// shared probe-depth tables (index.ProbeDepths). The envelope search's
// probe count is a pure function of (window size, rank in window): Hit for
// base keys — the retrain-time envelope guarantees their rank lies inside
// the window — and Gap (clamped) for everything else, which exhausts the
// window on the same descent the per-key loop walks.
func (v *view) ProbeSumSorted(sorted []int64) (probes int64, notFound int) {
	base := v.base.Keys()
	nb := len(base)
	buffer := v.buffer
	var bufTab *index.SearchDepths
	if len(buffer) > 0 {
		bufTab = index.ProbeDepths(len(buffer))
	}
	// An unclamped window's size is a pure function of the envelope span
	// and the prediction's fractional part: with f = frac(pred+eLo),
	// s = ceil(f + span) + 1 ∈ {ceil(span)+1, ceil(span)+2}. Prefetch both
	// tables once so the hot loop selects by arithmetic, not by lock.
	// Windows clamped at the array edges take unboundedly many sizes, so
	// they replay the descent arithmetically (index.DescentProbes) instead
	// of caching a table per size.
	eLo, eHi := v.eLo, v.eHi
	s0 := int(math.Ceil(eHi-eLo)) + 1
	var pair [2]*index.SearchDepths
	if nb > 0 {
		pair[0] = index.ProbeDepths(s0)
		pair[1] = index.ProbeDepths(s0 + 1)
	}
	posB, posU := 0, 0
	for _, k := range sorted {
		// Gallop fast path: over a dense sorted batch the cursor advances
		// by 0 or 1 almost always; gallop only for real jumps.
		if posB < nb && base[posB] < k {
			posB++
			if posB < nb && base[posB] < k {
				posB = index.GallopLower(base, k, posB+1)
			}
		}
		foundBase := posB < nb && base[posB] == k
		pred := v.model.Predict(k)
		lo := int(math.Floor(pred+eLo)) - 1
		hi := int(math.Ceil(pred+eHi)) - 1
		clamped := false
		if lo < 0 {
			lo, clamped = 0, true
		}
		if hi > nb-1 {
			hi, clamped = nb-1, true
		}
		found := false
		if lo <= hi {
			s := hi - lo + 1
			t := posB - lo
			found = foundBase && t >= 0 && t < s
			if t < 0 {
				t = 0
			} else if t > s {
				t = s
			}
			switch {
			case clamped:
				probes += int64(index.DescentProbes(s, t, found))
			case found:
				probes += int64(pair[s-s0].Hit[t])
			default:
				probes += int64(pair[s-s0].Gap[t])
			}
		}
		if !found && bufTab != nil {
			// Buffer fallback: the plain binary search over the whole
			// buffer, replayed from the same tables.
			posU = index.GallopLower(buffer, k, posU)
			if posU < len(buffer) && buffer[posU] == k {
				probes += int64(bufTab.Hit[posU])
				found = true
			} else {
				probes += int64(bufTab.Gap[posU])
			}
		}
		if !found {
			notFound++
		}
	}
	return probes, notFound
}
