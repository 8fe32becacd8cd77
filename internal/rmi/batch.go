package rmi

// Sorted-batch probe kernel for the single-model backend (index.BatchReader,
// DESIGN.md §12). Single is fanout-1 with a RootPerfect root, so routing is
// constant (model 0, zero counted probes) and the whole lookup is one
// envelope binary search over the base plus the staged-area fallback — both
// replayable arithmetically once the key's lower-bound rank is known. One
// merged gallop pass over base and staged resolves all ranks;
// (probes, notFound) are bit-identical to the per-key reference.

import (
	"math"

	"cdfpoison/internal/index"
)

var (
	_ index.BatchReader = (*Single)(nil)
	_ index.BatchReader = (*singleView)(nil)
)

// ProbeSumSorted evaluates a sorted (non-decreasing) query batch against
// the current state, bit-identical to ProbeSum on the same batch.
func (s *Single) ProbeSumSorted(sorted []int64) (probes int64, notFound int) {
	return s.v.ProbeSumSorted(sorted)
}

// ProbeSumSorted is the snapshot-side batch kernel: a forward gallop
// cursor per array (base, staged) and O(1) probe-count replay per key from
// the shared depth tables (index.ProbeDepths) — the last-mile envelope
// search's probe count is a pure function of (window size, rank in
// window), Hit when the key sits inside its window and Gap (clamped) for
// every exhausting descent.
func (v *singleView) ProbeSumSorted(sorted []int64) (probes int64, notFound int) {
	idx := v.idx
	st := &idx.models[0] // fanout-1: every key routes to model 0, zero probes
	base := idx.ks.Keys()
	nb := len(base)
	var stagedTab *index.SearchDepths
	if len(v.staged) > 0 {
		stagedTab = index.ProbeDepths(len(v.staged))
	}
	// Unclamped windows take exactly two sizes (see dynamic's kernel):
	// prefetch both tables; clamped edge windows replay the descent
	// arithmetically (index.DescentProbes) without a table.
	var pair [2]*index.SearchDepths
	s0 := 0
	if st.assigned > 0 && nb > 0 {
		s0 = int(math.Ceil(st.eHi-st.eLo)) + 1
		pair[0] = index.ProbeDepths(s0)
		pair[1] = index.ProbeDepths(s0 + 1)
	}
	posB, posS := 0, 0
	for _, k := range sorted {
		if posB < nb && base[posB] < k {
			posB++
			if posB < nb && base[posB] < k {
				posB = index.GallopLower(base, k, posB+1)
			}
		}
		foundBase := posB < nb && base[posB] == k

		found := false
		if st.assigned > 0 {
			pred := st.line.Predict(k)
			lo := int(math.Floor(pred+st.eLo)) - 1
			hi := int(math.Ceil(pred+st.eHi)) - 1
			clamped := false
			if lo < 0 {
				lo, clamped = 0, true
			}
			if hi > nb-1 {
				hi, clamped = nb-1, true
			}
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
		}

		if !found && stagedTab != nil {
			// Staged-area fallback: singleView.Lookup's plain binary search,
			// replayed from the same tables.
			posS = index.GallopLower(v.staged, k, posS)
			if posS < len(v.staged) && v.staged[posS] == k {
				probes += int64(stagedTab.Hit[posS])
				found = true
			} else {
				probes += int64(stagedTab.Gap[posS])
			}
		}
		if !found {
			notFound++
		}
	}
	return probes, notFound
}
