package core

// The scenario-side face of the sorted-batch probe kernel (DESIGN.md §12):
// each epoch evaluates its honest read batch with one index.ProbeSumSorted
// pass per side. The online scenario's workload only grows, so probeEval
// keeps it sorted across epochs and re-sorts only in epochs that grew it;
// a steady-state epoch allocates nothing (TestProbeEvalZeroAllocs),
// matching the allocation-budget discipline of the pruned endpoint scan
// (DESIGN.md §3).
//
// The batch kernel is bit-identical to the per-key reference on the same
// batch (index.BatchReader's contract, pinned by the differential suite in
// internal/index and by TestMeasurePairMatchesProbeSum), and integer probe
// sums are order-invariant, so sorting the workload folds to the exact
// totals the historical per-key loop produced — every CSV fingerprint
// stays byte-identical.

import (
	"slices"

	"cdfpoison/internal/index"
)

// probeAgg is a batch's exact probe totals for both indexes.
type probeAgg struct {
	clean, victim int64
}

// means returns the per-key mean probes over n evaluated keys (0 when n is
// 0).
func (a probeAgg) means(n int) (clean, victim float64) {
	if n == 0 {
		return 0, 0
	}
	return float64(a.clean) / float64(n), float64(a.victim) / float64(n)
}

// measurePair evaluates one sorted batch against both indexes.
func measurePair(sorted []int64, clean, victim index.PointReader) probeAgg {
	var a probeAgg
	a.clean, _ = index.ProbeSumSorted(clean, sorted)
	a.victim, _ = index.ProbeSumSorted(victim, sorted)
	return a
}

// probeEval is the sorted cache of an APPEND-ONLY workload. The zero value
// is ready.
type probeEval struct {
	sorted []int64 // sorted workload cache (refresh)
	srcLen int     // source length the cache was built from
}

// refresh (re)builds the sorted cache from the source workload: equal
// length means identical content, so steady-state epochs (no new arrivals)
// skip the copy and sort entirely and the cache's capacity is reused across
// the epochs that do grow.
func (pe *probeEval) refresh(src []int64) {
	if pe.srcLen == len(src) {
		return
	}
	pe.sorted = append(pe.sorted[:0], src...)
	slices.Sort(pe.sorted)
	pe.srcLen = len(src)
}
