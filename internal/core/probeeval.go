package core

// probeEval is the scenario-side face of the sorted-batch probe kernel
// (DESIGN.md §12): one struct owns every piece of scratch the per-epoch
// probe evaluation needs — the sorted workload cache, the chunk-result
// buffer, and the bound-once chunk closure — so the steady-state epoch
// loop runs with ZERO allocations (TestProbeEvalZeroAllocs), matching the
// allocation-budget discipline of the pruned endpoint scan (DESIGN.md §3).
//
// Correctness leans on two invariants:
//
//   - the batch kernel is bit-identical to the per-key reference on the
//     same batch (index.BatchReader's contract, pinned by the differential
//     suite in internal/index and by TestMeasurePairMatchesProbeSum), and
//   - integer probe sums are order- and partition-invariant, so sorting
//     the workload once and chunking the SORTED batch folds to the exact
//     totals the historical per-key loop produced — every CSV fingerprint
//     stays byte-identical.
//
// A chunk of a sorted batch is itself sorted, so the worker fan-out and
// the kernel compose: each chunk runs the merged pass independently and
// the chunk sums fold in index order (the determinism contract, §2).

import (
	"slices"

	"cdfpoison/internal/engine"
	"cdfpoison/internal/index"
)

// probeAgg is one chunk's exact probe totals for both indexes. Integer sums
// are partition-invariant, so any chunking folds to the sequential totals.
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

// probeEval carries the eval scratch across epochs. The zero value is NOT
// ready: newProbeEval binds the chunk closure once (a per-epoch method
// value would allocate).
type probeEval struct {
	sorted []int64 // sorted workload cache (refresh)
	srcLen int     // source length the cache was built from
	buf    []probeAgg
	fn     func(lo, hi int) (probeAgg, error)
	// Per-call bindings for fn — set by measurePair, cleared after, so the
	// struct never pins an index or batch beyond the call.
	batch         []int64
	clean, victim index.PointReader
}

func newProbeEval() *probeEval {
	pe := &probeEval{}
	pe.fn = pe.evalChunk
	return pe
}

func (pe *probeEval) evalChunk(lo, hi int) (probeAgg, error) {
	var a probeAgg
	seg := pe.batch[lo:hi]
	a.clean, _ = index.ProbeSumSorted(pe.clean, seg)
	a.victim, _ = index.ProbeSumSorted(pe.victim, seg)
	return a, nil
}

// refresh (re)builds the sorted cache from an APPEND-ONLY source workload:
// equal length means identical content, so steady-state epochs (no new
// arrivals) skip the copy and sort entirely and the cache's capacity is
// reused across the epochs that do grow.
func (pe *probeEval) refresh(src []int64) {
	if pe.srcLen == len(src) {
		return
	}
	pe.sorted = append(pe.sorted[:0], src...)
	slices.Sort(pe.sorted)
	pe.srcLen = len(src)
}

// measurePair evaluates one sorted batch against both indexes, fanning
// chunks of the batch across the exec's worker pool and folding the chunk
// sums in index order.
func (pe *probeEval) measurePair(ex exec, grainFloor int, sorted []int64, clean, victim index.PointReader) (probeAgg, error) {
	pe.batch, pe.clean, pe.victim = sorted, clean, victim
	grain := engine.GrainForMin(len(sorted), ex.pool, grainFloor)
	var err error
	pe.buf, err = engine.MapChunksInto(ex.ctx, ex.pool, len(sorted), grain, pe.buf, pe.fn)
	pe.batch, pe.clean, pe.victim = nil, nil, nil
	if err != nil {
		return probeAgg{}, err
	}
	var total probeAgg
	for _, a := range pe.buf {
		total.clean += a.clean
		total.victim += a.victim
	}
	return total, nil
}
