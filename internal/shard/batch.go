package shard

// Sorted-batch probe kernel (index.BatchReader, DESIGN.md §12). The router
// is a lower-bound binary search over the frozen cut keys, so its
// comparison count is a pure function of (cut count, owning shard) —
// constant across every key a shard receives. One gallop pass over the
// sorted batch splits it into per-shard sub-slices at the cut keys; each
// shard's own batch kernel evaluates its sub-slice and the router cost is
// added arithmetically, count × constant. (probes, notFound) are
// bit-identical to the per-key reference.

import (
	"context"

	"cdfpoison/internal/engine"
	"cdfpoison/internal/index"
)

var (
	_ index.BatchReader = (*Index)(nil)
	_ index.BatchReader = (*shardSnapshot)(nil)
)

// routeProbes replays route's comparison count for a key owned by shard s
// under m cut keys: the loop's outcome at mid is (mid < s → go right), so
// the count depends only on (m, s).
func routeProbes(m, s int) int {
	p := 0
	lo, hi := 0, m
	for lo < hi {
		mid := (lo + hi) / 2
		p++
		if mid < s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return p
}

// splitSorted returns the per-shard partition boundaries of the sorted
// batch: sorted[bounds[i]:bounds[i+1]] routes to shard i. A key equal to
// cuts[i] belongs to shard i+1, exactly as route resolves it.
func splitSorted(cuts []int64, sorted []int64) []int {
	bounds := make([]int, len(cuts)+2)
	c := 0
	for i, cut := range cuts {
		c = index.GallopLower(sorted, cut, c)
		bounds[i+1] = c
	}
	bounds[len(cuts)+1] = len(sorted)
	return bounds
}

// probeSumSortedShards is the shared sequential kernel: one router pass
// (the gallop split), then each shard's sub-slice through eval with the
// constant router cost added per key.
func probeSumSortedShards(cuts []int64, nShards int, sorted []int64,
	eval func(i int, seg []int64) (int64, int)) (probes int64, notFound int) {
	c := 0
	for i := 0; i < nShards; i++ {
		e := len(sorted)
		if i < len(cuts) {
			e = index.GallopLower(sorted, cuts[i], c)
		}
		if e > c {
			p, nf := eval(i, sorted[c:e])
			probes += p + int64(e-c)*int64(routeProbes(len(cuts), i))
			notFound += nf
		}
		c = e
	}
	return probes, notFound
}

// ProbeSumSorted evaluates a sorted (non-decreasing) query batch against
// the current state, bit-identical to ProbeSum on the same batch.
func (x *Index) ProbeSumSorted(sorted []int64) (probes int64, notFound int) {
	return probeSumSortedShards(x.cuts, len(x.shards), sorted, func(i int, seg []int64) (int64, int) {
		return x.shards[i].ProbeSumSorted(seg)
	})
}

// ProbeSumSorted is the snapshot-side batch kernel: same router split, each
// sub-slice dispatched to the shard snapshot's own kernel.
func (s *shardSnapshot) ProbeSumSorted(sorted []int64) (probes int64, notFound int) {
	return probeSumSortedShards(s.cuts, len(s.subs), sorted, func(i int, seg []int64) (int64, int) {
		return index.ProbeSumSorted(s.subs[i], seg)
	})
}

// ProbeSumSortedParallel is ProbeSumSorted with the per-shard sub-slices
// fanned out across the pool, one task per shard. Shard evaluations are
// pure reads and the integer partials fold in shard order, so any worker
// count is byte-identical to the sequential kernel — the §2 determinism
// contract.
func (x *Index) ProbeSumSortedParallel(ctx context.Context, pool *engine.Pool, sorted []int64) (probes int64, notFound int, err error) {
	type agg struct {
		probes   int64
		notFound int
	}
	bounds := splitSorted(x.cuts, sorted)
	chunks, err := engine.Map(ctx, pool, len(x.shards), func(i int) (agg, error) {
		var a agg
		seg := sorted[bounds[i]:bounds[i+1]]
		if len(seg) > 0 {
			a.probes, a.notFound = x.shards[i].ProbeSumSorted(seg)
			a.probes += int64(len(seg)) * int64(routeProbes(len(x.cuts), i))
		}
		return a, nil
	})
	if err != nil {
		return 0, 0, err
	}
	for _, a := range chunks {
		probes += a.probes
		notFound += a.notFound
	}
	return probes, notFound, nil
}
