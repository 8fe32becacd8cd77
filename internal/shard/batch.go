package shard

// Sorted-batch probe kernel (index.BatchReader, DESIGN.md §12). The router
// is a lower-bound binary search over the frozen cut keys, so its
// comparison count is a pure function of (cut count, owning shard) —
// constant across every key a shard receives. One gallop pass over the
// sorted batch splits it into per-shard sub-slices at the cut keys; each
// shard's own batch kernel evaluates its sub-slice and the router cost is
// added arithmetically, count × constant. (probes, notFound) are
// bit-identical to the per-key reference.

import "cdfpoison/internal/index"

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
