package shard

// Sorted-batch probe kernel of the snapshot (index.BatchReader, DESIGN.md
// §12), the reader the serve scenario evaluates each epoch. The router
// is a lower-bound binary search over the frozen cut keys, so its
// comparison count is a pure function of (cut count, owning shard) —
// constant across every key a shard receives. One gallop pass over the
// sorted batch splits it into per-shard sub-slices at the cut keys; each
// shard's own batch kernel evaluates its sub-slice and the router cost is
// added arithmetically, count × constant. (probes, notFound) are
// bit-identical to the per-key reference.

import "cdfpoison/internal/index"

var _ index.BatchReader = (*shardSnapshot)(nil)

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

// ProbeSumSorted evaluates a sorted (non-decreasing) query batch against
// the snapshot, bit-identical to ProbeSum on the same batch.
func (s *shardSnapshot) ProbeSumSorted(sorted []int64) (probes int64, notFound int) {
	c := 0
	for i, sub := range s.subs {
		e := len(sorted)
		if i < len(s.cuts) {
			e = index.GallopLower(sorted, s.cuts[i], c)
		}
		if e > c {
			p, nf := index.ProbeSumSorted(sub, sorted[c:e])
			probes += p + int64(e-c)*int64(routeProbes(len(s.cuts), i))
			notFound += nf
		}
		c = e
	}
	return probes, notFound
}
