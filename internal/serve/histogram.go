package serve

// Deterministic HDR-style latency histogram. The serving plane's unit of
// "latency" is the PROBE COUNT of a lookup — the machine-independent cost
// metric every comparison in this repository uses — so p50/p99/p999 cells
// are byte-identical across machines, worker counts, and schedulers, and
// the throughput CSV can carry a pinned sha256 fingerprint (EXPERIMENTS.md).
//
// Layout. Values below smallCutoff get one bucket each (exact small-value
// percentiles — the regime where honest lookups live). Above that, each
// power-of-two octave is split into 2^histSubBits = 32 logarithmic
// sub-buckets, bounding the relative quantization error by 1/32 ≈ 3.1%.
// The bucket array is a fixed-size value field inside the struct: Record
// is a pure shift-and-index increment — no allocation, no branching on
// growth — which BenchmarkHistogramRecord pins at 0 allocs/op.
//
// Determinism. Counts are int64 adds, so Merge is commutative and
// associative: per-reader histograms folded in ANY grouping produce the
// identical final state, the property that lets the concurrent scheduler
// merge N reader-local histograms and still match the tick oracle's single
// sequential histogram bucket-for-bucket (TestHistogramMergeAssociative,
// DESIGN.md §8).

import "math/bits"

const (
	// histSubBits is the per-octave resolution: 2^histSubBits sub-buckets
	// per power of two.
	histSubBits  = 5
	histSubCount = 1 << histSubBits // 32
	// smallCutoff is the first value that shares a bucket with a neighbor:
	// values in [0, smallCutoff) are exact. 2*histSubCount keeps the
	// width-1 region aligned with the first logarithmic octave.
	smallCutoff = 2 * histSubCount // 64
	// smallExp is the octave exponent of the first logarithmic bucket:
	// values >= smallCutoff have bits.Len64(v)-1 >= smallExp.
	smallExp = histSubBits + 1 // 6
	// histBuckets covers every non-negative int64: the exact region plus
	// 32 sub-buckets for each octave 6..62.
	histBuckets = smallCutoff + (63-smallExp)*histSubCount // 1888
)

// Histogram is a fixed-bucket log-linear histogram over non-negative int64
// values (negative values are clamped to 0). The zero value is ready to use.
type Histogram struct {
	counts [histBuckets]int64
	total  int64
	sum    int64
	max    int64
}

// bucketIndex maps a value to its bucket. Exact for v < smallCutoff;
// logarithmic with 1/32 relative width above.
func bucketIndex(v int64) int {
	if v < smallCutoff {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // in [smallExp, 62]
	sub := int(v>>(uint(exp)-histSubBits)) - histSubCount
	return smallCutoff + (exp-smallExp)*histSubCount + sub
}

// bucketHigh returns the largest value a bucket covers — the value
// Percentile reports, so every reported quantile is an upper bound of the
// true one (an SLO never reads optimistic).
func bucketHigh(i int) int64 {
	if i < smallCutoff {
		return int64(i)
	}
	i -= smallCutoff
	exp := smallExp + i/histSubCount
	sub := i % histSubCount
	width := int64(1) << (uint(exp) - histSubBits)
	low := int64(histSubCount+sub) * width
	return low + width - 1
}

// Record adds one observation. Zero allocations, no branches that depend
// on prior state beyond max maintenance.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)]++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	h.total++
}

// Max returns the exact maximum recorded value (0 on an empty histogram).
func (h *Histogram) Max() int64 { return h.max }

// Mean returns the exact arithmetic mean (0 on an empty histogram).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Merge folds o into h. Merging is commutative and associative: counts,
// totals and sums are integer adds; max takes the larger.
func (h *Histogram) Merge(o *Histogram) {
	if o.total == 0 {
		return
	}
	if o.max > h.max {
		h.max = o.max
	}
	for i, c := range o.counts {
		if c != 0 {
			h.counts[i] += c
		}
	}
	h.total += o.total
	h.sum += o.sum
}

// Reset zeroes the histogram for reuse.
func (h *Histogram) Reset() { *h = Histogram{} }

// Percentile returns the value at quantile q in (0, 100]: the upper bound
// of the bucket where the cumulative count first reaches ceil(q/100 ·
// total). On an empty histogram it returns 0; q=100 returns the exact Max.
func (h *Histogram) Percentile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	rank := int64(float64(h.total) * q / 100)
	if float64(rank) < float64(h.total)*q/100 {
		rank++ // ceil
	}
	if rank < 1 {
		rank = 1
	}
	if rank >= h.total {
		return h.max
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			return bucketHigh(i)
		}
	}
	return h.max
}

// Checksum returns an FNV-1a fingerprint over the full bucket state —
// the "byte-identical distribution" witness the scheduler-equivalence
// suite compares per epoch, far stronger than matching three quantiles.
func (h *Histogram) Checksum() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	hash := uint64(offset64)
	mix := func(v int64) {
		u := uint64(v)
		for s := 0; s < 64; s += 8 {
			hash ^= (u >> uint(s)) & 0xff
			hash *= prime64
		}
	}
	mix(h.total)
	mix(h.sum)
	for i, c := range h.counts {
		if c != 0 {
			mix(int64(i))
			mix(c)
		}
	}
	return hash
}
