package serve

// White-box unit tests of the deterministic latency histogram: bucket
// geometry, exact percentiles on known synthetic distributions, the
// commutative/associative merge the scheduler-equivalence argument leans
// on, and the zero-allocation record path.

import (
	"math"
	"testing"

	"cdfpoison/internal/xrand"
)

// TestHistogramBucketBoundaries pins the bucket geometry: width-1 buckets
// below smallCutoff, 32 log sub-buckets per octave above, monotone
// indexing, and the ≤1/32 relative-error bound of the reported upper edge.
func TestHistogramBucketBoundaries(t *testing.T) {
	// Exact region: value == bucket == reported edge.
	for v := int64(0); v < smallCutoff; v++ {
		if got := bucketIndex(v); got != int(v) {
			t.Fatalf("bucketIndex(%d) = %d, want %d", v, got, v)
		}
		if got := bucketHigh(int(v)); got != v {
			t.Fatalf("bucketHigh(%d) = %d, want %d", v, got, v)
		}
	}
	// Negative values clamp to bucket 0.
	if bucketIndex(-5) != 0 {
		t.Fatal("negative value did not clamp to bucket 0")
	}
	// Hand-computed boundary: 499 lives in [496, 503].
	if got := bucketHigh(bucketIndex(499)); got != 503 {
		t.Fatalf("bucketHigh(bucketIndex(499)) = %d, want 503", got)
	}
	// First logarithmic bucket starts exactly at smallCutoff.
	if got := bucketIndex(smallCutoff); got != smallCutoff {
		t.Fatalf("bucketIndex(%d) = %d, want %d", int64(smallCutoff), got, smallCutoff)
	}
	// Monotonicity, coverage, and the relative-error bound across octaves.
	prev := -1
	for _, v := range []int64{0, 1, 31, 63, 64, 65, 95, 127, 128, 1000, 4097, 1 << 20, 1<<40 + 12345, math.MaxInt64} {
		i := bucketIndex(v)
		if i < prev {
			t.Fatalf("bucketIndex not monotone at %d: %d < %d", v, i, prev)
		}
		prev = i
		if i < 0 || i >= histBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range [0, %d)", v, i, histBuckets)
		}
		hi := bucketHigh(i)
		if hi < v {
			t.Fatalf("bucketHigh(%d)=%d below the value %d it must bound", i, hi, v)
		}
		if v >= smallCutoff && float64(hi-v) > float64(v)/float64(histSubCount) {
			t.Fatalf("value %d reported as %d: relative error above 1/%d", v, hi, histSubCount)
		}
	}
	// Every bucket index round-trips through its upper edge.
	for i := 0; i < histBuckets; i++ {
		if got := bucketIndex(bucketHigh(i)); got != i {
			t.Fatalf("bucket %d upper edge %d maps back to bucket %d", i, bucketHigh(i), got)
		}
	}
}

// TestHistogramPercentilesExact: p50/p99/p999 on known synthetic
// distributions, exact in the width-1 region and pinned to the documented
// deterministic bucket edge above it.
func TestHistogramPercentilesExact(t *testing.T) {
	var h Histogram
	if h.Percentile(50) != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	// 1..50 once each: ranks are exact (all values < smallCutoff).
	for v := int64(1); v <= 50; v++ {
		h.Record(v)
	}
	for _, tc := range []struct {
		q    float64
		want int64
	}{{50, 25}, {99, 50}, {99.9, 50}, {100, 50}, {2, 1}, {1, 1}} {
		if got := h.Percentile(tc.q); got != tc.want {
			t.Fatalf("P%v over 1..50 = %d, want %d", tc.q, got, tc.want)
		}
	}
	if h.total != 50 || h.sum != 50*51/2 || h.Max() != 50 {
		t.Fatalf("summary stats wrong: count=%d sum=%d max=%d", h.total, h.sum, h.Max())
	}

	// Uniform 0..999: the p50 rank (500) lands in bucket [496, 503] (width
	// 8 in the [256, 512) octave); the p999 rank (999) in [992, 1007]
	// (width 16 in the [512, 1024) octave) — the quantized-but-
	// deterministic regime, reported at the bucket's upper edge.
	h.Reset()
	for v := int64(0); v < 1000; v++ {
		h.Record(v)
	}
	if got := h.Percentile(50); got != 503 {
		t.Fatalf("P50 over 0..999 = %d, want 503", got)
	}
	if got := h.Percentile(99.9); got != 1007 {
		t.Fatalf("P99.9 over 0..999 = %d, want 1007", got)
	}
	if got := h.Percentile(100); got != 999 {
		t.Fatalf("P100 over 0..999 = %d, want exact max 999", got)
	}

	// A two-point SLO-style distribution: 999 fast lookups, 1 catastrophic.
	h.Reset()
	for i := 0; i < 999; i++ {
		h.Record(10)
	}
	h.Record(1 << 30)
	if got := h.Percentile(99); got != 10 {
		t.Fatalf("P99 of 999×10 + 1 outlier = %d, want 10", got)
	}
	if got := h.Percentile(99.9); got != 10 {
		t.Fatalf("P99.9 rank 1000... = %d", got)
	}
	if got := h.Percentile(99.95); got != h.Max() {
		t.Fatalf("P99.95 must surface the outlier: got %d, want %d", got, h.Max())
	}
}

// TestHistogramMergeAssociative: merge(a,b) == merge(b,a) and
// merge(merge(a,b),c) == merge(a,merge(b,c)) — full state, checksum
// included. Histograms are value types (fixed array), so plain copies
// clone them.
func TestHistogramMergeAssociative(t *testing.T) {
	rng := xrand.New(5)
	mk := func(n int, shift uint) *Histogram {
		h := &Histogram{}
		for i := 0; i < n; i++ {
			h.Record(rng.Int63n(1 << shift))
		}
		return h
	}
	a, b, c := mk(500, 8), mk(300, 20), mk(700, 4)

	equal := func(x, y *Histogram) bool {
		return x.counts == y.counts &&
			x.total == y.total && x.sum == y.sum && x.Max() == y.Max() &&
			x.Checksum() == y.Checksum()
	}

	ab, ba := *a, *b
	ab.Merge(b)
	ba.Merge(a)
	if !equal(&ab, &ba) {
		t.Fatal("merge is not commutative")
	}

	left := ab // (a+b)
	left.Merge(c)
	bc := *b
	bc.Merge(c)
	right := *a
	right.Merge(&bc)
	if !equal(&left, &right) {
		t.Fatal("merge is not associative")
	}

	// Merging an empty histogram is the identity.
	id := *a
	id.Merge(&Histogram{})
	if !equal(&id, a) {
		t.Fatal("merging an empty histogram changed state")
	}
}

// TestHistogramRecordZeroAlloc pins the record path's allocation budget at
// zero — the property that keeps reader goroutines allocation-free per
// lookup.
func TestHistogramRecordZeroAlloc(t *testing.T) {
	h := &Histogram{}
	v := int64(1)
	if allocs := testing.AllocsPerRun(1000, func() {
		h.Record(v)
		v = (v * 31) & 0xfffff
	}); allocs != 0 {
		t.Fatalf("Record allocates %v allocs/op, budget is 0", allocs)
	}
}

// BenchmarkHistogramRecord is the allocs/op budget pin in benchmark form
// (CI runs it with -benchtime 1x as a smoke check).
func BenchmarkHistogramRecord(b *testing.B) {
	h := &Histogram{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i & 0xffff))
	}
}
