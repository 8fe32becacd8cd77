package xrand

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("streams diverge at step %d: %d != %d", i, got, want)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical outputs", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 99 {
		t.Fatalf("zero seed produced only %d distinct values out of 100", len(seen))
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// The child stream must not replay the parent stream.
	p := make([]uint64, 50)
	c := make([]uint64, 50)
	for i := range p {
		p[i] = parent.Uint64()
		c[i] = child.Uint64()
	}
	same := 0
	for i := range p {
		if p[i] == c[i] {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("split stream repeats parent stream: %d/50 matches", same)
	}
}

func TestInt63nRange(t *testing.T) {
	r := New(3)
	for _, n := range []int64{1, 2, 3, 7, 100, 1 << 40} {
		for i := 0; i < 200; i++ {
			v := r.Int63n(n)
			if v < 0 || v >= n {
				t.Fatalf("Int63n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestInt63nPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Int63n(0) did not panic")
		}
	}()
	New(1).Int63n(0)
}

func TestInt63nRoughUniformity(t *testing.T) {
	r := New(11)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Int63n(n)]++
	}
	want := float64(trials) / n
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d too far from expected %.0f", b, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	sum := 0.0
	const trials = 100000
	for i := 0; i < trials; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
		sum += v
	}
	if mean := sum / trials; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean %.4f too far from 0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(9)
	const trials = 200000
	var sum, sumsq float64
	for i := 0; i < trials; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / trials
	variance := sumsq/trials - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean %.4f too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance %.4f too far from 1", variance)
	}
}

func TestLogNormFloat64Positive(t *testing.T) {
	r := New(13)
	for i := 0; i < 10000; i++ {
		if v := r.LogNormFloat64(0, 2); v <= 0 {
			t.Fatalf("log-normal variate %v not positive", v)
		}
	}
}

func TestLogNormMedian(t *testing.T) {
	// Median of LogNormal(mu, sigma) is exp(mu).
	r := New(17)
	const trials = 100001
	vs := make([]float64, trials)
	for i := range vs {
		vs[i] = r.LogNormFloat64(1, 0.5)
	}
	sort.Float64s(vs)
	med := vs[trials/2]
	if want := math.E; math.Abs(med-want)/want > 0.05 {
		t.Errorf("log-normal median %.4f, want about %.4f", med, want)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(21)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestSampleInt64sProperties(t *testing.T) {
	r := New(31)
	f := func(kRaw uint16, mRaw uint32) bool {
		m := int64(mRaw%100000) + 1
		k := int(int64(kRaw) % (m + 1))
		s := SampleInt64s(r, k, m)
		if len(s) != k {
			return false
		}
		seen := map[int64]bool{}
		for _, v := range s {
			if v < 0 || v >= m || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleInt64sDense(t *testing.T) {
	r := New(37)
	// k == m must return the full domain.
	s := SampleInt64s(r, 1000, 1000)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	for i, v := range s {
		if v != int64(i) {
			t.Fatalf("dense full sample missing %d (got %d)", i, v)
		}
	}
}

func TestSampleInt64sSparseUnbiasedMean(t *testing.T) {
	r := New(41)
	const m = 1 << 30
	var sum float64
	const k, reps = 100, 200
	for rep := 0; rep < reps; rep++ {
		for _, v := range SampleInt64s(r, k, m) {
			sum += float64(v)
		}
	}
	mean := sum / (k * reps)
	want := float64(m) / 2
	if math.Abs(mean-want)/want > 0.05 {
		t.Errorf("sparse sample mean %.0f too far from %.0f", mean, want)
	}
}

func TestSampleInt64sPanics(t *testing.T) {
	for _, tc := range []struct{ k, m int64 }{{-1, 10}, {11, 10}, {1, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SampleInt64s(%d, %d) did not panic", tc.k, tc.m)
				}
			}()
			SampleInt64s(New(1), int(tc.k), tc.m)
		}()
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.NormFloat64()
	}
	_ = sink
}
