package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"cdfpoison/internal/xrand"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestQuantileKnownValues(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {0.75, 3.25},
	}
	for _, c := range cases {
		if got := quantileSorted(xs, c.q); !almost(got, c.want, 1e-12) {
			t.Errorf("quantileSorted(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileSingleton(t *testing.T) {
	if got := quantileSorted([]float64{7}, 0.99); got != 7 {
		t.Errorf("singleton quantile = %v", got)
	}
}

func TestQuantileMonotone(t *testing.T) {
	rng := xrand.New(2)
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = rng.Float64() * 100
	}
	sort.Float64s(xs)
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.05 {
		v := quantileSorted(xs, q)
		if v < prev-1e-12 {
			t.Fatalf("quantile not monotone at q=%v", q)
		}
		prev = v
	}
}

func TestBoxplotKnown(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 100} // 100 is an outlier
	b := NewBoxplot(xs)
	if b.N != 9 || b.Min != 1 || b.Max != 100 {
		t.Fatalf("basic fields wrong: %+v", b)
	}
	if b.Median != 5 {
		t.Errorf("median = %v, want 5", b.Median)
	}
	if len(b.Outliers) != 1 || b.Outliers[0] != 100 {
		t.Errorf("outliers = %v, want [100]", b.Outliers)
	}
	if b.WhiskerHi != 8 {
		t.Errorf("whisker high = %v, want 8", b.WhiskerHi)
	}
	if b.WhiskerLo != 1 {
		t.Errorf("whisker low = %v, want 1", b.WhiskerLo)
	}
	if b.String() == "" {
		t.Error("String empty")
	}
	defer func() {
		if recover() == nil {
			t.Error("NewBoxplot(nil) did not panic")
		}
	}()
	NewBoxplot(nil)
}

func TestBoxplotOrderingInvariant(t *testing.T) {
	// Note: WhiskerLo <= Q1 is NOT an invariant — quantiles interpolate, so
	// a dataset like {0, 100, 101, 102} has Q1 = 75 while every observation
	// below the box is an outlier and the low whisker clamps to 100. The
	// true invariants are the quartile ordering, whisker ordering, and that
	// whiskers are actual observations within [Min, Max].
	f := func(seed uint32) bool {
		r := xrand.New(uint64(seed))
		n := 1 + r.Intn(200)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64() * 10
		}
		b := NewBoxplot(xs)
		return b.Min <= b.Q1 && b.Q1 <= b.Median && b.Median <= b.Q3 && b.Q3 <= b.Max &&
			b.Min <= b.WhiskerLo && b.WhiskerLo <= b.WhiskerHi && b.WhiskerHi <= b.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// The documented counterexample.
	b := NewBoxplot([]float64{0, 100, 101, 102})
	if b.WhiskerLo <= b.Q1 {
		t.Fatalf("expected WhiskerLo (%v) above interpolated Q1 (%v) on the counterexample", b.WhiskerLo, b.Q1)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{2, 4, 6}); got != 4 {
		t.Errorf("Mean = %v", got)
	}
}
