package dataset

import (
	"errors"
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"cdfpoison/internal/keys"
	"cdfpoison/internal/xrand"
)

func checkSet(t *testing.T, s keys.Set, n int, lo, hi int64) {
	t.Helper()
	if s.Len() != n {
		t.Fatalf("got %d keys, want %d", s.Len(), n)
	}
	if n == 0 {
		return
	}
	if s.Min() < lo || s.Max() > hi {
		t.Fatalf("keys [%d,%d] outside [%d,%d]", s.Min(), s.Max(), lo, hi)
	}
	ks := s.Keys()
	for i := 1; i < len(ks); i++ {
		if ks[i] <= ks[i-1] {
			t.Fatalf("keys not strictly increasing at %d", i)
		}
	}
}

func TestUniformBasics(t *testing.T) {
	rng := xrand.New(1)
	s, err := Uniform(rng, 1000, 10000)
	if err != nil {
		t.Fatal(err)
	}
	checkSet(t, s, 1000, 0, 9999)
	// Mean of a uniform sample over [0, m) should be near m/2.
	var sum float64
	for _, k := range s.Keys() {
		sum += float64(k)
	}
	if mean := sum / 1000; math.Abs(mean-5000) > 400 {
		t.Errorf("uniform mean %v too far from 5000", mean)
	}
}

func TestUniformFullDensity(t *testing.T) {
	rng := xrand.New(2)
	s, err := Uniform(rng, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	checkSet(t, s, 100, 0, 99)
	if !s.Saturated() {
		t.Error("full-density set must be saturated")
	}
}

func TestUniformInfeasible(t *testing.T) {
	rng := xrand.New(3)
	if _, err := Uniform(rng, 11, 10); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
	if _, err := Uniform(rng, -1, 10); err == nil {
		t.Fatal("negative n accepted")
	}
}

func TestUniformDeterministic(t *testing.T) {
	a, _ := Uniform(xrand.New(7), 500, 5000)
	b, _ := Uniform(xrand.New(7), 500, 5000)
	if !a.Equal(b) {
		t.Fatal("same seed produced different uniform sets")
	}
}

func TestNormalBasics(t *testing.T) {
	rng := xrand.New(4)
	const n, m = 1000, 10000
	s, err := Normal(rng, n, m)
	if err != nil {
		t.Fatal(err)
	}
	checkSet(t, s, n, 0, m-1)
	// The center should be denser than the edges: count keys in the middle
	// fifth vs the first fifth.
	mid, edge := 0, 0
	for _, k := range s.Keys() {
		if k >= 4000 && k < 6000 {
			mid++
		}
		if k < 2000 {
			edge++
		}
	}
	if mid <= edge {
		t.Errorf("normal shape wrong: middle %d <= edge %d", mid, edge)
	}
}

func TestNormalHighDensity(t *testing.T) {
	// 80% density (the hardest Figure 8 cell) must still produce exactly n
	// unique in-domain keys via monotone quantization.
	rng := xrand.New(5)
	s, err := Normal(rng, 800, 1000)
	if err != nil {
		t.Fatal(err)
	}
	checkSet(t, s, 800, 0, 999)
}

func TestLogNormalBasics(t *testing.T) {
	rng := xrand.New(6)
	const n, m = 5000, 1000000
	s, err := LogNormal(rng, n, m, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkSet(t, s, n, 0, m-1)
	// Skew: the median key must sit far below the domain midpoint.
	med := s.At(n / 2)
	if med > m/4 {
		t.Errorf("log-normal median key %d not skewed low (domain %d)", med, m)
	}
}

func TestLogNormalDenseCenterHasGaps(t *testing.T) {
	// The feasibility headroom must leave free slots even in the dense
	// low-end region, otherwise second-stage models there cannot be
	// poisoned at all and the Figure 6 shape collapses.
	rng := xrand.New(7)
	const n, m = 20000, 2000000
	s, err := LogNormal(rng, n, m, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkSet(t, s, n, 0, m-1)
	quarter := s.Slice(0, n/4) // the most concentrated prefix
	if quarter.Saturated() {
		t.Error("dense log-normal prefix is fully saturated; no poisoning slots remain")
	}
	free := quarter.FreeSlots()
	span := quarter.Max() - quarter.Min() + 1
	if frac := float64(free) / float64(span); frac < 0.05 {
		t.Errorf("dense prefix free-slot fraction %.3f too small", frac)
	}
}

func TestLogNormalDeterministic(t *testing.T) {
	a, _ := LogNormal(xrand.New(9), 2000, 500000, 0, 2)
	b, _ := LogNormal(xrand.New(9), 2000, 500000, 0, 2)
	if !a.Equal(b) {
		t.Fatal("same seed produced different log-normal sets")
	}
}

// TestLogNormalRejectsBadParams: a non-finite mu, or a sigma that is not
// finite and positive, is an error naming the parameter, not a saturated
// run of keys.
func TestLogNormalRejectsBadParams(t *testing.T) {
	for _, c := range []struct {
		mu, sigma float64
		name      string
	}{
		{0, math.NaN(), "sigma"},
		{0, math.Inf(1), "sigma"},
		{0, 0, "sigma"},
		{math.NaN(), 2, "mu"},
		{math.Inf(-1), 2, "mu"},
	} {
		_, err := LogNormal(xrand.New(1), 1000, 1000000, c.mu, c.sigma)
		if err == nil || !strings.Contains(err.Error(), c.name) {
			t.Errorf("LogNormal(mu=%v, sigma=%v) = %v, want an error naming %s", c.mu, c.sigma, err, c.name)
		}
	}
}

func TestQuantizeMonotoneProperties(t *testing.T) {
	f := func(seed uint32, nRaw uint8) bool {
		rng := xrand.New(uint64(seed))
		n := int(nRaw)%200 + 1
		m := int64(n) + int64(rng.Intn(3*n+1))
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = rng.Float64() * float64(m)
		}
		sort.Float64s(samples)
		out, err := quantizeMonotone(samples, m)
		if err != nil {
			return false
		}
		if len(out) != n {
			return false
		}
		for i, k := range out {
			if k < 0 || k >= m {
				return false
			}
			if i > 0 && out[i-1] >= k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizeMonotoneExactFit(t *testing.T) {
	// n == m: the only feasible assignment is 0..n-1 regardless of samples.
	samples := []float64{5, 5, 5, 5}
	out, err := quantizeMonotone(samples, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range out {
		if k != int64(i) {
			t.Fatalf("exact fit broken: %v", out)
		}
	}
	if _, err := quantizeMonotone([]float64{1, 2}, 1); !errors.Is(err, ErrInfeasible) {
		t.Fatal("overfull quantization accepted")
	}
}

func TestFeasibleScale(t *testing.T) {
	// For sorted samples 1,2,3,4 with headroom 1, the binding constraint is
	// c*1 >= 1, c*2 >= 2 … → c = 1.
	if c := feasibleScale([]float64{1, 2, 3, 4}, 1); math.Abs(c-1) > 1e-12 {
		t.Errorf("scale = %v, want 1", c)
	}
	// Concentrated prefix: samples 0.001, 0.001... need big scale.
	c := feasibleScale([]float64{0.001, 0.002, 10}, 1)
	if c < 1000 {
		t.Errorf("scale = %v, want >= 1000", c)
	}
	// All non-positive → fallback 1.
	if c := feasibleScale([]float64{0, 0}, 1); c != 1 {
		t.Errorf("degenerate scale = %v", c)
	}
}

func TestMiamiSalaries(t *testing.T) {
	rng := xrand.New(10)
	s, err := MiamiSalaries(rng)
	if err != nil {
		t.Fatal(err)
	}
	checkSet(t, s, SalaryCount, SalaryMin, SalaryMax)
	// Shape: median salary in a plausible band, right skew (mean > median).
	med := float64(s.At(SalaryCount / 2))
	var sum float64
	for _, k := range s.Keys() {
		sum += float64(k)
	}
	mean := sum / SalaryCount
	if med < 40000 || med > 90000 {
		t.Errorf("median salary %v implausible", med)
	}
	if mean <= med {
		t.Errorf("salary distribution not right-skewed: mean %v <= median %v", mean, med)
	}
}

func TestMiamiSalariesScaled(t *testing.T) {
	rng := xrand.New(11)
	s, err := MiamiSalariesN(rng, 500)
	if err != nil {
		t.Fatal(err)
	}
	checkSet(t, s, 500, SalaryMin, SalaryMax)
}

func TestOSMLatitudesScaled(t *testing.T) {
	rng := xrand.New(12)
	const n = 30000
	s, err := OSMLatitudesN(rng, n)
	if err != nil {
		t.Fatal(err)
	}
	checkSet(t, s, n, 0, OSMDomain-1)
	// Multimodality: the Europe belt (48° → (48+30)*15000 = 1,170,000) region
	// must be denser than the empty southern ocean belt (−25° → 75,000).
	europe, south := 0, 0
	for _, k := range s.Keys() {
		if k > 1100000 {
			europe++
		}
		if k < 150000 {
			south++
		}
	}
	if europe <= south {
		t.Errorf("latitude mixture shape wrong: europe %d <= south %d", europe, south)
	}
}

func TestOSMFullSize(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size OSM generation in -short mode")
	}
	rng := xrand.New(13)
	s, err := OSMLatitudes(rng)
	if err != nil {
		t.Fatal(err)
	}
	checkSet(t, s, OSMCount, 0, OSMDomain-1)
	if got := s.Density(OSMDomain); math.Abs(got-0.2525) > 0.001 {
		t.Errorf("density %v, want ~0.2525", got)
	}
}

func TestBeltWeightsSumToOne(t *testing.T) {
	sum := 0.0
	for _, b := range osmBelts {
		sum += b.weight
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("belt weights sum to %v", sum)
	}
}
