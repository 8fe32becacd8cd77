package regression

import (
	"math"
	"testing"
	"testing/quick"

	"cdfpoison/internal/keys"
	"cdfpoison/internal/xrand"
)

func TestFitQuadExactParabola(t *testing.T) {
	// Keys whose ranks follow an exact parabola: k_i chosen so that
	// rank = sqrt(k) → k = rank². Fit y = a·k² + b·k + c can't be exact for
	// a square root; instead test the reverse: keys at i² have CDF
	// rank(k) = sqrt(k)… use a directly constructible case: keys where a
	// quadratic passes exactly through (k_i, i+1): pick k_i = i, so ranks
	// are linear (a=0) — the fit must recover the line with ~zero loss.
	raw := make([]int64, 50)
	for i := range raw {
		raw[i] = int64(i) * 3
	}
	ks, _ := keys.New(raw)
	q, err := FitQuadCDF(ks)
	if err != nil {
		t.Fatal(err)
	}
	if q.Loss > 1e-10 {
		t.Fatalf("linear data quad loss %v", q.Loss)
	}
	if math.Abs(q.A) > 1e-9 {
		t.Fatalf("spurious curvature %v", q.A)
	}
}

func TestQuadNeverWorseThanLinear(t *testing.T) {
	// The quadratic fit subsumes the linear model, so its optimal loss can
	// never exceed the linear optimum (up to numerical noise).
	f := func(seed uint32) bool {
		rng := xrand.New(uint64(seed))
		n := 3 + rng.Intn(80)
		raw := xrand.SampleInt64s(rng, n, 2000)
		ks, err := keys.New(raw)
		if err != nil {
			return false
		}
		lin, err := FitCDF(ks)
		if err != nil {
			return false
		}
		quad, err := FitQuadCDF(ks)
		if err != nil {
			return false
		}
		return quad.Loss <= lin.Loss*(1+1e-6)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// evaluateQuadCDF is the reference MSE of an arbitrary parabola on the key
// set's CDF.
func evaluateQuadCDF(q Quad, ks keys.Set) float64 {
	var ss float64
	for i := 0; i < ks.Len(); i++ {
		d := q.Predict(ks.At(i)) - float64(i+1)
		ss += d * d
	}
	return ss / float64(ks.Len())
}

func TestFitQuadIsMinimizer(t *testing.T) {
	rng := xrand.New(70)
	for trial := 0; trial < 30; trial++ {
		raw := xrand.SampleInt64s(rng, 40, 1000)
		ks, _ := keys.New(raw)
		m, err := FitQuadCDF(ks)
		if err != nil {
			t.Fatal(err)
		}
		if l := evaluateQuadCDF(m.Quad, ks); math.Abs(l-m.Loss) > 1e-9*(1+m.Loss) {
			t.Fatalf("reference MSE %v of the fit != its Loss %v", l, m.Loss)
		}
		// Perturb in the fit's own normalized coordinates (same Origin and
		// Scale), where the coefficients are O(n).
		for _, d := range []Quad{
			{A: m.A + 1e-2, B: m.B, C: m.C},
			{A: m.A - 1e-2, B: m.B, C: m.C},
			{A: m.A, B: m.B + 1e-2, C: m.C},
			{A: m.A, B: m.B, C: m.C + 1e-2},
		} {
			d.Origin, d.Scale = m.Origin, m.Scale
			if l := evaluateQuadCDF(d, ks); l <= m.Loss {
				t.Fatalf("perturbed quad %+v does not lose to the fit: %v <= %v", d, l, m.Loss)
			}
		}
	}
}

func TestFitQuadCapturesCurvature(t *testing.T) {
	// A CDF that IS a parabola: keys at C·sqrt(i+1) give rank(k) ≈ (k/C)².
	// The quadratic must fit it almost exactly (only rounding noise), while
	// the line cannot.
	raw := make([]int64, 0, 50)
	seen := map[int64]bool{}
	for i := 0; len(raw) < 50; i++ {
		k := int64(20*math.Sqrt(float64(i+1)) + 0.5)
		if !seen[k] {
			seen[k] = true
			raw = append(raw, k)
		}
	}
	ks, _ := keys.New(raw)
	lin, _ := FitCDF(ks)
	quad, err := FitQuadCDF(ks)
	if err != nil {
		t.Fatal(err)
	}
	if quad.Loss > lin.Loss/10 {
		t.Fatalf("quad %v not much better than linear %v on parabolic CDF", quad.Loss, lin.Loss)
	}
}

func TestFitQuadDegenerate(t *testing.T) {
	if _, err := FitQuadCDF(keys.Set{}); err == nil {
		t.Fatal("empty set accepted")
	}
	one, _ := keys.New([]int64{5})
	m, err := FitQuadCDF(one)
	if err != nil || m.Loss != 0 {
		t.Fatalf("singleton: %+v, %v", m, err)
	}
	two, _ := keys.New([]int64{5, 9})
	m, err = FitQuadCDF(two)
	if err != nil || m.Loss > 1e-12 {
		t.Fatalf("pair: %+v, %v", m, err)
	}
	if m.Predict(5) < 0.9 || m.Predict(9) > 2.1 {
		t.Fatalf("pair predictions off: %v %v", m.Predict(5), m.Predict(9))
	}
}

func TestQuadTranslationStability(t *testing.T) {
	// Large-magnitude keys: the centered fit must match the same data at
	// the origin.
	raw := []int64{0, 5, 13, 14, 30, 31, 32, 55, 80, 81, 100}
	shifted := make([]int64, len(raw))
	const base = 900_000_000
	for i, k := range raw {
		shifted[i] = base + k
	}
	a, _ := keys.New(raw)
	b, _ := keys.New(shifted)
	ma, err := FitQuadCDF(a)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := FitQuadCDF(b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ma.Loss-mb.Loss) > 1e-6*(1+ma.Loss) {
		t.Fatalf("quad loss drifts at large magnitude: %v vs %v", ma.Loss, mb.Loss)
	}
}

// TestEvaluateQuadCDF: the reference scores an exact parabola at zero; a
// zero Scale reads as 1, so the literal is a raw-key parabola.
func TestEvaluateQuadCDF(t *testing.T) {
	ks, _ := keys.New([]int64{0, 10, 20})
	if l := evaluateQuadCDF(Quad{A: 0, B: 0.1, C: 1}, ks); l > 1e-12 {
		t.Fatalf("exact parabola mse %v", l)
	}
}

func TestSolve3KnownSystem(t *testing.T) {
	// x + y + z = 6; 2y + 5z = -4; 2x + 5y - z = 27 → x=5, y=3, z=-2.
	x, y, z, ok := solve3(
		1, 1, 1, 6,
		0, 2, 5, -4,
		2, 5, -1, 27,
	)
	if !ok {
		t.Fatal("solvable system reported singular")
	}
	if math.Abs(x-5) > 1e-9 || math.Abs(y-3) > 1e-9 || math.Abs(z+2) > 1e-9 {
		t.Fatalf("solution (%v,%v,%v)", x, y, z)
	}
	// Singular system.
	if _, _, _, ok := solve3(1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3); ok {
		t.Fatal("singular system reported solvable")
	}
}
