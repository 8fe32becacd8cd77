package regression

import (
	"math"
	"testing"
	"testing/quick"

	"cdfpoison/internal/keys"
	"cdfpoison/internal/xrand"
)

func mustSet(t *testing.T, ks []int64) keys.Set {
	t.Helper()
	s, err := keys.New(ks)
	if err != nil {
		t.Fatalf("keys.New: %v", err)
	}
	return s
}

func randomSet(rng *xrand.RNG, minN, maxN int, domain int64) keys.Set {
	n := minN + rng.Intn(maxN-minN+1)
	raw := xrand.SampleInt64s(rng, n, domain)
	s, err := keys.New(raw)
	if err != nil {
		panic(err)
	}
	return s
}

// naiveFit solves least squares on (key, rank) pairs via accumulation in the
// straightforward uncentered formulation — an independent implementation the
// closed form must agree with (domains are kept small enough here that the
// naive math is exact).
func naiveFit(ks keys.Set) (w, b, mse float64) {
	n := float64(ks.Len())
	var sx, sy, sxx, sxy float64
	for i := 0; i < ks.Len(); i++ {
		x, y := float64(ks.At(i)), float64(i+1)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := n*sxx - sx*sx
	w = (n*sxy - sx*sy) / den
	b = (sy - w*sx) / n
	var ss float64
	for i := 0; i < ks.Len(); i++ {
		d := w*float64(ks.At(i)) + b - float64(i+1)
		ss += d * d
	}
	return w, b, ss / n
}

func TestFitCDFAgainstNaive(t *testing.T) {
	rng := xrand.New(100)
	for trial := 0; trial < 200; trial++ {
		ks := randomSet(rng, 2, 60, 1000)
		m, err := FitCDF(ks)
		if err != nil {
			t.Fatal(err)
		}
		w, b, mse := naiveFit(ks)
		if math.Abs(m.W-w) > 1e-8*(1+math.Abs(w)) {
			t.Fatalf("W=%v naive=%v set=%v", m.W, w, ks)
		}
		if math.Abs(m.B-b) > 1e-6*(1+math.Abs(b)) {
			t.Fatalf("B=%v naive=%v set=%v", m.B, b, ks)
		}
		if math.Abs(m.Loss-mse) > 1e-8*(1+mse) {
			t.Fatalf("Loss=%v naive=%v set=%v", m.Loss, mse, ks)
		}
	}
}

func TestFitCDFIsMinimizer(t *testing.T) {
	// Perturbing the fitted parameters must never reduce the loss.
	rng := xrand.New(7)
	for trial := 0; trial < 50; trial++ {
		ks := randomSet(rng, 3, 40, 500)
		m, err := FitCDF(ks)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []struct{ dw, db float64 }{
			{1e-3, 0}, {-1e-3, 0}, {0, 1e-2}, {0, -1e-2}, {1e-3, -1e-2},
		} {
			perturbed := Line{W: m.W + d.dw, B: m.B + d.db}
			l, err := EvaluateCDF(perturbed, ks)
			if err != nil {
				t.Fatal(err)
			}
			if l < m.Loss-1e-9 {
				t.Fatalf("perturbation (%v,%v) reduced loss %v -> %v on %v", d.dw, d.db, m.Loss, l, ks)
			}
		}
	}
}

func TestFitCDFTranslationInvariance(t *testing.T) {
	f := func(seed uint32, shiftRaw uint16) bool {
		rng := xrand.New(uint64(seed))
		ks := randomSet(rng, 2, 50, 2000)
		shift := int64(shiftRaw)
		shifted := make([]int64, ks.Len())
		for i := range shifted {
			shifted[i] = ks.At(i) + shift
		}
		ks2, err := keys.New(shifted)
		if err != nil {
			return false
		}
		m1, err1 := FitCDF(ks)
		m2, err2 := FitCDF(ks2)
		if err1 != nil || err2 != nil {
			return false
		}
		// Slope and loss are invariant; intercept shifts by −W·shift.
		return math.Abs(m1.W-m2.W) < 1e-9*(1+math.Abs(m1.W)) &&
			math.Abs(m1.Loss-m2.Loss) < 1e-7*(1+m1.Loss) &&
			math.Abs((m1.B-m1.W*float64(0))-(m2.B+m2.W*float64(shift))) < 1e-5*(1+math.Abs(m1.B))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFitCDFLargeMagnitudeStability(t *testing.T) {
	// Second-stage RMI models: keys near 1e9 in a narrow window. The naive
	// uncentered formulation loses most significant digits here; the centered
	// one must stay accurate. We verify against the same data shifted to the
	// origin, where naive math is exact.
	base := int64(999_000_000)
	raw := []int64{0, 13, 27, 55, 80, 81, 90, 121, 200, 301, 377, 500}
	var shifted []int64
	for _, k := range raw {
		shifted = append(shifted, base+k)
	}
	near, _ := keys.New(shifted)
	orig, _ := keys.New(raw)
	mNear, err := FitCDF(near)
	if err != nil {
		t.Fatal(err)
	}
	mOrig, err := FitCDF(orig)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mNear.Loss-mOrig.Loss) > 1e-6*(1+mOrig.Loss) {
		t.Fatalf("loss drifts at large magnitude: %v vs %v", mNear.Loss, mOrig.Loss)
	}
	if math.Abs(mNear.W-mOrig.W) > 1e-9 {
		t.Fatalf("slope drifts at large magnitude: %v vs %v", mNear.W, mOrig.W)
	}
}

func TestFitCDFDegenerate(t *testing.T) {
	if _, err := FitCDF(keys.Set{}); err == nil {
		t.Fatal("empty set must error")
	}
	m, err := FitCDF(mustSet(t, []int64{42}))
	if err != nil || m.Loss != 0 || m.Predict(42) != 1 {
		t.Fatalf("singleton fit: %+v, %v", m, err)
	}
}

func TestFitCDFPerfectLine(t *testing.T) {
	// Consecutive integers form a perfectly linear CDF: loss must be ~0 and
	// the slope must be 1.
	ks := mustSet(t, []int64{100, 101, 102, 103, 104, 105})
	m, err := FitCDF(ks)
	if err != nil {
		t.Fatal(err)
	}
	if m.Loss > 1e-12 {
		t.Errorf("perfect line loss = %v", m.Loss)
	}
	if math.Abs(m.W-1) > 1e-12 {
		t.Errorf("perfect line slope = %v", m.W)
	}
	// Evenly spaced keys are also exactly linear with slope 1/spacing.
	ks2 := mustSet(t, []int64{0, 10, 20, 30, 40})
	m2, _ := FitCDF(ks2)
	if m2.Loss > 1e-12 || math.Abs(m2.W-0.1) > 1e-12 {
		t.Errorf("even spacing: %+v", m2)
	}
}

func TestEvaluateCDF(t *testing.T) {
	ks := mustSet(t, []int64{0, 10})
	// Line predicting exactly ranks 1,2.
	l := Line{W: 0.1, B: 1}
	mse, err := EvaluateCDF(l, ks)
	if err != nil || mse > 1e-18 {
		t.Fatalf("exact line mse = %v, err %v", mse, err)
	}
	// Constant line at 1.5 has residuals ±0.5 → mse 0.25.
	mse, _ = EvaluateCDF(Line{W: 0, B: 1.5}, ks)
	if math.Abs(mse-0.25) > 1e-12 {
		t.Fatalf("constant line mse = %v, want 0.25", mse)
	}
	if _, err := EvaluateCDF(l, keys.Set{}); err == nil {
		t.Fatal("empty set must error")
	}
}

func TestFitXY(t *testing.T) {
	// Exact line.
	x := []float64{0, 1, 2, 3}
	y := []float64{5, 7, 9, 11}
	l, err := FitXY(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l.W-2) > 1e-12 || math.Abs(l.B-5) > 1e-12 {
		t.Fatalf("FitXY = %+v, want w=2 b=5", l)
	}
	// Degenerate: constant x.
	l, err = FitXY([]float64{3, 3}, []float64{1, 5})
	if err != nil || l.W != 0 || l.B != 3 {
		t.Fatalf("constant-x fit = %+v, %v", l, err)
	}
	if _, err := FitXY([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch must error")
	}
	if _, err := FitXY(nil, nil); err == nil {
		t.Fatal("empty must error")
	}
}

func TestPrefixCleanLossMatchesFit(t *testing.T) {
	rng := xrand.New(200)
	for trial := 0; trial < 100; trial++ {
		ks := randomSet(rng, 2, 80, 5000)
		p, err := NewPrefix(ks)
		if err != nil {
			t.Fatal(err)
		}
		m, _ := FitCDF(ks)
		if math.Abs(p.CleanLoss()-m.Loss) > 1e-9*(1+m.Loss) {
			t.Fatalf("CleanLoss %v != Fit loss %v", p.CleanLoss(), m.Loss)
		}
	}
}

func TestPoisonedLossMatchesRefit(t *testing.T) {
	// The O(1) candidate evaluation must agree with a from-scratch refit on
	// the augmented set — the central correctness property of the attack.
	rng := xrand.New(300)
	for trial := 0; trial < 100; trial++ {
		ks := randomSet(rng, 2, 50, 400)
		p, err := NewPrefix(ks)
		if err != nil {
			t.Fatal(err)
		}
		for kp := ks.Min() + 1; kp < ks.Max(); kp++ {
			rank, free := ks.InsertedRank(kp)
			if !free {
				continue
			}
			fast := p.PoisonedLoss(kp, rank-1)
			aug, ok := ks.Insert(kp)
			if !ok {
				t.Fatal("insert failed")
			}
			m, _ := FitCDF(aug)
			if math.Abs(fast-m.Loss) > 1e-8*(1+m.Loss) {
				t.Fatalf("PoisonedLoss(%d)=%v but refit=%v on %v", kp, fast, m.Loss, ks)
			}
		}
	}
}

func TestPoisonedLossAuto(t *testing.T) {
	ks := mustSet(t, []int64{2, 6, 7, 12})
	p, err := NewPrefix(ks)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.PoisonedLossAuto(6); ok {
		t.Fatal("occupied key accepted")
	}
	l, ok := p.PoisonedLossAuto(9)
	if !ok {
		t.Fatal("free key rejected")
	}
	if direct := p.PoisonedLoss(9, 3); l != direct {
		t.Fatalf("auto %v != direct %v", l, direct)
	}
}

func TestNewPrefixTooFew(t *testing.T) {
	if _, err := NewPrefix(mustSet(t, []int64{9})); err == nil {
		t.Fatal("NewPrefix on singleton must error")
	}
}

func TestModelString(t *testing.T) {
	m, _ := FitCDF(mustSet(t, []int64{1, 5, 9}))
	if m.String() == "" {
		t.Error("String empty")
	}
}
