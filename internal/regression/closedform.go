package regression

// The closed-form gap oracle: PoisonedLoss(kp, pos) as an explicit rational
// function of the centered candidate x = kp − origin, with all coefficients
// derived once per step from the exact integer moments. This is the algebra
// the pruned scan in internal/core builds its per-block upper bounds from
// (see DESIGN.md §11, "Closed-form oracle & pruned scan").
//
// Derivation. Write n for the clean count, n1 = n+1, S1 = Σx, S2 = Σx²,
// SR = Σx·r over the clean centered keys, and T(g) = Suffix(g+1) for the
// exact rank-shift term of a candidate landing in gap g (between the keys
// at positions g and g+1, insertion rank t = g+2). With mr = (n+2)/2 and
// varR = n(n+2)/12, the poisoned loss of candidate x in gap g is
//
//	loss(x) = varR − W(x)²/(4·B(x))
//	W(x)    = 2·n1·cov  = v(g) + u(g)·x
//	B(x)    = n1²·varX  = n1·(S2+x²) − (S1+x)² = n·x² − 2·S1·x + b0
//
// where u(g) = 2g+2−n, v(g) = 2(SR+T(g)) − (n+2)·S1, b0 = n1·S2 − S1².
// B is one gap-independent convex quadratic. W is where the structure
// lives: a candidate's gap is determined by its key, so over the whole
// domain W is a single function of x — piecewise linear with slope u(g)
// strictly increasing in g, hence CONVEX. Per gap (u, v fixed) the
// numerator varR·4B − W² is a concave-free quadratic with positive leading
// coefficient n²(n+2) − 3u² > 0, which is Theorem 2's per-gap convexity
// rederived: the per-gap maximizer is a gap endpoint.
//
// Block bound. Over a block of gaps, W's convexity gives exact endpoint
// values, an exact minimum position (the slope sign change), and tangent /
// chord envelopes whose slack is only the slope variation across the block
// (~blockGaps/n relative — negligible). The load-bearing choice is to then
// minimize the RATIO T(x)²/(4B(x)) — T the linear envelope of W — in
// closed form (one critical point: linear-over-quadratic derivative), so
// numerator and denominator stay coupled through x. Decoupled interval
// bounds (min W² over max B, or per-coefficient envelopes of the cleared
// numerator) carry slack proportional to varR·ΔB/B, orders of magnitude
// above the loss variation between blocks, and prune nothing; the coupled
// ratio minimum leaves slack proportional to the envelope gap alone.

import "math"

// ClosedForm is the per-step snapshot of the closed-form oracle: the float64
// images of the exact integer moments, hoisted once so every candidate
// evaluation (Loss, and through it Prefix.PoisonedLoss) runs the same float
// operation sequence, plus the cleared coefficients the block bound needs.
// It is valid until the next Insert on the parent Prefix (rebuild with
// Prefix.ClosedForm afterwards).
type ClosedForm struct {
	origin int64
	n      int     // clean key count
	pre    *Prefix // read-only: Bound's suffix sums
	s1     float64 // float64(Σx), converted once per step
	s2     float64 // float64(Σx²)
	sr     float64 // float64(Σx·r)
	n1     float64 // float64(n+1)
	mr     float64 // rankMean(n+1)
	varR   float64 // rankVar(n+1)
	fn     float64 // float64(n)
	np2    float64 // float64(n+2)
	b0     float64 // n1·S2 − S1², the gap-independent term of B(x)
	margin float64 // absolute slack added to every block bound (see Bound)
}

// ClosedForm derives the per-step oracle state from the prefix moments. O(1).
func (p *Prefix) ClosedForm() ClosedForm {
	c := ClosedForm{
		origin: p.origin,
		n:      p.n,
		pre:    p,
		s1:     float64(p.sumX),
		s2:     p.sumXX.float(),
		sr:     p.sumXR.float(),
		n1:     float64(p.n + 1),
		mr:     rankMean(p.n + 1),
		varR:   rankVar(p.n + 1),
		fn:     float64(p.n),
		np2:    float64(p.n + 2),
	}
	c.b0 = c.n1*c.s2 - c.s1*c.s1
	// Bound must dominate the float64-evaluated PoisonedLoss of every
	// candidate it covers, not just the real-valued supremum. Both sides
	// evaluate the same rational function through short, well-conditioned
	// chains wherever W is large enough for the block to be prunable, so
	// their divergence stays within a few ulps of varR; 1e-10·varR leaves
	// ≥10²× headroom (pinned empirically by TestClosedFormBoundDominates
	// and the pruned-vs-full differential tests in internal/core).
	c.margin = 1e-10 * c.varR
	return c
}

// Loss returns the optimal-regression MSE of K ∪ {kp}, where kp is a key
// NOT in the set, pos is the number of keys strictly smaller than kp, and
// suf is Prefix.Suffix(pos), the exact rank-shift term. Scans carry suf
// from gap to gap instead of looking it up; the float operation sequence
// is the historical Prefix.PoisonedLoss one, pinned bit-for-bit by
// TestClosedFormLossMatchesPoisonedLoss and FuzzClosedFormLoss.
func (c *ClosedForm) Loss(kp int64, pos int, suf int64) float64 {
	xp := float64(kp - c.origin)
	t := float64(pos + 1)

	sumX := c.s1 + xp
	sumXX := c.s2 + xp*xp
	sumXR := c.sr + float64(suf) + xp*t

	mx := sumX / c.n1
	mxx := sumXX / c.n1
	mxr := sumXR / c.n1

	varX := mxx - mx*mx
	cov := mxr - mx*c.mr
	if varX <= 0 {
		return c.varR
	}
	loss := c.varR - cov*cov/varX
	if loss < 0 {
		return 0
	}
	return loss
}

// w evaluates W(x) for a candidate x in gap g: v(g) + u(g)·x.
func (c *ClosedForm) w(g int, x float64) float64 {
	v := 2*(c.sr+float64(c.pre.Suffix(g+1))) - c.np2*c.s1
	return v + float64(2*g+2-c.n)*x
}

// bq evaluates the denominator quadratic B(x) = n·x² − 2·S1·x + b0.
func (c *ClosedForm) bq(x float64) float64 {
	return (c.fn*x-2*c.s1)*x + c.b0
}

// Bound returns an upper bound on Loss(kp, g+1, ·) over every candidate in the
// gap range [gapLo, gapHi) with key kp ∈ [kLo, kHi] (kLo above the set
// minimum; gap g lies between the keys at positions g and g+1). The bound
// dominates the float64-computed Loss of every covered candidate; it
// returns +Inf — "don't prune" — when the block straddles W's slope sign
// change (at most one such block per tree level, and it contains the
// covariance trough where losses approach varR anyway) or when the
// denominator envelope is too degenerate to trust (which is exactly when
// PoisonedLoss's varX ≤ 0 guard could fire).
func (c *ClosedForm) Bound(gapLo, gapHi int, kLo, kHi int64) float64 {
	x1 := float64(kLo - c.origin)
	x2 := float64(kHi - c.origin)

	// Degenerate-variance floor: below ~1e-12 relative variance the
	// individually-computed varX = mxx − mx² can round to ≤ 0, making
	// PoisonedLoss return varR — which no finite ratio bound covers. Real
	// datasets sit ≥ 1e6× above this floor (the set minimum is itself a
	// key, so varX ≥ mx²/n1).
	bv := c.s1 / c.fn
	if bv < x1 {
		bv = x1
	} else if bv > x2 {
		bv = x2
	}
	if c.bq(bv) <= 1e-12*c.n1*(c.s2+x2*x2) {
		return math.Inf(1)
	}

	uLo := float64(2*gapLo + 2 - c.n)     // slope of W in the first gap
	uHi := float64(2*(gapHi-1) + 2 - c.n) // slope in the last gap
	wL := c.w(gapLo, x1)                  // exact W at the leftmost candidate
	wR := c.w(gapHi-1, x2)                // exact W at the rightmost candidate

	// Linear envelope T of |W| over [x1, x2], pointwise below |W|:
	//   - W uniformly increasing or decreasing (slopes one-signed): the
	//     tangent at the end where W is smallest (convexity ⇒ T ≤ W).
	//   - slope sign change inside: the block holds W's global minimum;
	//     concede it rather than model the kink.
	// If W changes sign across the block, min W² is 0 and the bound
	// degenerates to varR + margin, which never prunes — correct, since
	// cov ≈ 0 candidates reach losses ≈ varR.
	var a, s float64 // T(x) = a + s·x
	switch {
	case uLo >= 0: // W nondecreasing: minimum at x1
		if wL <= 0 && 0 <= wR {
			return c.varR + c.margin
		}
		if wL > 0 {
			a, s = wL-uLo*x1, uLo // tangent at x1, positive throughout
		} else {
			// W < 0 everywhere: |W| is decreasing; the chord lies above W,
			// hence |chord| lies below |W|.
			s = (wR - wL) / (x2 - x1)
			a = wL - s*x1
		}
	case uHi <= 0: // W nonincreasing: minimum at x2
		if wR <= 0 && 0 <= wL {
			return c.varR + c.margin
		}
		if wR > 0 {
			a, s = wR-uHi*x2, uHi // tangent at x2
		} else {
			s = (wR - wL) / (x2 - x1)
			a = wL - s*x1
		}
	default:
		return math.Inf(1)
	}

	// Minimize f(x) = T(x)²/(4·B(x)) over [x1, x2] exactly: f has a single
	// critical point where 2·T'·B = T·B', a linear equation in x. Evaluate
	// the endpoints plus the interior critical point (when it exists) and
	// keep the smallest — whether the critical point is f's minimum or
	// maximum, the interval minimum is among these three.
	fmin := math.Min(c.ratio(a, s, x1), c.ratio(a, s, x2))
	den := s*(-2*c.s1) - 2*a*c.fn // s·β1 − 2·a·β2 for B = β2x² + β1x + β0
	if den != 0 {
		xc := (a*(-2*c.s1) - 2*s*c.b0) / den
		if x1 < xc && xc < x2 {
			fmin = math.Min(fmin, c.ratio(a, s, xc))
		}
	}
	bound := c.varR - fmin
	if bound < 0 {
		bound = 0 // losses clamp at 0; so does the bound
	}
	return bound + 1e-9*bound + c.margin
}

// ratio evaluates T(x)²/(4·B(x)) for T(x) = a + s·x.
func (c *ClosedForm) ratio(a, s, x float64) float64 {
	t := a + s*x
	return t * t / (4 * c.bq(x))
}
