package core

import (
	"cdfpoison/internal/engine"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/regression"
)

// LossPoint is one evaluation of the loss sequence L(kp): the MSE of the
// optimal regression re-trained on K ∪ {kp}.
type LossPoint struct {
	Key  int64
	Loss float64
}

// LossSequence evaluates L(kp) for every unoccupied interior key kp, in
// increasing key order — the sequence plotted in Figure 3. Cost is
// O(n + f) where f is the number of free interior slots (the paper's
// O(m + n) once the prefix trick replaces from-scratch refits).
//
// The second return value is the clean (pre-poisoning) loss, drawn as the
// horizontal reference line in the figure.
func LossSequence(ks keys.Set, opts ...Option) ([]LossPoint, float64, error) {
	if ks.Len() < 2 {
		return nil, 0, ErrTooFew
	}
	pre, err := regression.NewPrefix(ks)
	if err != nil {
		return nil, 0, err
	}
	ex := newExec(opts)
	origin := ks.Min()
	// Each chunk of neighbour pairs emits its slice of the sequence; chunk
	// slices concatenate in chunk order, reproducing the sequential scan.
	chunks, err := engine.MapChunks(ex.ctx, ex.pool, ks.Len()-1, engine.GrainFor(ks.Len()-1, ex.pool),
		func(clo, chi int) ([]LossPoint, error) {
			var part []LossPoint
			cf, suf := pre.ClosedForm(), pre.Suffix(clo+1)
			for i := clo; i < chi; i++ {
				pos := i + 1
				for k := ks.At(i) + 1; k < ks.At(i+1); k++ {
					part = append(part, LossPoint{Key: k, Loss: cf.Loss(k, pos, suf)})
				}
				suf -= ks.At(i+1) - origin
			}
			return part, nil
		})
	if err != nil {
		return nil, 0, err
	}
	var seq []LossPoint
	for _, part := range chunks {
		seq = append(seq, part...)
	}
	if len(seq) == 0 {
		return nil, 0, ErrNoGap
	}
	return seq, pre.CleanLoss(), nil
}

// DiscreteDerivative returns ΔA(i) = A(i+1) − A(i) over consecutive entries
// of the loss sequence (Definition 3). The derivative point is attributed to
// the left key. Non-adjacent keys (separated by an occupied slot) still form
// consecutive sequence entries, matching the paper's sequence-of-candidates
// view.
func DiscreteDerivative(seq []LossPoint) []LossPoint {
	if len(seq) < 2 {
		return nil
	}
	out := make([]LossPoint, 0, len(seq)-1)
	for i := 0; i+1 < len(seq); i++ {
		out = append(out, LossPoint{Key: seq[i].Key, Loss: seq[i+1].Loss - seq[i].Loss})
	}
	return out
}

// GapConvexityReport summarizes, for one gap, how far the interior maximum
// of the loss sequence exceeds the best endpoint. Theorem 2 predicts
// Excess <= 0 up to floating-point noise for every gap.
type GapConvexityReport struct {
	EndpointMax float64 // max(L(lo), L(hi))
	Excess      float64 // interior max − EndpointMax (≤ ~0 when the corollary holds)
}

// CheckGapConvexity evaluates the Theorem 2 corollary — "the maximum loss
// for each convex subsequence is given either by the first or the last
// poisoning key of its domain" — on every gap of the set. It returns one
// report per gap that has interior keys (width ≥ 3). Used by property tests
// and by the lisbench convexity ablation.
func CheckGapConvexity(ks keys.Set, opts ...Option) ([]GapConvexityReport, error) {
	if ks.Len() < 2 {
		return nil, ErrTooFew
	}
	pre, err := regression.NewPrefix(ks)
	if err != nil {
		return nil, err
	}
	ex := newExec(opts)
	gaps := ks.Gaps()
	// One task per gap (gap widths vary wildly, so per-gap scheduling load
	// balances); nil results for sub-width gaps are dropped in gap order.
	perGap, err := engine.Map(ex.ctx, ex.pool, len(gaps), func(gi int) (*GapConvexityReport, error) {
		g := gaps[gi]
		if g.Width() < 3 {
			return nil, nil
		}
		pos := g.Rank - 1
		cf, suf := pre.ClosedForm(), pre.Suffix(pos)
		epMax := cf.Loss(g.Lo, pos, suf)
		if l := cf.Loss(g.Hi, pos, suf); l > epMax {
			epMax = l
		}
		inMax := 0.0
		first := true
		for k := g.Lo + 1; k < g.Hi; k++ {
			l := cf.Loss(k, pos, suf)
			if first || l > inMax {
				inMax, first = l, false
			}
		}
		return &GapConvexityReport{EndpointMax: epMax, Excess: inMax - epMax}, nil
	})
	if err != nil {
		return nil, err
	}
	var reports []GapConvexityReport
	for _, r := range perGap {
		if r != nil {
			reports = append(reports, *r)
		}
	}
	return reports, nil
}
