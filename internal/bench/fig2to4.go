package bench

import (
	"fmt"

	"cdfpoison/internal/core"
	"cdfpoison/internal/dataset"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/regression"
)

// Fig2Result reproduces Figure 2: the compound effect of a single optimal
// poisoning key on a small CDF — regression line before and after, and the
// rank shift of every legitimate key.
type Fig2Result struct {
	Keys      keys.Set
	PoisonKey int64
	Rank      int
	Before    regression.Model // fitted on the clean 10-key CDF
	After     regression.Model // fitted on the poisoned 11-key CDF
	Ratio     float64
}

// Fig2 runs the Figure 2 experiment: n=10 uniform keys over domain [0, 41),
// one optimal poisoning key.
func Fig2(opts Options) (Fig2Result, error) {
	opts = opts.fill()
	rng := opts.rng()
	ks, err := dataset.Uniform(rng, 10, 41)
	if err != nil {
		return Fig2Result{}, err
	}
	// A saturated draw (no interior gap) cannot illustrate the attack;
	// with n=10 over 41 slots this is astronomically unlikely, but keep the
	// retry explicit so the runner never fails spuriously.
	for attempt := 0; ks.Saturated() && attempt < 100; attempt++ {
		ks, err = dataset.Uniform(rng, 10, 41)
		if err != nil {
			return Fig2Result{}, err
		}
	}
	sp, err := core.OptimalSinglePoint(ks, opts.coreOpts()...)
	if err != nil {
		return Fig2Result{}, fmt.Errorf("bench: fig2 attack: %w", err)
	}
	before, err := regression.FitCDF(ks)
	if err != nil {
		return Fig2Result{}, err
	}
	poisoned, _ := ks.Insert(sp.Key)
	after, err := regression.FitCDF(poisoned)
	if err != nil {
		return Fig2Result{}, err
	}
	return Fig2Result{
		Keys:      ks,
		PoisonKey: sp.Key,
		Rank:      sp.Rank,
		Before:    before,
		After:     after,
		Ratio:     sp.RatioLoss(),
	}, nil
}

// Fig3Result reproduces Figure 3: the loss sequence L(kp) over the key
// space, its first discrete derivative, and the per-gap convexity check.
type Fig3Result struct {
	Keys       keys.Set
	CleanLoss  float64
	Sequence   []core.LossPoint
	Derivative []core.LossPoint
	// MaxExcess is the largest amount by which an interior candidate beat
	// the gap endpoints over every gap (Theorem 2 predicts <= floating-point
	// noise).
	MaxExcess float64
}

// Fig3 evaluates the loss sequence on the same keyset family as Figure 2.
func Fig3(opts Options) (Fig3Result, error) {
	opts = opts.fill()
	rng := opts.rng()
	ks, err := dataset.Uniform(rng, 10, 41)
	if err != nil {
		return Fig3Result{}, err
	}
	for attempt := 0; ks.Saturated() && attempt < 100; attempt++ {
		ks, err = dataset.Uniform(rng, 10, 41)
		if err != nil {
			return Fig3Result{}, err
		}
	}
	seq, clean, err := core.LossSequence(ks, opts.coreOpts()...)
	if err != nil {
		return Fig3Result{}, err
	}
	conv, err := core.CheckGapConvexity(ks, opts.coreOpts()...)
	if err != nil {
		return Fig3Result{}, err
	}
	res := Fig3Result{
		Keys:       ks,
		CleanLoss:  clean,
		Sequence:   seq,
		Derivative: core.DiscreteDerivative(seq),
	}
	for _, r := range conv {
		if r.Excess > res.MaxExcess {
			res.MaxExcess = r.Excess
		}
	}
	return res, nil
}

// Fig4Result reproduces Figure 4: the greedy multi-point attack on 90
// uniform keys with 10 poisoning keys (the paper reports a 7.4× error
// increase and poison keys clustering in dense regions).
type Fig4Result struct {
	Poison   []int64
	Poisoned keys.Set
	Before   regression.Model
	After    regression.Model
	Ratio    float64
	// MeanPoisonGapWidth diagnoses clustering: the mean width of the gaps
	// the poison keys landed in, compared against the mean gap width.
	MeanGapWidth       float64
	MeanPoisonGapWidth float64
}

// Fig4 runs the Figure 4 experiment (n=90, domain 480, p=10).
func Fig4(opts Options) (Fig4Result, error) {
	opts = opts.fill()
	rng := opts.rng()
	ks, err := dataset.Uniform(rng, 90, 480)
	if err != nil {
		return Fig4Result{}, err
	}
	// Record gap geometry before the attack for the clustering diagnostic.
	gapOf := map[int64]float64{} // key in gap → gap width
	var totalWidth float64
	gaps := ks.Gaps()
	for _, g := range gaps {
		totalWidth += float64(g.Width())
		for k := g.Lo; k <= g.Hi; k++ {
			gapOf[k] = float64(g.Width())
		}
	}
	g, err := core.GreedyMultiPoint(ks, 10, opts.coreOpts()...)
	if err != nil {
		return Fig4Result{}, err
	}
	before, err := regression.FitCDF(ks)
	if err != nil {
		return Fig4Result{}, err
	}
	after, err := regression.FitCDF(g.Poisoned)
	if err != nil {
		return Fig4Result{}, err
	}
	res := Fig4Result{
		Poison:   g.Poison,
		Poisoned: g.Poisoned,
		Before:   before,
		After:    after,
		Ratio:    g.RatioLoss(),
	}
	if len(gaps) > 0 {
		res.MeanGapWidth = totalWidth / float64(len(gaps))
	}
	var sum float64
	var cnt int
	for _, p := range g.Poison {
		if w, ok := gapOf[p]; ok {
			sum += w
			cnt++
		}
	}
	if cnt > 0 {
		res.MeanPoisonGapWidth = sum / float64(cnt)
	}
	return res, nil
}
