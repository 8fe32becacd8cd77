package bench

import (
	"cdfpoison/internal/core"
	"cdfpoison/internal/pla"
	"cdfpoison/internal/regression"
)

// PLACell is Extension F: poisoning an error-bounded piecewise-linear index
// (FITing-tree / PGM family). The error bound is enforced by construction,
// so the damage surfaces as segment-count (memory) inflation instead of
// lookup error. Two attackers are compared: the paper's loss-optimal greedy
// attack (whose single poison cluster barely fragments the segmentation —
// a non-transferability finding) and the index-aware burst attack of
// pla.InflationAttack.
type PLACell struct {
	Epsilon       int
	Keys          int
	PoisonPct     float64
	CleanSegments int
	// LossAttackSegments: after the paper's MSE-maximizing attack.
	LossAttackSegments int
	LossInflation      float64
	// BurstSegments: after the segment-targeted burst attack.
	BurstSegments  int
	BurstInflation float64
	BurstInjected  int
	CleanBytes     int
	BurstBytes     int
}

// PLAInflation measures segment inflation across error bounds for both
// attack objectives.
func PLAInflation(opts Options) ([]PLACell, error) {
	opts = opts.fill()
	n := 20_000
	if opts.Scale == ScaleQuick {
		n = 4_000
	}
	const pct = 10.0
	budget := n / 10
	rng := opts.rng()
	ks, err := DistUniform.generate(rng, n, int64(n)*20)
	if err != nil {
		return nil, err
	}
	atk, err := core.GreedyMultiPoint(ks, budget)
	if err != nil {
		return nil, err
	}
	var out []PLACell
	for _, eps := range []int{4, 16, 64} {
		clean, err := pla.Build(ks, eps)
		if err != nil {
			return nil, err
		}
		lossIdx, err := pla.Build(atk.Poisoned, eps)
		if err != nil {
			return nil, err
		}
		burst, err := pla.InflationAttack(ks, budget, eps)
		if err != nil {
			return nil, err
		}
		out = append(out, PLACell{
			Epsilon:            eps,
			Keys:               n,
			PoisonPct:          pct,
			CleanSegments:      clean.Segments(),
			LossAttackSegments: lossIdx.Segments(),
			LossInflation:      float64(lossIdx.Segments()) / float64(clean.Segments()),
			BurstSegments:      burst.PoisonedSegments,
			BurstInflation:     burst.InflationRatio(),
			BurstInjected:      len(burst.Poison),
			CleanBytes:         clean.MemoryBytes(),
			BurstBytes:         burst.PoisonedSegments * 32,
		})
	}
	return out, nil
}

// QuadCell is Extension G: replacing the linear second stage with a
// quadratic model — the mitigation the paper's Discussion prices out.
type QuadCell struct {
	Keys            int
	PoisonPct       float64
	LinearRatio     float64 // attack amplification against the linear model
	QuadRatio       float64 // amplification against the quadratic model
	QuadCleanLoss   float64
	LinearCleanLoss float64
	ParamsLinear    int
	ParamsQuad      int
}

// QuadraticMitigation measures how much of the (linear-model-optimized)
// attack survives a quadratic second stage, and what the model upgrade
// costs in parameters.
func QuadraticMitigation(opts Options) (QuadCell, error) {
	opts = opts.fill()
	n := 2_000
	if opts.Scale == ScaleQuick {
		n = 500
	}
	rng := opts.rng()
	ks, err := DistUniform.generate(rng, n, int64(n)*20)
	if err != nil {
		return QuadCell{}, err
	}
	atk, err := core.GreedyMultiPoint(ks, n/10)
	if err != nil {
		return QuadCell{}, err
	}
	cell := QuadCell{Keys: n, PoisonPct: 10, ParamsLinear: 2, ParamsQuad: 3}

	linClean, err := regression.FitCDF(ks)
	if err != nil {
		return QuadCell{}, err
	}
	linPois, err := regression.FitCDF(atk.Poisoned)
	if err != nil {
		return QuadCell{}, err
	}
	cell.LinearCleanLoss = linClean.Loss
	cell.LinearRatio = core.SafeRatio(linPois.Loss, linClean.Loss)

	quadClean, err := regression.FitQuadCDF(ks)
	if err != nil {
		return QuadCell{}, err
	}
	quadPois, err := regression.FitQuadCDF(atk.Poisoned)
	if err != nil {
		return QuadCell{}, err
	}
	cell.QuadCleanLoss = quadClean.Loss
	cell.QuadRatio = core.SafeRatio(quadPois.Loss, quadClean.Loss)
	return cell, nil
}

// ModificationCell is Extension E2: the modification adversary compared to
// pure insertion and pure deletion at the same budget.
type ModificationCell struct {
	Keys           int
	BudgetPct      float64
	InsertionRatio float64
	RemovalRatio   float64
	ModifyRatio    float64
}

// AdversaryComparison runs the three adversary capabilities on the same key
// set with the same budget.
func AdversaryComparison(opts Options) (ModificationCell, error) {
	opts = opts.fill()
	n := 2_000
	if opts.Scale == ScaleQuick {
		n = 500
	}
	rng := opts.rng()
	ks, err := DistUniform.generate(rng, n, int64(n)*20)
	if err != nil {
		return ModificationCell{}, err
	}
	budget := n / 20 // 5%
	cell := ModificationCell{Keys: n, BudgetPct: 5}
	ins, err := core.GreedyMultiPoint(ks, budget)
	if err != nil {
		return ModificationCell{}, err
	}
	cell.InsertionRatio = ins.RatioLoss()
	rem, err := core.GreedyRemoval(ks, budget)
	if err != nil {
		return ModificationCell{}, err
	}
	cell.RemovalRatio = rem.RatioLoss()
	mod, err := core.GreedyModification(ks, budget)
	if err != nil {
		return ModificationCell{}, err
	}
	cell.ModifyRatio = mod.RatioLoss()
	return cell, nil
}
