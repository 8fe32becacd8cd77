package bench

import (
	"fmt"

	"cdfpoison/internal/core"
	"cdfpoison/internal/dynamic"
)

// OnlineCell is one (retrain policy × attacker budget) cell of the online
// sweep: the full result of the dynamic-index scenario, whose FinalRatio
// and MaxRatio summarize the trajectory (they differ when a retrain
// mid-scenario absorbs buffered poison into the model).
type OnlineCell struct {
	Policy    dynamic.RetrainPolicy
	BudgetPct float64 // per-EPOCH attacker budget as % of the initial keys
	core.OnlineResult
}

// OnlineSweepResult is the full online-scenario sweep ("-fig online" in
// lisbench): loss ratio and probe count vs. epoch for every (retrain
// policy × per-epoch budget) cell, over a shared initial key set and
// honest-arrival schedule so cells are directly comparable.
type OnlineSweepResult struct {
	Keys          int // initial key count
	EpochsPerCell int
	ArrivalsPct   float64 // honest arrivals per epoch, % of initial keys
	Cells         []OnlineCell
}

// onlineShape returns the sweep parameters per scale: initial keys, epochs,
// per-epoch budget percentages, and the retrain-policy roster.
func onlineShape(s Scale) (n, epochs int, budgetPcts []float64, policies func(n int) []dynamic.RetrainPolicy) {
	roster := func(every, buffer int) func(int) []dynamic.RetrainPolicy {
		return func(n int) []dynamic.RetrainPolicy {
			return []dynamic.RetrainPolicy{
				dynamic.ManualPolicy(),
				dynamic.EveryKInserts(n / every),
				dynamic.BufferLimit(n / buffer),
			}
		}
	}
	switch s {
	case ScaleQuick:
		return 300, 3, []float64{2, 5}, roster(10, 10)
	case ScaleLarge:
		return 10_000, 10, []float64{1, 2, 5}, roster(20, 20)
	default:
		return 2_000, 8, []float64{1, 2, 5}, roster(20, 20)
	}
}

// OnlineSweep runs the dynamic-index online poisoning scenario across
// retrain policies and attacker budgets. Key-set and arrival generation is
// sequential (worker-independent RNG streams); the (policy × budget) cells
// then fan out across Options.Workers with sequential inner attacks, and
// results fold in cell order — identical for every worker count.
func OnlineSweep(opts Options) (OnlineSweepResult, error) {
	opts = opts.fill()
	n, epochs, budgetPcts, policies := onlineShape(opts.Scale)
	const arrivalsPct = 2.0
	domain := int64(n) * 40

	root := opts.rng()
	ks, err := DistUniform.generate(root.Split(), n, domain)
	if err != nil {
		return OnlineSweepResult{}, fmt.Errorf("bench: online initial set: %w", err)
	}
	// One shared arrival schedule: every cell sees the same honest traffic,
	// so policy and budget are the only variables.
	arrRNG := root.Split()
	perEpoch := int(float64(n) * arrivalsPct / 100)
	arrivals := make([][]int64, epochs)
	for e := range arrivals {
		for i := 0; i < perEpoch; i++ {
			arrivals[e] = append(arrivals[e], arrRNG.Int63n(domain))
		}
	}

	cells, err := grid(opts, policies(n), budgetPcts, func(p dynamic.RetrainPolicy, pct float64) (OnlineCell, error) {
		budget := budgetOf(n, pct)
		res, err := core.OnlinePoisonAttack(ks, core.OnlineOptions{
			Epochs:      epochs,
			EpochBudget: budget,
			Policy:      p,
			Arrivals:    arrivals,
		})
		if err != nil {
			return OnlineCell{}, fmt.Errorf("bench: online cell policy=%s budget=%v%%: %w", p, pct, err)
		}
		return OnlineCell{Policy: p, BudgetPct: pct, OnlineResult: res}, nil
	})
	if err != nil {
		return OnlineSweepResult{}, err
	}
	return OnlineSweepResult{
		Keys:          n,
		EpochsPerCell: epochs,
		ArrivalsPct:   arrivalsPct,
		Cells:         cells,
	}, nil
}

// MaxFinalRatio returns the largest end-of-scenario loss ratio across cells
// — the sweep's headline number.
func (r OnlineSweepResult) MaxFinalRatio() float64 {
	best := 0.0
	for _, c := range r.Cells {
		if r := c.FinalRatio(); r > best {
			best = r
		}
	}
	return best
}
