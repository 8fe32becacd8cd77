package bench

import (
	"fmt"

	"cdfpoison/internal/core"
	"cdfpoison/internal/workload"
)

// CascadeCell is one (leaf-target × per-epoch budget) cell of the
// split-cascade sweep: the full result of core.CascadeAttack, whose
// VictimStruct/CleanStruct hold the final structural accounting of both
// indexes.
type CascadeCell struct {
	LeafTarget int
	BudgetPct  float64 // per-EPOCH attacker budget as % of the initial keys
	Budget     int
	core.CascadeResult
}

// CascadeSweepResult is the full split-cascade sweep ("-fig cascade" in
// lisbench): the cascade attack across leaf targets and budgets over a
// shared initial key set and per-cell deterministic streams.
type CascadeSweepResult struct {
	Keys          int
	Domain        int64
	EpochsPerCell int
	OpsPerEpoch   int
	Workload      workload.Spec
	Cells         []CascadeCell
}

// cascadeShape returns the sweep parameters per scale. Leaf targets span
// the regimes that matter: small leaves (tight fanout limit — the cascade
// lands within a quick budget) and production-sized leaves (shifts
// dominate; the cascade needs the large budgets).
func cascadeShape(s Scale) (n, epochs, opsPerEpoch int, leafTargets []int, budgets []float64) {
	switch s {
	case ScaleQuick:
		return 200, 4, 80, []int{8, 16}, []float64{8, 30}
	case ScaleLarge:
		return 20_000, 8, 2_000, []int{32, 128}, []float64{1, 3}
	default:
		return 4_000, 6, 400, []int{16, 64}, []float64{2, 6}
	}
}

// CascadeSweep runs the split-cascade scenario across leaf targets and
// per-epoch budgets. The initial key set is drawn once; every cell's
// operation stream uses the SAME Options.Seed, so cells differ only in
// leaf target or budget, never in stream luck. The cells fan out across
// Options.Workers with sequential inner attacks — results fold in cell
// order, identical for every worker count.
func CascadeSweep(opts Options) (CascadeSweepResult, error) {
	opts = opts.fill()
	n, epochs, opsPerEpoch, leafTargets, budgets := cascadeShape(opts.Scale)
	domain := int64(n) * 40
	mix := workload.NewZipf(1.1, 85)

	root := opts.rng()
	ks, err := DistUniform.generate(root.Split(), n, domain)
	if err != nil {
		return CascadeSweepResult{}, fmt.Errorf("bench: cascade initial set: %w", err)
	}

	cells, err := grid(opts, leafTargets, budgets, func(leaf int, pct float64) (CascadeCell, error) {
		budget := budgetOf(n, pct)
		res, err := core.CascadeAttack(ks, core.CascadeOptions{
			Epochs:      epochs,
			OpsPerEpoch: opsPerEpoch,
			EpochBudget: budget,
			LeafTarget:  leaf,
			Workload:    mix,
			Domain:      domain,
			Seed:        opts.Seed,
		})
		if err != nil {
			return CascadeCell{}, fmt.Errorf("bench: cascade cell leaf=%d budget=%g%%: %w", leaf, pct, err)
		}
		return CascadeCell{LeafTarget: leaf, BudgetPct: pct, Budget: budget, CascadeResult: res}, nil
	})
	if err != nil {
		return CascadeSweepResult{}, err
	}
	return CascadeSweepResult{
		Keys:          n,
		Domain:        domain,
		EpochsPerCell: epochs,
		OpsPerEpoch:   opsPerEpoch,
		Workload:      mix,
		Cells:         cells,
	}, nil
}

// MaxStructRatio returns the worst final structural-cost ratio across
// cells — the sweep's headline number.
func (r CascadeSweepResult) MaxStructRatio() float64 {
	best := 0.0
	for _, c := range r.Cells {
		if r := c.FinalStructRatio(); r > best {
			best = r
		}
	}
	return best
}

// TotalCascades returns the attacker-forced cascades summed over cells.
func (r CascadeSweepResult) TotalCascades() int {
	total := 0
	for _, c := range r.Cells {
		total += c.VictimStruct.Cascades - c.CleanStruct.Cascades
	}
	return total
}
