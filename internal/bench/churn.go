package bench

import (
	"fmt"

	"cdfpoison/internal/core"
	"cdfpoison/internal/dynamic"
	"cdfpoison/internal/index"
	"cdfpoison/internal/workload"
)

// ChurnCell is one (rebuild-cost model × per-epoch budget) cell of the
// retrain-churn sweep: the full result of core.ChurnAttack, whose
// VictimChurn/CleanChurn hold the publish, coalesce, latency, and
// stale-tick totals.
type ChurnCell struct {
	Cost      index.CostModel
	BudgetPct float64 // per-EPOCH attacker budget as % of the initial keys
	core.ChurnResult
}

// ChurnSweepResult is the full retrain-churn sweep ("-fig churn" in
// lisbench): the churn attack across rebuild-cost models and budgets over
// a shared initial key set and per-cell deterministic streams.
type ChurnSweepResult struct {
	Keys          int
	Shards        int
	Policy        dynamic.RetrainPolicy
	EpochsPerCell int
	OpsPerEpoch   int
	Workload      workload.Spec
	Cells         []ChurnCell
}

// churnShape returns the sweep parameters per scale. Cost models span the
// regimes that matter: zero (the synchronous control), a flat per-rebuild
// cost, and a size-proportional cost (rebuild price grows as the victim
// absorbs keys — the complexity-attack regime).
func churnShape(s Scale) (n, epochs, opsPerEpoch, shards, bufferK int, budgets []float64, costs []index.CostModel) {
	costs = []index.CostModel{
		{},                                 // zero: synchronous control
		{Fixed: 40},                        // flat rebuild cost
		{Fixed: 10, PerKey: 25, Unit: 100}, // size-proportional
	}
	switch s {
	case ScaleQuick:
		return 400, 3, 60, 4, 12, []float64{2, 6}, costs
	case ScaleLarge:
		return 20_000, 8, 2_000, 16, 256, []float64{1, 2}, costs
	default:
		return 4_000, 6, 400, 8, 64, []float64{1, 3}, costs
	}
}

// ChurnSweep runs the retrain-churn scenario across rebuild-cost models
// and per-epoch budgets. The initial key set is drawn once; every cell's
// operation stream uses the SAME Options.Seed, so cells differ only in
// cost model or budget, never in stream luck. The cells fan out across
// Options.Workers with sequential inner attacks — results fold in cell
// order, identical for every worker count.
func ChurnSweep(opts Options) (ChurnSweepResult, error) {
	opts = opts.fill()
	n, epochs, opsPerEpoch, shards, bufferK, budgets, costs := churnShape(opts.Scale)
	domain := int64(n) * 40
	policy := dynamic.BufferLimit(bufferK)
	mix := workload.NewZipf(1.1, 90)

	root := opts.rng()
	ks, err := DistUniform.generate(root.Split(), n, domain)
	if err != nil {
		return ChurnSweepResult{}, fmt.Errorf("bench: churn initial set: %w", err)
	}

	cells, err := grid(opts, costs, budgets, func(cost index.CostModel, pct float64) (ChurnCell, error) {
		budget := budgetOf(n, pct)
		res, err := core.ChurnAttack(ks, core.ChurnOptions{
			Epochs:      epochs,
			OpsPerEpoch: opsPerEpoch,
			EpochBudget: budget,
			Shards:      shards,
			Policy:      policy,
			Workload:    mix,
			Domain:      domain,
			Seed:        opts.Seed,
			Cost:        cost,
		})
		if err != nil {
			return ChurnCell{}, fmt.Errorf("bench: churn cell cost=%s budget=%g%%: %w", cost, pct, err)
		}
		return ChurnCell{Cost: cost, BudgetPct: pct, ChurnResult: res}, nil
	})
	if err != nil {
		return ChurnSweepResult{}, err
	}
	return ChurnSweepResult{
		Keys:          n,
		Shards:        shards,
		Policy:        policy,
		EpochsPerCell: epochs,
		OpsPerEpoch:   opsPerEpoch,
		Workload:      mix,
		Cells:         cells,
	}, nil
}

// MaxStaleFrac returns the worst stale-read fraction across cells — the
// sweep's headline number.
func (r ChurnSweepResult) MaxStaleFrac() float64 {
	best := 0.0
	for _, c := range r.Cells {
		if f := c.MaxStaleFrac(); f > best {
			best = f
		}
	}
	return best
}

// MaxLatency returns the worst publish latency (ticks) across cells.
func (r ChurnSweepResult) MaxLatency() int64 {
	var best int64
	for _, c := range r.Cells {
		if l := c.VictimChurn.MaxLatencyTicks; l > best {
			best = l
		}
	}
	return best
}
