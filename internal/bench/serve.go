package bench

import (
	"fmt"

	"cdfpoison/internal/core"
	"cdfpoison/internal/dynamic"
	"cdfpoison/internal/workload"
)

// ServeCell is one (shard count × workload mix) cell of the serving sweep:
// the full result of the attack-under-load scenario, whose MaxShardRatio
// exposes how sharding concentrates damage.
type ServeCell struct {
	Workload  workload.Spec
	BudgetPct float64 // per-EPOCH attacker budget as % of the initial keys
	Budget    int
	core.ServeResult
}

// ServeSweepResult is the full serving sweep ("-fig serve" in lisbench):
// the sharded attack-under-load scenario across shard counts and workload
// mixes, over a shared initial key set and a per-cell deterministic
// operation stream.
type ServeSweepResult struct {
	Keys          int
	Domain        int64
	EpochsPerCell int
	OpsPerEpoch   int
	Cells         []ServeCell
}

// serveShape returns the sweep parameters per scale.
func serveShape(s Scale) (n, epochs, opsPerEpoch int, budgetPct float64, shardCounts []int, mixes []workload.Spec) {
	mixes = []workload.Spec{
		workload.NewUniform(90),
		workload.NewZipf(1.1, 90),
		workload.NewHotspot(2, 90),
	}
	switch s {
	case ScaleQuick:
		return 400, 3, 60, 5, []int{1, 4}, mixes
	case ScaleLarge:
		return 20_000, 8, 2_000, 2, []int{1, 4, 16}, mixes
	default:
		return 4_000, 6, 400, 2, []int{1, 4, 8}, mixes
	}
}

// ServeSweep runs the attack-under-load scenario across shard counts and
// workload mixes. The initial key set is drawn once and every cell's
// operation stream uses the SAME Options.Seed — cells differ only in
// shard count or mix, never in stream luck, and each cell derives its
// stream independently so cells are order-independent. The
// (shards × workload) cells fan out across Options.Workers with
// sequential inner attacks — results fold in cell order, identical for
// every worker count.
func ServeSweep(opts Options) (ServeSweepResult, error) {
	opts = opts.fill()
	n, epochs, opsPerEpoch, budgetPct, shardCounts, mixes := serveShape(opts.Scale)
	domain := int64(n) * 40

	root := opts.rng()
	ks, err := DistUniform.generate(root.Split(), n, domain)
	if err != nil {
		return ServeSweepResult{}, fmt.Errorf("bench: serve initial set: %w", err)
	}

	budget := budgetOf(n, budgetPct)
	cells, err := grid(opts, shardCounts, mixes, func(shards int, mix workload.Spec) (ServeCell, error) {
		res, err := core.ServeAttack(ks, core.ServeOptions{
			Epochs:      epochs,
			OpsPerEpoch: opsPerEpoch,
			EpochBudget: budget,
			Shards:      shards,
			Policy:      dynamic.ManualPolicy(),
			Workload:    mix,
			Domain:      domain,
			// All cells share the same stream seed: a cell differs from its
			// neighbours only in shard count or mix, never in luck.
			Seed: opts.Seed,
		})
		if err != nil {
			return ServeCell{}, fmt.Errorf("bench: serve cell shards=%d workload=%s: %w", shards, mix, err)
		}
		return ServeCell{Workload: mix, BudgetPct: budgetPct, Budget: budget, ServeResult: res}, nil
	})
	if err != nil {
		return ServeSweepResult{}, err
	}
	return ServeSweepResult{
		Keys:          n,
		Domain:        domain,
		EpochsPerCell: epochs,
		OpsPerEpoch:   opsPerEpoch,
		Cells:         cells,
	}, nil
}

// MaxFinalRatio returns the largest end-of-scenario aggregate ratio across
// cells — the sweep's headline number.
func (r ServeSweepResult) MaxFinalRatio() float64 {
	best := 0.0
	for _, c := range r.Cells {
		if r := c.FinalRatio(); r > best {
			best = r
		}
	}
	return best
}
