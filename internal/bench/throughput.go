package bench

// The concurrent-serving throughput sweep ("-fig throughput" in lisbench):
// the tail-latency expression of the paper's attack. Each cell runs the
// serve scenario TWICE on the goroutine-concurrent plane — clean
// (EpochBudget 0) and poisoned (greedy multi-point oracle) — under one
// workload mix and rebuild-cost model, and reports per-epoch probe-latency
// percentiles (p50/p99/p999, deterministic HDR-style histograms) plus
// wall-clock ops/sec.
//
// Determinism split: every EpochMetrics field is a pure function of (seed,
// shape) — identical for any reader count, batch size, or machine — so the
// CSV the cmd layer renders is fingerprintable (EXPERIMENTS.md). The
// ops/sec figures are wall-clock and machine-dependent: they are reported
// on stdout and captured by the perf harness (BENCH_PR6.json), never
// placed in the CSV.

import (
	"context"
	"fmt"
	"time"

	"cdfpoison/internal/core"
	"cdfpoison/internal/dynamic"
	"cdfpoison/internal/index"
	"cdfpoison/internal/serve"
	"cdfpoison/internal/shard"
	"cdfpoison/internal/workload"
)

// ThroughputCell is one (workload mix × rebuild-cost model) cell: the
// clean and poisoned per-epoch trajectories plus headline summaries.
type ThroughputCell struct {
	Workload  workload.Spec
	Cost      index.CostModel
	BudgetPct float64
	Clean     []serve.EpochMetrics
	Poisoned  []serve.EpochMetrics
	// Wall-clock throughput of each run — machine-dependent, stdout/perf
	// artifact only, never part of the fingerprinted CSV.
	CleanOpsPerSec    float64
	PoisonedOpsPerSec float64
	// Summaries over the deterministic trajectories: worst poisoned/clean
	// tail-latency ratios and worst poisoned stale fraction.
	MaxP99Ratio  float64
	MaxP999Ratio float64
	MaxStaleFrac float64
}

// ThroughputSweepResult is the full sweep: shared shape plus the cells.
type ThroughputSweepResult struct {
	Keys          int
	Shards        int
	Policy        dynamic.RetrainPolicy
	EpochsPerCell int
	OpsPerEpoch   int
	// Readers/BatchSize echo the plane knobs the sweep ran with (wall-clock
	// context for the stdout report; no metric depends on them).
	Readers   int
	BatchSize int
	Cells     []ThroughputCell
}

// throughputShape returns the sweep parameters per scale: a sharded
// buffer-policy victim (organic retrain triggers, the churn regime) served
// under three workload mixes × two rebuild-cost models.
func throughputShape(s Scale) (n, epochs, opsPerEpoch, shards, bufferK int, budgetPct float64, costs []index.CostModel, mixes []workload.Spec) {
	costs = []index.CostModel{
		{Fixed: 40},                        // flat rebuild cost
		{Fixed: 10, PerKey: 25, Unit: 100}, // size-proportional
	}
	mixes = []workload.Spec{
		workload.NewUniform(90),
		workload.NewZipf(1.1, 90),
		workload.NewHotspot(2, 90),
	}
	switch s {
	case ScaleQuick:
		return 400, 3, 60, 4, 12, 3, costs, mixes
	case ScaleLarge:
		return 20_000, 8, 2_000, 16, 256, 1, costs, mixes
	default:
		return 4_000, 5, 400, 8, 64, 2, costs, mixes
	}
}

// ThroughputSweep runs the concurrent serving scenario across workload
// mixes and rebuild-cost models, clean vs poisoned. The initial key set is
// drawn once and every run uses the SAME Options.Seed, so cells differ
// only in mix and cost, and the clean/poisoned pair of a cell sees the
// byte-identical honest stream. Cells run sequentially — the concurrency
// lives INSIDE each run (Options.Workers reader goroutines), so fanning
// cells out as well would oversubscribe the host and distort ops/sec.
func ThroughputSweep(opts Options) (ThroughputSweepResult, error) {
	opts = opts.fill()
	n, epochs, opsPerEpoch, shards, bufferK, budgetPct, costs, mixes := throughputShape(opts.Scale)
	domain := int64(n) * 40
	policy := dynamic.BufferLimit(bufferK)
	budget := budgetOf(n, budgetPct)

	root := opts.rng()
	ks, err := DistUniform.generate(root.Split(), n, domain)
	if err != nil {
		return ThroughputSweepResult{}, fmt.Errorf("bench: throughput initial set: %w", err)
	}

	plane := serve.Options{Readers: opts.Workers}.ForEpoch(opsPerEpoch)
	res := ThroughputSweepResult{
		Keys:          n,
		Shards:        shards,
		Policy:        policy,
		EpochsPerCell: epochs,
		OpsPerEpoch:   opsPerEpoch,
		Readers:       plane.Readers,
		BatchSize:     plane.BatchSize,
	}
	for _, mix := range mixes {
		for _, cost := range costs {
			base := serve.ScenarioOptions{
				Epochs:      epochs,
				OpsPerEpoch: opsPerEpoch,
				Workload:    mix,
				Domain:      domain,
				Seed:        opts.Seed,
				Cost:        cost,
				Oracle:      core.GreedyOracle(),
			}
			cell := ThroughputCell{Workload: mix, Cost: cost, BudgetPct: budgetPct}

			run := func(budget int) ([]serve.EpochMetrics, float64, error) {
				b, err := shard.New(ks, shards, policy)
				if err != nil {
					return nil, 0, err
				}
				o := base
				o.EpochBudget = budget
				start := time.Now()
				m, err := serve.RunConcurrent(context.Background(), b, o, plane)
				if err != nil {
					return nil, 0, err
				}
				elapsed := time.Since(start)
				ops := 0
				for _, e := range m {
					ops += e.Reads + e.Writes + e.Injected
				}
				return m, float64(ops) / elapsed.Seconds(), nil
			}
			if cell.Clean, cell.CleanOpsPerSec, err = run(0); err != nil {
				return ThroughputSweepResult{}, fmt.Errorf("bench: throughput clean cell %s/%s: %w", mix, cost, err)
			}
			if cell.Poisoned, cell.PoisonedOpsPerSec, err = run(budget); err != nil {
				return ThroughputSweepResult{}, fmt.Errorf("bench: throughput poisoned cell %s/%s: %w", mix, cost, err)
			}

			for e := range cell.Poisoned {
				p, c := cell.Poisoned[e], cell.Clean[e]
				if r := core.SafeRatio(float64(p.P99), float64(c.P99)); r > cell.MaxP99Ratio {
					cell.MaxP99Ratio = r
				}
				if r := core.SafeRatio(float64(p.P999), float64(c.P999)); r > cell.MaxP999Ratio {
					cell.MaxP999Ratio = r
				}
				if p.StaleFrac > cell.MaxStaleFrac {
					cell.MaxStaleFrac = p.StaleFrac
				}
			}
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

// MaxP999Ratio returns the worst poisoned/clean p999 ratio across cells —
// the sweep's headline number.
func (r ThroughputSweepResult) MaxP999Ratio() float64 {
	best := 0.0
	for _, c := range r.Cells {
		if c.MaxP999Ratio > best {
			best = c.MaxP999Ratio
		}
	}
	return best
}
