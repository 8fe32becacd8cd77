// Package bench codifies every experiment of the paper's evaluation —
// Figures 2 through 8 — plus the extensions and ablations listed in
// DESIGN.md, as deterministic, seedable runners. The lisbench command and
// the repository's bench_test.go are thin layers over this package.
//
// Scaling: the paper's largest synthetic cells use n = 10⁷ keys, which costs
// CPU-days for the greedy RMI attack on a single core. Runners therefore
// accept a Scale that shrinks n while preserving every ratio that drives the
// figures' shape (density, model-size progression, poisoning percentages,
// per-model thresholds). EXPERIMENTS.md records which scale produced each
// reported number.
package bench

import (
	"context"

	"cdfpoison/internal/core"
	"cdfpoison/internal/engine"
	"cdfpoison/internal/xrand"
)

// Scale selects experiment sizes.
type Scale string

const (
	// ScaleQuick runs in seconds; used by tests and CI.
	ScaleQuick Scale = "quick"
	// ScaleDefault is the supported reproduction (minutes on one core).
	ScaleDefault Scale = "default"
	// ScaleLarge stresses the asymptotics (tens of minutes on one core).
	ScaleLarge Scale = "large"
)

// Options configures a runner.
type Options struct {
	Scale Scale
	Seed  uint64
	// Trials, when positive, runs each PerfSweep cell exactly Trials times
	// with no time floor; 0 keeps the scale's sampling budget.
	Trials int
	// Workers bounds the worker pool for the figure sweeps: 1 = sequential,
	// n > 1 = exactly n workers, 0 or negative = one worker per core.
	// Results are identical for every value (the engine's determinism
	// contract, enforced by the equivalence tests); Workers is purely a
	// wall-clock knob. Key-set GENERATION always stays sequential so the
	// RNG stream — and therefore every dataset — is worker-independent.
	Workers int
}

func (o Options) fill() Options {
	if o.Scale == "" {
		o.Scale = ScaleDefault
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// rng derives the root RNG for a runner; each cell must Split() from it so
// that cells are independent of iteration order.
func (o Options) rng() *xrand.RNG { return xrand.New(o.Seed) }

// pool builds the sweep-level worker pool (see Options.Workers).
func (o Options) pool() *engine.Pool { return engine.New(o.Workers) }

// coreOpts forwards the runner's worker budget to a core attack call when
// the attack itself is the sweep's hot path (the small fig2-4 experiments
// run one attack, so parallelism belongs inside it). Cell fan-out paths
// instead keep inner attacks sequential to avoid nested oversubscription.
func (o Options) coreOpts() []core.Option {
	return []core.Option{core.WithWorkers(o.Workers)}
}

// grid runs cell over every (a, b) in as × bs, a-major, fanning the cells
// across the sweep's worker pool with sequential inner attacks; results
// fold in cell order, identical for every worker count.
func grid[A, B, C any](opts Options, as []A, bs []B, cell func(A, B) (C, error)) ([]C, error) {
	return engine.Map(context.Background(), opts.pool(), len(as)*len(bs), func(i int) (C, error) {
		return cell(as[i/len(bs)], bs[i%len(bs)])
	})
}

// budgetOf converts a percentage of n keys into a key budget, at least 1.
func budgetOf(n int, pct float64) int {
	return max(int(float64(n)*pct/100), 1)
}
