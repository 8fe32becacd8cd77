package bench

import (
	"fmt"

	"cdfpoison/internal/core"
	"cdfpoison/internal/dataset"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/stats"
	"cdfpoison/internal/xrand"
)

// Distribution names a synthetic key distribution for the regression grid.
type Distribution string

const (
	DistUniform   Distribution = "uniform"
	DistNormal    Distribution = "normal"
	DistLogNormal Distribution = "lognormal"
)

// generate draws one key set of the distribution over [0, m).
func (d Distribution) generate(rng *xrand.RNG, n int, m int64) (keys.Set, error) {
	switch d {
	case DistUniform:
		return dataset.Uniform(rng, n, m)
	case DistNormal:
		return dataset.Normal(rng, n, m)
	case DistLogNormal:
		return dataset.LogNormal(rng, n, m, 0, 2)
	default:
		return keys.Set{}, fmt.Errorf("bench: unknown distribution %q", d)
	}
}

// RegressionGridCell is one boxplot of Figures 5/8: a fixed (keys, density,
// poisoning%) triple evaluated over `trials` fresh key sets.
type RegressionGridCell struct {
	Keys       int
	DensityPct float64
	Domain     int64
	PoisonPct  float64
	Ratios     []float64 // one ratio loss per trial
	Box        stats.Boxplot
}

// RegressionGridResult is the full Figure 5 (uniform) or Figure 8 (normal)
// sweep.
type RegressionGridResult struct {
	Trials int
	Cells  []RegressionGridCell
}

// gridShape returns the sweep parameters per scale: numbers of legitimate
// keys, key densities (percent), poisoning percentages, and trials.
func gridShape(s Scale) (keyCounts []int, densities []float64, poisonPcts []float64, trials int) {
	switch s {
	case ScaleQuick:
		return []int{100, 400}, []float64{5, 20, 80}, []float64{5, 15}, 3
	case ScaleLarge:
		return []int{100, 1000, 5000}, []float64{5, 20, 80}, []float64{1, 2, 5, 10, 15}, 20
	default:
		return []int{100, 1000}, []float64{5, 20, 80}, []float64{1, 2, 5, 10, 15}, 20
	}
}

// RegressionGrid runs the multi-point poisoning sweep of Figure 5
// (dist = uniform) and Figure 8 (dist = normal): for every (keys, density)
// cell, 20 distinct key sets are drawn, poisoned at each percentage with
// Algorithm 1, and the ratio loss distribution is reported as a boxplot.
func RegressionGrid(dist Distribution, opts Options) (RegressionGridResult, error) {
	opts = opts.fill()
	keyCounts, densities, poisonPcts, trials := gridShape(opts.Scale)
	root := opts.rng()
	res := RegressionGridResult{Trials: trials}
	for _, n := range keyCounts {
		for _, dens := range densities {
			m := int64(float64(n) / (dens / 100))
			cellRng := root.Split()
			// Draw the `trials` key sets once per (n, density) cell so that
			// poisoning percentages are compared on identical data, as in
			// the paper's plots. Generation stays sequential: the RNG
			// stream must not depend on the worker count.
			sets := make([]keys.Set, trials)
			for t := 0; t < trials; t++ {
				ks, err := dist.generate(cellRng, n, m)
				if err != nil {
					return RegressionGridResult{}, fmt.Errorf("bench: grid n=%d dens=%v trial %d: %w", n, dens, t, err)
				}
				sets[t] = ks
			}
			// Fan the (percentage, trial) attack grid out across the pool;
			// each attack is pure, and results fold back pct-major /
			// trial-minor — the exact sequential iteration order.
			ratios, err := grid(opts, poisonPcts, sets, func(pct float64, ks keys.Set) (float64, error) {
				g, err := core.GreedyMultiPoint(ks, budgetOf(n, pct))
				if err != nil {
					return 0, fmt.Errorf("bench: grid attack n=%d dens=%v pct=%v: %w", n, dens, pct, err)
				}
				return g.RatioLoss(), nil
			})
			if err != nil {
				return RegressionGridResult{}, err
			}
			for pi, pct := range poisonPcts {
				cell := RegressionGridCell{
					Keys:       n,
					DensityPct: dens,
					Domain:     m,
					PoisonPct:  pct,
					Ratios:     ratios[pi*trials : (pi+1)*trials],
				}
				cell.Box = stats.NewBoxplot(cell.Ratios)
				res.Cells = append(res.Cells, cell)
			}
		}
	}
	return res, nil
}

// MaxMedianRatio returns the largest per-cell median ratio in the sweep —
// the headline number ("up to 100× for uniform, up to 8× for normal").
func (r RegressionGridResult) MaxMedianRatio() float64 {
	best := 0.0
	for _, c := range r.Cells {
		if c.Box.Median > best {
			best = c.Box.Median
		}
	}
	return best
}
