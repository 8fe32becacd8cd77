package bench

import (
	"context"
	"fmt"

	"cdfpoison/internal/core"
	"cdfpoison/internal/dataset"
	"cdfpoison/internal/engine"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/xrand"
)

// RealDataset names one of the two Figure 7 workloads.
type RealDataset string

const (
	DatasetSalaries RealDataset = "miami-salaries"
	DatasetOSM      RealDataset = "osm-latitudes"
)

// RealDataResult is the Figure 7 sweep over one real-world (simulated)
// dataset: per-model ratio boxplots for model sizes {50, 100, 200} and
// poisoning percentages {5, 10, 20} at α = 3, plus the dataset's CDF for the
// figure's second row.
type RealDataResult struct {
	Keys    keys.Set
	Density float64
	Cells   []RMICell
	// CDF is the decimated (key, rank) curve for plotting.
	CDFKeys  []float64
	CDFRanks []float64
}

// realDataKeys draws the simulated dataset at the scale-appropriate size.
func realDataKeys(ds RealDataset, s Scale, rng *xrand.RNG) (keys.Set, int64, error) {
	switch ds {
	case DatasetSalaries:
		// Small enough to always run at the paper's full size.
		n := dataset.SalaryCount
		if s == ScaleQuick {
			n = 1000
		}
		ks, err := dataset.MiamiSalariesN(rng, n)
		return ks, dataset.SalaryDomain, err
	case DatasetOSM:
		n := dataset.OSMCount // full paper size by default: the attack cost
		// is driven by model size (≤200), not n, so this stays tractable.
		if s == ScaleQuick {
			n = 8_000
		}
		ks, err := dataset.OSMLatitudesN(rng, n)
		return ks, dataset.OSMDomain, err
	default:
		return keys.Set{}, 0, fmt.Errorf("bench: unknown dataset %q", ds)
	}
}

// RealData runs the Figure 7 sweep for one dataset.
func RealData(ds RealDataset, opts Options) (RealDataResult, error) {
	opts = opts.fill()
	rng := opts.rng()
	ks, domain, err := realDataKeys(ds, opts.Scale, rng)
	if err != nil {
		return RealDataResult{}, err
	}
	res := RealDataResult{
		Keys:    ks,
		Density: ks.Density(domain),
	}
	// Decimate the CDF to ~500 points for plotting.
	step := ks.Len() / 500
	if step < 1 {
		step = 1
	}
	for i := 0; i < ks.Len(); i += step {
		res.CDFKeys = append(res.CDFKeys, float64(ks.At(i)))
		res.CDFRanks = append(res.CDFRanks, float64(i+1))
	}

	modelSizes := []int{50, 100, 200}
	poisonPcts := []float64{5, 10, 20}
	if opts.Scale == ScaleQuick {
		modelSizes = []int{50, 200}
		poisonPcts = []float64{5, 20}
	}
	const alpha = 3.0
	// Fan the (model size, poisoning %) grid out across the pool; cells
	// return in size-major order, matching the sequential sweep.
	type combo struct {
		size int
		pct  float64
	}
	var combos []combo
	for _, size := range modelSizes {
		for _, pct := range poisonPcts {
			combos = append(combos, combo{size: size, pct: pct})
		}
	}
	cells, err := engine.Map(context.Background(), opts.pool(), len(combos), func(i int) (RMICell, error) {
		c := combos[i]
		N := ks.Len() / c.size
		if N < 1 {
			N = 1
		}
		atk, err := core.RMIAttack(ks, core.RMIAttackOptions{
			NumModels: N,
			Percent:   c.pct,
			Alpha:     alpha,
			MaxMoves:  maxMovesFor(opts.Scale, N),
		})
		if err != nil {
			return RMICell{}, fmt.Errorf("bench: fig7 %s size=%d pct=%v: %w", ds, c.size, c.pct, err)
		}
		return newRMICell(Distribution(ds), domain, c.size, c.pct, alpha, atk), nil
	})
	if err != nil {
		return RealDataResult{}, err
	}
	res.Cells = append(res.Cells, cells...)
	return res, nil
}

// MaxRMIRatio returns the largest finite RMI ratio in the sweep (paper:
// between 4× and 24× on real data).
func (r RealDataResult) MaxRMIRatio() float64 {
	best := 0.0
	for _, c := range r.Cells {
		if c.RMIRatio > best {
			best = c.RMIRatio
		}
	}
	return best
}
