package bench

import (
	"fmt"
	"math"

	"cdfpoison/internal/core"
	"cdfpoison/internal/stats"
)

// RMICell is one boxplot group of Figure 6: a fixed (distribution, domain,
// model size, poisoning %, alpha) configuration of the two-stage RMI attack.
type RMICell struct {
	Dist      Distribution
	Domain    int64
	ModelSize int
	NumModels int
	PoisonPct float64
	Alpha     float64

	// PerModelRatios feed the boxplot; RMIRatio is the black horizontal
	// line (poisoned L_RMI over clean L_RMI).
	PerModelRatios []float64
	Box            stats.Boxplot
	RMIRatio       float64
	MaxModelRatio  float64 // headline: individual second-stage model, up to 3000×
	Moves          int
	Injected       int
}

// RMISyntheticResult is the Figure 6 sweep.
type RMISyntheticResult struct {
	Keys  int
	Cells []RMICell
}

// rmiShape returns (n, model sizes, domain multipliers, poisoning
// percentages, alphas) per scale. Domain multipliers ×5 and ×100 mirror the
// paper's 5·10⁷ and 10⁹ domains for n=10⁷ keys (20% and 1% density).
func rmiShape(s Scale) (n int, modelSizes []int, domainMults []int64, poisonPcts []float64, alphas []float64) {
	switch s {
	case ScaleQuick:
		return 4_000, []int{40, 400}, []int64{5, 100}, []float64{5, 10}, []float64{2, 3}
	case ScaleLarge:
		return 100_000, []int{100, 1000, 10000}, []int64{5, 100}, []float64{1, 5, 10}, []float64{2, 3}
	default:
		return 30_000, []int{100, 1000, 10000}, []int64{5, 100}, []float64{1, 5, 10}, []float64{2, 3}
	}
}

// RMISynthetic runs the Figure 6 sweep: Algorithm 2 against uniform and
// log-normal(0, 2) key sets across RMI architectures (many small models →
// few large models), poisoning percentages, and per-model thresholds α.
func RMISynthetic(opts Options) (RMISyntheticResult, error) {
	opts = opts.fill()
	n, modelSizes, domainMults, poisonPcts, alphas := rmiShape(opts.Scale)
	type pctAlpha struct{ pct, alpha float64 }
	var pas []pctAlpha
	for _, pct := range poisonPcts {
		for _, alpha := range alphas {
			pas = append(pas, pctAlpha{pct, alpha})
		}
	}
	root := opts.rng()
	res := RMISyntheticResult{Keys: n}
	for _, dist := range []Distribution{DistUniform, DistLogNormal} {
		for _, mult := range domainMults {
			m := int64(n) * mult
			cellRng := root.Split()
			ks, err := dist.generate(cellRng, n, m)
			if err != nil {
				return RMISyntheticResult{}, fmt.Errorf("bench: fig6 %s domain=%d: %w", dist, m, err)
			}
			// Every (model size, (poisoning %, alpha)) attack on this
			// dataset is independent; cells come back size-major, the
			// sequential iteration order.
			cells, err := grid(opts, modelSizes, pas, func(size int, c pctAlpha) (RMICell, error) {
				N := max(n/size, 1)
				atk, err := core.RMIAttack(ks, core.RMIAttackOptions{
					NumModels: N,
					Percent:   c.pct,
					Alpha:     c.alpha,
					MaxMoves:  maxMovesFor(opts.Scale, N),
				})
				if err != nil {
					return RMICell{}, fmt.Errorf("bench: fig6 attack %s size=%d pct=%v α=%v: %w", dist, size, c.pct, c.alpha, err)
				}
				return newRMICell(dist, m, size, c.pct, c.alpha, atk), nil
			})
			if err != nil {
				return RMISyntheticResult{}, err
			}
			res.Cells = append(res.Cells, cells...)
		}
	}
	return res, nil
}

// maxMovesFor bounds the exchange phase so single-core sweeps stay tractable
// (each move costs two greedy re-attacks on ~model-size keys).
func maxMovesFor(s Scale, numModels int) int {
	cap := 2 * numModels
	var lid int
	switch s {
	case ScaleQuick:
		lid = 16
	case ScaleLarge:
		lid = 60
	default:
		lid = 30
	}
	if cap > lid {
		cap = lid
	}
	if cap < 1 {
		cap = 1
	}
	return cap
}

func newRMICell(dist Distribution, m int64, size int, pct, alpha float64, atk core.RMIAttackResult) RMICell {
	cell := RMICell{
		Dist:      dist,
		Domain:    m,
		ModelSize: size,
		NumModels: len(atk.Models),
		PoisonPct: pct,
		Alpha:     alpha,
		RMIRatio:  atk.RMIRatio(),
		Moves:     atk.Moves,
		Injected:  atk.Injected,
	}
	cell.PerModelRatios = atk.PerModelRatios()
	for _, r := range cell.PerModelRatios {
		if r > cell.MaxModelRatio && !math.IsInf(r, 0) {
			cell.MaxModelRatio = r
		}
	}
	if len(cell.PerModelRatios) > 0 {
		cell.Box = stats.NewBoxplot(cell.PerModelRatios)
	}
	return cell
}

// MaxRMIRatio returns the largest RMI-level ratio across cells, optionally
// filtered by distribution ("" = all) — the headline "up to 300×" number.
func (r RMISyntheticResult) MaxRMIRatio(dist Distribution) float64 {
	best := 0.0
	for _, c := range r.Cells {
		if dist != "" && c.Dist != dist {
			continue
		}
		if !math.IsInf(c.RMIRatio, 0) && c.RMIRatio > best {
			best = c.RMIRatio
		}
	}
	return best
}

// MaxModelRatioOverall returns the largest finite per-model ratio across
// cells — the headline "individual model error up to 3000×" number.
func (r RMISyntheticResult) MaxModelRatioOverall(dist Distribution) float64 {
	best := 0.0
	for _, c := range r.Cells {
		if dist != "" && c.Dist != dist {
			continue
		}
		if c.MaxModelRatio > best {
			best = c.MaxModelRatio
		}
	}
	return best
}
