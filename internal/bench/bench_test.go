package bench

import (
	"math"
	"testing"
)

func quickOpts() Options { return Options{Scale: ScaleQuick, Seed: 7} }

func TestFig2(t *testing.T) {
	res, err := Fig2(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Keys.Len() != 10 {
		t.Fatalf("keys %d", res.Keys.Len())
	}
	if res.Keys.Contains(res.PoisonKey) {
		t.Fatal("poison key collides")
	}
	if res.After.Loss <= res.Before.Loss {
		t.Fatalf("poisoning did not increase loss: %v -> %v", res.Before.Loss, res.After.Loss)
	}
	if res.Ratio <= 1 {
		t.Fatalf("ratio %v", res.Ratio)
	}
	if res.After.N != 11 || res.Before.N != 10 {
		t.Fatalf("model sizes %d/%d", res.Before.N, res.After.N)
	}
}

func TestFig3(t *testing.T) {
	res, err := Fig3(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sequence) == 0 {
		t.Fatal("empty sequence")
	}
	if len(res.Derivative) != len(res.Sequence)-1 {
		t.Fatalf("derivative %d for sequence %d", len(res.Derivative), len(res.Sequence))
	}
	if res.MaxExcess > 1e-9*(1+res.CleanLoss) {
		t.Fatalf("convexity violated: excess %v", res.MaxExcess)
	}
}

func TestFig4(t *testing.T) {
	res, err := Fig4(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Poison) != 10 {
		t.Fatalf("poison count %d", len(res.Poison))
	}
	// Paper: 7.4×; seeds differ, assert the order of magnitude.
	if res.Ratio < 3 {
		t.Fatalf("fig4 ratio %v < 3", res.Ratio)
	}
	// Clustering diagnostic: poison keys land in wider-than-average gaps?
	// No — the paper's point is they cluster in DENSE areas; assert the
	// diagnostic exists and is positive rather than a specific direction.
	if res.MeanGapWidth <= 0 || res.MeanPoisonGapWidth <= 0 {
		t.Fatalf("gap diagnostics missing: %+v", res)
	}
}

func TestRegressionGridUniform(t *testing.T) {
	res, err := RegressionGrid(DistUniform, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2*3*2 { // keys × densities × poison pcts
		t.Fatalf("cells %d", len(res.Cells))
	}
	for _, c := range res.Cells {
		if len(c.Ratios) != res.Trials {
			t.Fatalf("cell %+v has %d ratios", c, len(c.Ratios))
		}
		if c.Box.Median < 1 {
			t.Errorf("cell keys=%d dens=%v pct=%v: median ratio %v < 1",
				c.Keys, c.DensityPct, c.PoisonPct, c.Box.Median)
		}
	}
	// Shape: at fixed keys/poison, lower density → higher ratio (more room).
	var lo, hi float64
	for _, c := range res.Cells {
		if c.Keys == 400 && c.PoisonPct == 15 {
			switch c.DensityPct {
			case 5:
				lo = c.Box.Median
			case 80:
				hi = c.Box.Median
			}
		}
	}
	if lo <= hi {
		t.Errorf("density shape violated: 5%% density median %v <= 80%% median %v", lo, hi)
	}
	if res.MaxMedianRatio() < 5 {
		t.Errorf("max median ratio %v suspiciously small", res.MaxMedianRatio())
	}
}

func TestRegressionGridNormal(t *testing.T) {
	res, err := RegressionGrid(DistNormal, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Cells {
		if c.Box.Median < 0.99 {
			t.Errorf("normal cell median %v < 1", c.Box.Median)
		}
	}
}

func TestRMISynthetic(t *testing.T) {
	res, err := RMISynthetic(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * 2 * 2 * 2 * 2 // dist × domains × sizes × pcts × alphas
	if len(res.Cells) != want {
		t.Fatalf("cells %d, want %d", len(res.Cells), want)
	}
	for _, c := range res.Cells {
		if c.RMIRatio < 1-1e-9 {
			t.Errorf("cell %s size=%d pct=%v: RMI ratio %v < 1", c.Dist, c.ModelSize, c.PoisonPct, c.RMIRatio)
		}
		if c.Injected == 0 {
			t.Errorf("cell %s size=%d: nothing injected", c.Dist, c.ModelSize)
		}
		if budget := int(math.Round(c.PoisonPct / 100 * float64(res.Keys))); c.Injected > budget {
			t.Errorf("cell injected %d > budget %d", c.Injected, budget)
		}
	}
	// Shape: larger models → larger ratios (fixed dist/domain/pct/alpha).
	var small, large float64
	for _, c := range res.Cells {
		if c.Dist == DistUniform && c.Domain == int64(res.Keys)*100 && c.PoisonPct == 10 && c.Alpha == 3 {
			switch c.ModelSize {
			case 40:
				small = c.RMIRatio
			case 400:
				large = c.RMIRatio
			}
		}
	}
	if large <= small {
		t.Errorf("model-size shape violated: size-400 ratio %v <= size-40 ratio %v", large, small)
	}
}

func TestRealDataSalaries(t *testing.T) {
	res, err := RealData(DatasetSalaries, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 { // quick: 2 sizes × 2 pcts
		t.Fatalf("cells %d", len(res.Cells))
	}
	if res.MaxRMIRatio() < 1.5 {
		t.Errorf("salaries max RMI ratio %v too small", res.MaxRMIRatio())
	}
	if len(res.CDFKeys) == 0 || len(res.CDFKeys) != len(res.CDFRanks) {
		t.Fatal("CDF series missing")
	}
}

func TestRealDataOSM(t *testing.T) {
	res, err := RealData(DatasetOSM, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxRMIRatio() < 1.5 {
		t.Errorf("osm max RMI ratio %v too small", res.MaxRMIRatio())
	}
	if res.Density <= 0 {
		t.Error("density missing")
	}
}

func TestLookupDegradation(t *testing.T) {
	cells, err := LookupDegradation(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("cells %d", len(cells))
	}
	for _, c := range cells {
		if c.PoisonedAvgWindow <= c.CleanAvgWindow {
			t.Errorf("%s: poisoned window %v not wider than clean %v",
				c.Dist, c.PoisonedAvgWindow, c.CleanAvgWindow)
		}
		if c.PoisonedProbes <= 0 || c.CleanProbes <= 0 {
			t.Errorf("%s: probes missing", c.Dist)
		}
		if c.SecondStageMSEGain <= 1 {
			t.Errorf("%s: second-stage MSE gain %v <= 1", c.Dist, c.SecondStageMSEGain)
		}
	}
}

func TestCompareBackends(t *testing.T) {
	cells, err := CompareBackends(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]BackendCell{}
	for _, c := range cells {
		byName[c.Backend] = c
		if c.CleanProbes <= 0 || c.PoisonedProbes <= 0 {
			t.Fatalf("%s: probes missing: %+v", c.Backend, c)
		}
	}
	for _, name := range []string{"dynamic", "rmi-single", "shard-4", "alex", "btree"} {
		if _, ok := byName[name]; !ok {
			t.Fatalf("backend %s missing from the sweep", name)
		}
	}
	// The learned backends pay for the poison; the B-Tree is the control
	// whose probe count barely moves — the comparison the sweep exists for.
	for _, name := range []string{"dynamic", "rmi-single", "shard-4", "alex"} {
		if c := byName[name]; c.ProbeInflation <= 1 {
			t.Errorf("%s: probe inflation %v <= 1 after poisoning", name, c.ProbeInflation)
		}
	}
	if bt := byName["btree"]; bt.ProbeInflation > 1.10 {
		t.Errorf("btree probe inflation %v — balanced control should barely move", bt.ProbeInflation)
	}
	if bt := byName["btree"]; bt.CleanWindow != 0 || bt.Retrains != 0 {
		t.Errorf("btree reports model stats: %+v", bt)
	}
	// Every substrate has a guarded twin, the guard leaves the CLEAN build's
	// probes untouched (detectors only screen inserts), and on the learned
	// backends the screen recovers damage — guarded inflation strictly below
	// bare inflation.
	for _, name := range []string{"dynamic", "rmi-single", "shard-4", "alex", "btree"} {
		g, ok := byName["guarded-"+name]
		if !ok {
			t.Fatalf("guarded twin of %s missing from the sweep", name)
		}
		if g.CleanProbes != byName[name].CleanProbes {
			t.Errorf("guarded-%s clean probes %v != bare %v — a guard must not touch reads",
				name, g.CleanProbes, byName[name].CleanProbes)
		}
		if name != "btree" && g.ProbeInflation >= byName[name].ProbeInflation {
			t.Errorf("guarded-%s inflation %v did not improve on bare %v",
				name, g.ProbeInflation, byName[name].ProbeInflation)
		}
	}
}

func TestTrimDefense(t *testing.T) {
	cells, err := TrimDefense(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3 {
		t.Fatalf("cells %d", len(cells))
	}
	for _, c := range cells {
		if c.AttackRatio <= 1 {
			t.Errorf("pct=%v: attack ratio %v", c.PoisonPct, c.AttackRatio)
		}
		if c.Recall < 0 || c.Recall > 1 || c.Precision < 0 || c.Precision > 1 {
			t.Errorf("pct=%v: bad precision/recall %v/%v", c.PoisonPct, c.Precision, c.Recall)
		}
	}
}

func TestEndpointsVsBrute(t *testing.T) {
	res, err := EndpointsVsBrute(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Agree {
		t.Fatal("endpoint enumeration disagrees with brute force")
	}
	if res.OptCandidates >= res.BruteCandidates {
		t.Fatalf("endpoint candidates %d not fewer than brute %d", res.OptCandidates, res.BruteCandidates)
	}
}

func TestVolumeAllocation(t *testing.T) {
	res, err := VolumeAllocation(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.GreedyRatio < res.UniformRatio*(1-1e-9) {
		t.Fatalf("greedy allocation %v below uniform %v", res.GreedyRatio, res.UniformRatio)
	}
}

func TestAlphaSweep(t *testing.T) {
	cells, err := AlphaSweep(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("cells %d", len(cells))
	}
	for _, c := range cells {
		if math.IsNaN(c.RMIRatio) || c.RMIRatio < 1-1e-9 {
			t.Errorf("alpha=%v ratio %v", c.Alpha, c.RMIRatio)
		}
	}
}

func TestPLAInflation(t *testing.T) {
	cells, err := PLAInflation(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3 {
		t.Fatalf("cells %d", len(cells))
	}
	for _, c := range cells {
		// The burst attack must inflate the segmentation and must beat the
		// loss-optimal attack at the same budget (the non-transferability
		// finding of Extension F).
		if c.BurstInflation <= 1 {
			t.Errorf("eps=%d: burst inflation %v <= 1", c.Epsilon, c.BurstInflation)
		}
		if c.BurstInflation < c.LossInflation {
			t.Errorf("eps=%d: burst (%v) below loss-attack (%v)", c.Epsilon, c.BurstInflation, c.LossInflation)
		}
		if c.BurstBytes <= c.CleanBytes {
			t.Errorf("eps=%d: memory did not grow", c.Epsilon)
		}
	}
	// Larger epsilon → fewer segments.
	if cells[0].CleanSegments <= cells[2].CleanSegments {
		t.Error("epsilon/segments shape violated")
	}
}

func TestQuadraticMitigation(t *testing.T) {
	cell, err := QuadraticMitigation(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if cell.LinearRatio <= 1 {
		t.Fatalf("linear ratio %v", cell.LinearRatio)
	}
	// The finding this experiment pins (supporting the paper's skepticism
	// about model-upgrade mitigations, §VI): even though the attack was
	// optimized against the LINEAR model, the quadratic second stage does
	// not meaningfully resist it — the poison cluster bends the CDF locally,
	// which a parabola absorbs no better than a line, while costing an
	// extra parameter. Assert the attack substantially survives.
	if cell.QuadRatio < 0.5*cell.LinearRatio {
		t.Fatalf("quadratic unexpectedly mitigated the attack (%v vs %v); update EXPERIMENTS.md",
			cell.QuadRatio, cell.LinearRatio)
	}
	// The quadratic does fit the clean data at least as well (it subsumes
	// the linear model).
	if cell.QuadCleanLoss > cell.LinearCleanLoss*(1+1e-9) {
		t.Fatalf("quad clean loss %v above linear %v", cell.QuadCleanLoss, cell.LinearCleanLoss)
	}
	if cell.ParamsQuad != 3 || cell.ParamsLinear != 2 {
		t.Fatal("parameter accounting")
	}
}

func TestAdversaryComparison(t *testing.T) {
	cell, err := AdversaryComparison(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]float64{
		"insertion": cell.InsertionRatio,
		"removal":   cell.RemovalRatio,
		"modify":    cell.ModifyRatio,
	} {
		if r < 1 {
			t.Errorf("%s ratio %v < 1", name, r)
		}
	}
	// Modification subsumes removal+insertion per step and empirically
	// dominates pure insertion at equal budget.
	if cell.ModifyRatio < cell.InsertionRatio {
		t.Errorf("modification (%v) weaker than insertion (%v)", cell.ModifyRatio, cell.InsertionRatio)
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Fig4(Options{Scale: ScaleQuick, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig4(Options{Scale: ScaleQuick, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.Ratio != b.Ratio || !a.Poisoned.Equal(b.Poisoned) {
		t.Fatal("Fig4 not deterministic")
	}
	c, err := Fig4(Options{Scale: ScaleQuick, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if c.Poisoned.Equal(a.Poisoned) {
		t.Fatal("different seeds produced identical data")
	}
}
