package bench

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"cdfpoison/internal/core"
	"cdfpoison/internal/dynamic"
	"cdfpoison/internal/index"
	"cdfpoison/internal/workload"
)

func TestDefenseSweepShape(t *testing.T) {
	res, err := DefenseSweep(Options{Scale: ScaleQuick})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 15 { // 5 scenarios × 3 strengths
		t.Fatalf("want 15 cells, got %d", len(res.Cells))
	}
	wantScenarios := []string{"static", "online", "serve", "churn", "cascade"}
	if got := res.Scenarios(); !reflect.DeepEqual(got, wantScenarios) {
		t.Fatalf("scenarios %v, want %v", got, wantScenarios)
	}
	for _, c := range res.Cells {
		if c.Strength == "off" {
			if c.Spec != "none" {
				t.Fatalf("%s/off cell not inert: spec %q", c.Scenario, c.Spec)
			}
			if c.Reduction != 1 && !math.IsNaN(c.Reduction) {
				t.Fatalf("%s/off reduction %v, want 1", c.Scenario, c.Reduction)
			}
			if c.Overhead != 0 {
				t.Fatalf("%s/off overhead %v, want 0", c.Scenario, c.Overhead)
			}
		} else if c.Spec == "none" {
			t.Fatalf("%s/%s armed cell reads disabled", c.Scenario, c.Strength)
		}
		if c.Excess < 0 {
			t.Fatalf("%s/%s negative excess %v", c.Scenario, c.Strength, c.Excess)
		}
	}
	// Per scenario, at least one cell must sit on the Pareto frontier, and
	// the zero-overhead off cell is undominated unless an armed cell matches
	// its overhead with strictly more reduction.
	for _, s := range wantScenarios {
		any := false
		for _, c := range res.Cells {
			if c.Scenario == s && c.Frontier {
				any = true
			}
		}
		if !any {
			t.Fatalf("scenario %s has an empty Pareto frontier", s)
		}
	}
}

// TestDefenseSweepZeroStrengthGolden: the sweep's "off" cells are the
// UNDEFENDED scenarios, byte for byte — same key sets, same streams, same
// damage, same accounting — pinning that a zero DefenseSpec changes nothing
// about the historical code paths the other figures fingerprint.
func TestDefenseSweepZeroStrengthGolden(t *testing.T) {
	opts := Options{Scale: ScaleQuick}.fill()
	res, err := DefenseSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	off := map[string]DefenseCell{}
	for _, c := range res.Cells {
		if c.Strength == "off" {
			off[c.Scenario] = c
		}
	}

	// Replicate the sweep's generation order: one root RNG, one Split per
	// scenario key set, one for the online arrivals.
	dims := defenseShape(opts.Scale)
	root := opts.rng()
	staticKS, err := DistUniform.generate(root.Split(), dims.staticN, int64(dims.staticN)*40)
	if err != nil {
		t.Fatal(err)
	}
	onlineKS, err := DistUniform.generate(root.Split(), dims.onlineN, int64(dims.onlineN)*40)
	if err != nil {
		t.Fatal(err)
	}
	arrRNG := root.Split()
	arrivals := make([][]int64, dims.onlineEpochs)
	for e := range arrivals {
		for i := 0; i < dims.onlineArrivals; i++ {
			arrivals[e] = append(arrivals[e], arrRNG.Int63n(int64(dims.onlineN)*40))
		}
	}
	serveKS, err := DistUniform.generate(root.Split(), dims.serveN, int64(dims.serveN)*40)
	if err != nil {
		t.Fatal(err)
	}
	churnKS, err := DistUniform.generate(root.Split(), dims.churnN, int64(dims.churnN)*40)
	if err != nil {
		t.Fatal(err)
	}
	cascadeKS, err := DistUniform.generate(root.Split(), dims.cascadeN, int64(dims.cascadeN)*40)
	if err != nil {
		t.Fatal(err)
	}

	sRes, err := core.StaticAttack(staticKS, core.StaticOptions{
		Budget: dims.staticBudget, HonestWrites: dims.staticHonest,
		Domain: staticKS.Max() + 1, Seed: opts.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	oRes, err := core.OnlinePoisonAttack(onlineKS, core.OnlineOptions{
		Epochs: dims.onlineEpochs, EpochBudget: dims.onlineBudget,
		Policy: dynamic.ManualPolicy(), Arrivals: arrivals,
	})
	if err != nil {
		t.Fatal(err)
	}
	vRes, err := core.ServeAttack(serveKS, core.ServeOptions{
		Epochs: dims.serveEpochs, OpsPerEpoch: dims.serveOps,
		EpochBudget: dims.serveBudget, Shards: dims.serveShards,
		Policy: dynamic.ManualPolicy(), Workload: workload.NewZipf(1.1, 90),
		Domain: int64(dims.serveN) * 40, Seed: opts.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	cRes, err := core.ChurnAttack(churnKS, core.ChurnOptions{
		Epochs: dims.churnEpochs, OpsPerEpoch: dims.churnOps,
		EpochBudget: dims.churnBudget, Shards: dims.churnShards,
		Policy: dynamic.BufferLimit(dims.churnBufferK), Workload: workload.NewZipf(1.1, 75),
		Domain: int64(dims.churnN) * 40, Seed: opts.Seed,
		Cost: index.CostModel{Fixed: 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	aRes, err := core.CascadeAttack(cascadeKS, core.CascadeOptions{
		Epochs: dims.cascadeEpochs, OpsPerEpoch: dims.cascadeOps,
		EpochBudget: dims.cascadeBudget, LeafTarget: dims.cascadeLeaf,
		Workload: workload.NewZipf(1.1, 80),
		Domain:   int64(dims.cascadeN) * 40, Seed: opts.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}

	want := map[string]struct {
		damage float64
		report core.DefenseReport
	}{
		"static":  {sRes.RatioLoss, sRes.Defense},
		"online":  {oRes.FinalRatio(), oRes.Defense},
		"serve":   {vRes.FinalRatio(), vRes.Defense},
		"churn":   {core.SafeRatio(float64(cRes.VictimChurn.RebuildTicks), float64(cRes.CleanChurn.RebuildTicks)), cRes.Defense},
		"cascade": {aRes.FinalStructRatio(), aRes.Defense},
	}
	for name, w := range want {
		cell, ok := off[name]
		if !ok {
			t.Fatalf("no off cell for scenario %s", name)
		}
		if cell.Damage != w.damage {
			t.Errorf("%s off-cell damage %v, undefended scenario %v", name, cell.Damage, w.damage)
		}
		if !reflect.DeepEqual(cell.Report, w.report) {
			t.Errorf("%s off-cell report drifted:\n sweep %+v\n direct %+v", name, cell.Report, w.report)
		}
	}
}

// TestDefenseSweepWorkerEquivalence: the Pareto sweep is byte-identical for
// every worker count (the cells fan out, the Pareto pass folds in order).
func TestDefenseSweepWorkerEquivalence(t *testing.T) {
	base, err := DefenseSweep(Options{Scale: ScaleQuick, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, 3, runtime.NumCPU()} {
		got, err := DefenseSweep(Options{Scale: ScaleQuick, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("defense sweep diverged at workers=%d", w)
		}
	}
}

// TestDefenseSweepAcceptance pins the headline claim of the defense plane:
// for EVERY scenario, at least one armed tier buys >= 2x attack-damage
// reduction while blocking <= 20% of the clean twin's honest writes.
func TestDefenseSweepAcceptance(t *testing.T) {
	res, err := DefenseSweep(Options{Scale: ScaleQuick})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Scenarios() {
		best, ok := res.Best(s, 0.2)
		if !ok {
			t.Errorf("scenario %s: no armed cell under the 20%% overhead bar", s)
			continue
		}
		if best.Reduction < 2 {
			t.Errorf("scenario %s: best reduction %v < 2x (spec %s, overhead %v)",
				s, best.Reduction, best.Spec, best.Overhead)
		}
		if best.Report.FlaggedPoison+best.Report.ThrottledPoison == 0 {
			t.Errorf("scenario %s: winning cell never touched the attacker (%+v)", s, best.Report)
		}
	}
}
