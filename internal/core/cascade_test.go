package core

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"cdfpoison/internal/workload"
)

func cascadeOpts() CascadeOptions {
	return CascadeOptions{
		Epochs:      4,
		OpsPerEpoch: 120,
		EpochBudget: 30,
		LeafTarget:  16,
		Workload:    workload.NewZipf(1.1, 80),
		Seed:        7,
	}
}

func TestCascadeValidation(t *testing.T) {
	initial := serveFixture(t, 200)
	base := cascadeOpts()
	for name, mutate := range map[string]func(*CascadeOptions){
		"no-epochs":        func(o *CascadeOptions) { o.Epochs = 0 },
		"negative-ops":     func(o *CascadeOptions) { o.OpsPerEpoch = -1 },
		"negative-budget":  func(o *CascadeOptions) { o.EpochBudget = -1 },
		"negative-target":  func(o *CascadeOptions) { o.LeafTarget = -1 },
		"one-slot-target":  func(o *CascadeOptions) { o.LeafTarget = 1 },
		"bad-workload":     func(o *CascadeOptions) { o.Workload = workload.NewZipf(-1, 90) },
		"bad-workload-mix": func(o *CascadeOptions) { o.Workload = workload.NewUniform(101) },
	} {
		opts := base
		mutate(&opts)
		if _, err := CascadeAttack(initial, opts); err == nil {
			t.Errorf("%s: invalid options accepted", name)
		}
	}
}

// TestCascadeTrajectory: the scenario's basic shape — the attacker's drip
// lands in the densest leaf, structural cost accrues beyond the clean
// counterfactual, splits fire, and the damage accounting is self-consistent.
func TestCascadeTrajectory(t *testing.T) {
	initial := serveFixture(t, 500)
	opts := cascadeOpts()
	res, err := CascadeAttack(initial, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != opts.Epochs {
		t.Fatalf("shape: %d epochs", len(res.Epochs))
	}
	for i, e := range res.Epochs {
		if e.Epoch != i+1 {
			t.Fatalf("epoch %d numbered %d", i, e.Epoch)
		}
		if e.Reads+e.Writes != opts.OpsPerEpoch {
			t.Fatalf("epoch %d: %d reads + %d writes != %d ops", e.Epoch, e.Reads, e.Writes, opts.OpsPerEpoch)
		}
		if e.Injected < 0 || e.Injected > opts.EpochBudget {
			t.Fatalf("epoch %d: injected %d (budget %d)", e.Epoch, e.Injected, opts.EpochBudget)
		}
		if e.TargetNode < 0 || e.TargetNode >= e.Nodes {
			t.Fatalf("epoch %d: target node %d of %d", e.Epoch, e.TargetNode, e.Nodes)
		}
		if e.TargetDensity <= 0 || e.TargetDensity > 1 {
			t.Fatalf("epoch %d: target density %v", e.Epoch, e.TargetDensity)
		}
		if e.StructCost < e.ShiftWrites {
			t.Fatalf("epoch %d: struct cost %d below shift writes %d", e.Epoch, e.StructCost, e.ShiftWrites)
		}
		if e.Reads > 0 && (e.CleanProbes <= 0 || e.PoisonedProbes <= 0) {
			t.Fatalf("epoch %d: probe means missing", e.Epoch)
		}
	}
	last := res.Epochs[len(res.Epochs)-1]
	// The attacker's whole point: structural maintenance beyond what honest
	// traffic alone causes.
	if last.PoisonTotal == 0 {
		t.Fatal("no poison ever accepted")
	}
	if res.Poison.Len() != last.PoisonTotal {
		t.Fatalf("poison set %d != cumulative total %d", res.Poison.Len(), last.PoisonTotal)
	}
	if last.Splits == 0 {
		t.Fatal("no victim split was ever forced")
	}
	if res.VictimStruct.Cost() <= res.CleanStruct.Cost() {
		t.Fatalf("victim structural cost %d not above clean %d",
			res.VictimStruct.Cost(), res.CleanStruct.Cost())
	}
	if res.FinalStructRatio() <= 1 {
		t.Fatalf("final struct ratio %v not above 1", res.FinalStructRatio())
	}
	damage := 0.0
	for _, e := range res.Epochs {
		damage += e.DamageScore
	}
	if damage <= 0 {
		t.Fatal("no structural damage accrued")
	}
}

// TestCascadeSuperLinearDamage: the headline super-linearity — the victim's
// structural-cost ratio over the clean counterfactual GROWS with the
// attacker's budget (denser leaves pay longer shifts, splits multiply, and
// the fanout cascade lands), rather than saturating at a fixed overhead.
func TestCascadeSuperLinearDamage(t *testing.T) {
	initial := serveFixture(t, 150)
	run := func(budget int) CascadeResult {
		t.Helper()
		opts := cascadeOpts()
		opts.LeafTarget = 8
		opts.EpochBudget = budget
		res, err := CascadeAttack(initial, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	budgets := []int{15, 30, 60, 120}
	ratios := make([]float64, len(budgets))
	for i, b := range budgets {
		res := run(b)
		ratios[i] = res.FinalStructRatio()
		if i > 0 && ratios[i] <= ratios[i-1] {
			t.Fatalf("struct ratio not growing with budget: %v at budgets %v", ratios[:i+1], budgets[:i+1])
		}
	}
	// 8× the budget must push the cost ratio well past a constant overhead.
	if ratios[len(ratios)-1] < 2*ratios[0] {
		t.Fatalf("damage ratio saturates: %v across budgets %v", ratios, budgets)
	}
	// At the top budget a fanout cascade (full rebuild) must have landed —
	// that is the mechanism that makes marginal poison keys super-linear.
	if top := run(budgets[len(budgets)-1]); top.VictimStruct.Cascades <= top.CleanStruct.Cascades {
		t.Fatalf("no attacker-caused cascade at budget %d: victim %d, clean %d",
			budgets[len(budgets)-1], top.VictimStruct.Cascades, top.CleanStruct.Cascades)
	}
}

// TestCascadeZeroBudgetMatchesClean: without poison the victim IS the clean
// counterfactual — every ratio pins to 1 and no poison set accrues.
func TestCascadeZeroBudgetMatchesClean(t *testing.T) {
	initial := serveFixture(t, 300)
	opts := cascadeOpts()
	opts.EpochBudget = 0
	res, err := CascadeAttack(initial, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Poison.Len() != 0 {
		t.Fatalf("poison accrued with zero budget: %d", res.Poison.Len())
	}
	if res.VictimStruct != res.CleanStruct {
		t.Fatalf("structural divergence without poison: %+v vs %+v",
			res.VictimStruct, res.CleanStruct)
	}
	for _, e := range res.Epochs {
		if e.StructRatio != 1 || e.ProbeRatio != 1 {
			t.Fatalf("epoch %d: ratios %v/%v without poison", e.Epoch, e.StructRatio, e.ProbeRatio)
		}
	}
}

// TestCascadeWorkerEquivalence: scenario-level byte-identity across worker
// counts — parallelism reaches only the oracle's candidate pricing, which
// folds in deterministic task order.
func TestCascadeWorkerEquivalence(t *testing.T) {
	initial := serveFixture(t, 400)
	opts := cascadeOpts()
	seq, err := CascadeAttack(initial, opts, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, runtime.NumCPU()} {
		par, err := CascadeAttack(initial, opts, WithWorkers(w))
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("workers=%d diverges from sequential", w)
		}
	}
}

func TestCascadeCancellation(t *testing.T) {
	initial := serveFixture(t, 400)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CascadeAttack(initial, cascadeOpts(), WithContext(ctx)); err == nil {
		t.Fatal("cancelled cascade attack returned nil error")
	}
}

// TestCascadeStress is the CI -race -count=3 cell: a larger scenario run at
// full parallelism, re-checked for worker equivalence under the race
// detector. Kept separate from TestCascadeWorkerEquivalence so the CI
// serve-stress step can select it by name.
func TestCascadeStress(t *testing.T) {
	initial := serveFixture(t, 800)
	opts := cascadeOpts()
	opts.Epochs = 5
	opts.OpsPerEpoch = 200
	opts.EpochBudget = 40
	seq, err := CascadeAttack(initial, opts, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := CascadeAttack(initial, opts, WithWorkers(runtime.NumCPU()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("stress run diverges across worker counts")
	}
	if par.VictimStruct.Cost() <= par.CleanStruct.Cost() {
		t.Fatal("stress run caused no structural damage")
	}
}
