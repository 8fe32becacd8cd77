package core

import (
	"reflect"
	"testing"

	"cdfpoison/internal/defense"
	"cdfpoison/internal/dynamic"
	"cdfpoison/internal/index"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/robust"
	"cdfpoison/internal/workload"
)

// densityChain is the test's workhorse detector chain: the density screen
// plus the dup-mass screen, the two the greedy oracle's clustered poison
// cannot avoid.
func densityChain(t *testing.T) []defense.Policy {
	t.Helper()
	ps, err := defense.ParsePolicyChain("density:8:3|dupmass:3:3")
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

func TestDefenseSpecEnabled(t *testing.T) {
	if (DefenseSpec{}).Enabled() {
		t.Fatal("zero spec reports enabled")
	}
	for name, spec := range map[string]DefenseSpec{
		"policies": {Policies: []defense.Policy{defense.DensityPolicy{Window: 8, Ratio: 4}}},
		"fitter":   {Fitter: robust.TheilSen{}},
		"rate":     {RateBudget: 2, RateWindow: 10},
		"balanced": {BalancedSplit: true},
	} {
		if !spec.Enabled() {
			t.Errorf("%s: armed spec reports disabled", name)
		}
	}
	// Sources alone is attribution, not a defense.
	if (DefenseSpec{Sources: 8}).Enabled() {
		t.Fatal("sources-only spec reports enabled")
	}
	// A half-armed rate limit (budget without window) stays off.
	if (DefenseSpec{RateBudget: 2}).Enabled() {
		t.Fatal("budget without window reports enabled")
	}
}

// staticTestOpts keeps honest writes inside the initial key range (Domain =
// max+1): out-of-range writes stretch both twins' CDFs and drown the attack
// signal in shared honest loss.
func staticTestOpts(initial keys.Set) StaticOptions {
	return StaticOptions{Budget: 30, HonestWrites: 120, Domain: initial.Max() + 1, Seed: 9}
}

func TestStaticValidation(t *testing.T) {
	initial := serveFixture(t, 100)
	for name, mutate := range map[string]func(*StaticOptions){
		"negative-budget": func(o *StaticOptions) { o.Budget = -1 },
		"negative-honest": func(o *StaticOptions) { o.HonestWrites = -1 },
	} {
		opts := staticTestOpts(initial)
		mutate(&opts)
		if _, err := StaticAttack(initial, opts); err == nil {
			t.Errorf("%s: invalid options accepted", name)
		}
	}
	if _, err := StaticAttack(serveFixture(t, 1), staticTestOpts(initial)); err == nil {
		t.Error("single-key initial set accepted")
	}
}

// TestStaticTrajectory: the one-shot attack through the (undefended) write
// path damages the victim's model well beyond the clean twin.
func TestStaticTrajectory(t *testing.T) {
	initial := serveFixture(t, 300)
	res, err := StaticAttack(initial, staticTestOpts(initial))
	if err != nil {
		t.Fatal(err)
	}
	if res.Poison.Len() == 0 {
		t.Fatal("no poison accepted")
	}
	if res.RatioLoss <= 1.5 {
		t.Fatalf("static attack barely moved the loss: ratio %v", res.RatioLoss)
	}
	if res.Defense.PoisonAttempts != 30 || res.Defense.CleanAttempts != 120 {
		t.Fatalf("attempt accounting off: poison %d honest %d",
			res.Defense.PoisonAttempts, res.Defense.CleanAttempts)
	}
	// Zero budget: no poison, ratio pinned to 1 (identical twins).
	quiet := staticTestOpts(initial)
	quiet.Budget = 0
	qres, err := StaticAttack(initial, quiet)
	if err != nil {
		t.Fatal(err)
	}
	if qres.RatioLoss != 1 || qres.Poison.Len() != 0 {
		t.Fatalf("zero-budget scenario not clean: ratio %v injected %d", qres.RatioLoss, qres.Poison.Len())
	}
}

// TestStaticGuardDefense: the detector chain prices the greedy poison out
// of the static scenario — damage collapses while the honest stream passes
// nearly untouched (the acceptance shape bench.DefenseSweep reports).
func TestStaticGuardDefense(t *testing.T) {
	initial := serveFixture(t, 300)
	bare, err := StaticAttack(initial, staticTestOpts(initial))
	if err != nil {
		t.Fatal(err)
	}
	armed := staticTestOpts(initial)
	armed.Defense = DefenseSpec{Policies: densityChain(t)}
	got, err := StaticAttack(initial, armed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Defense.FlaggedPoison == 0 {
		t.Fatalf("guard saw no poison: %+v", got.Defense)
	}
	if got.RatioLoss*2 > bare.RatioLoss {
		t.Fatalf("guard bought < 2x damage reduction: %v -> %v", bare.RatioLoss, got.RatioLoss)
	}
	if frac := got.Defense.HonestBlockedFrac(); frac > 0.2 {
		t.Fatalf("guard blocked %v of honest traffic", frac)
	}
}

// TestDefenseSourceTaggingInert: arming source attribution alone (no
// limiter, no guard) must not move a single byte of any scenario column —
// the workload keeps its RNG draw order and the write path is a
// passthrough. Serve stands in for all generator-driven scenarios.
func TestDefenseSourceTaggingInert(t *testing.T) {
	initial := serveFixture(t, 240)
	opts := ServeOptions{
		Epochs:      3,
		OpsPerEpoch: 60,
		EpochBudget: 6,
		Shards:      4,
		Policy:      dynamic.ManualPolicy(),
		Workload:    workload.NewZipf(1.1, 85),
		Seed:        11,
	}
	plain, err := ServeAttack(initial, opts)
	if err != nil {
		t.Fatal(err)
	}
	tagged := opts
	tagged.Defense = DefenseSpec{Sources: 8}
	got, err := ServeAttack(initial, tagged)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, got) {
		t.Fatal("source attribution alone changed the serve scenario result")
	}
}

// TestChurnGuardDefense: the detector chain under the churn scenario — the
// drip's clustered keys are flagged before they reach the target shard's
// buffer, so the attacker buys fewer rebuilds and less staleness.
func TestChurnGuardDefense(t *testing.T) {
	initial := serveFixture(t, 400)
	opts := churnOpts()
	bare, err := ChurnAttack(initial, opts)
	if err != nil {
		t.Fatal(err)
	}
	armed := opts
	armed.Defense = DefenseSpec{Policies: densityChain(t)}
	got, err := ChurnAttack(initial, armed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Defense.FlaggedPoison == 0 {
		t.Fatalf("guard flagged no churn poison: %+v", got.Defense)
	}
	if got.Poison.Len() >= bare.Poison.Len() {
		t.Fatalf("guard let %d poison keys through, bare took %d", got.Poison.Len(), bare.Poison.Len())
	}
	if got.VictimChurn.RebuildTicks >= bare.VictimChurn.RebuildTicks {
		t.Fatalf("guard bought no rebuild work back: %d vs %d ticks",
			got.VictimChurn.RebuildTicks, bare.VictimChurn.RebuildTicks)
	}
	if frac := got.Defense.HonestBlockedFrac(); frac > 0.2 {
		t.Fatalf("guard blocked %v of honest churn traffic", frac)
	}
}

// TestCascadeRateLimitRegression: a per-source write budget throttles the
// cascade drip — the attacker's one source burns its budget, honest sources
// spread round-robin stay under theirs — so the victim's structural-cost
// ratio drops while the clean twin's columns stay byte-identical to the
// undefended run (no honest write was ever refused).
func TestCascadeRateLimitRegression(t *testing.T) {
	initial := serveFixture(t, 200)
	opts := cascadeOpts()
	bare, err := CascadeAttack(initial, opts)
	if err != nil {
		t.Fatal(err)
	}
	armed := opts
	armed.Defense = DefenseSpec{RateBudget: 2, RateWindow: 40, Sources: 16}
	got, err := CascadeAttack(initial, armed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Defense.ThrottledPoison == 0 {
		t.Fatalf("limiter never throttled the drip: %+v", got.Defense)
	}
	if got.Defense.CleanThrottled != 0 || got.Defense.ThrottledHonest != 0 {
		t.Fatalf("limiter hit honest traffic: %+v", got.Defense)
	}
	if got.FinalStructRatio() >= bare.FinalStructRatio() {
		t.Fatalf("rate limit did not drop the struct-cost ratio: %v vs %v",
			got.FinalStructRatio(), bare.FinalStructRatio())
	}
	// Clean-twin byte-identity: the limiter refused nothing on the clean
	// side, so every Clean* column matches the undefended run exactly.
	if got.CleanStruct != bare.CleanStruct {
		t.Fatalf("clean twin structural accounting drifted: %+v vs %+v", got.CleanStruct, bare.CleanStruct)
	}
	for i := range bare.Epochs {
		b, g := bare.Epochs[i], got.Epochs[i]
		if b.CleanShiftWrites != g.CleanShiftWrites || b.CleanSplits != g.CleanSplits ||
			b.CleanCascades != g.CleanCascades || b.CleanNodes != g.CleanNodes ||
			b.CleanStructCost != g.CleanStructCost || b.CleanProbeTotal != g.CleanProbeTotal ||
			b.CleanLoss != g.CleanLoss {
			t.Fatalf("epoch %d clean columns drifted under rate limiting", i+1)
		}
	}
}

// TestCascadeBalancedSplitDefense: the density-balancing split policy alone
// (structure-level hardening, no screening) reduces the attacker's
// structural leverage.
func TestCascadeBalancedSplitDefense(t *testing.T) {
	initial := serveFixture(t, 200)
	opts := cascadeOpts()
	bare, err := CascadeAttack(initial, opts)
	if err != nil {
		t.Fatal(err)
	}
	armed := opts
	armed.Defense = DefenseSpec{BalancedSplit: true}
	got, err := CascadeAttack(initial, armed)
	if err != nil {
		t.Fatal(err)
	}
	if got.FinalStructRatio() >= bare.FinalStructRatio() {
		t.Fatalf("balanced split did not reduce the struct-cost ratio: %v vs %v",
			got.FinalStructRatio(), bare.FinalStructRatio())
	}
}

// TestStaticWorkerEquivalence is the undefended static scenario's
// determinism contract: the whole result — poison set, losses, probe means,
// attempt accounting — is identical for every worker count.
func TestStaticWorkerEquivalence(t *testing.T) {
	initial := serveFixture(t, 300)
	opts := staticTestOpts(initial)
	want, err := StaticAttack(initial, opts, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if want.Poison.Len() == 0 {
		t.Fatal("no poison accepted; the fixture lost its point")
	}
	for _, w := range []int{0, 3} {
		got, err := StaticAttack(initial, opts, WithWorkers(w))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("static scenario diverged at workers=%d\n got: %+v\nwant: %+v", w, got, want)
		}
	}
}

// TestDefendedWorkerEquivalence: the fully armed defense plane — detector
// chain, rate limiter, robust fitter, source attribution — stays
// byte-identical across worker counts, accounting included.
func TestDefendedWorkerEquivalence(t *testing.T) {
	initial := serveFixture(t, 300)
	spec := DefenseSpec{
		Policies:   densityChain(t),
		Fitter:     robust.Trimmed{Pct: 10},
		RateBudget: 2, RateWindow: 20,
		Sources: 8,
	}
	sOpts := staticTestOpts(initial)
	sOpts.Defense = spec
	base, err := StaticAttack(initial, sOpts, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, 3} {
		got, err := StaticAttack(initial, sOpts, WithWorkers(w))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("defended static scenario diverged at workers=%d", w)
		}
	}

	vOpts := ServeOptions{
		Epochs:      2,
		OpsPerEpoch: 50,
		EpochBudget: 8,
		Shards:      4,
		Policy:      dynamic.ManualPolicy(),
		Workload:    workload.NewZipf(1.1, 85),
		Seed:        13,
		RebuildCost: index.CostModel{Fixed: 10},
		Defense:     spec,
	}
	sBase, err := ServeAttack(initial, vOpts, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	sGot, err := ServeAttack(initial, vOpts, WithWorkers(0))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sBase, sGot) {
		t.Fatal("defended serve scenario diverged across worker counts")
	}
}

// TestDefendedDeterminism: two identical defended runs produce identical
// results — the limiter, guard caches, and fitters share the scenarios'
// no-hidden-state contract.
func TestDefendedDeterminism(t *testing.T) {
	initial := serveFixture(t, 240)
	opts := churnOpts()
	opts.Defense = DefenseSpec{
		Policies:   densityChain(t),
		Fitter:     robust.TheilSen{},
		RateBudget: 3, RateWindow: 30,
		Sources: 8,
	}
	a, err := ChurnAttack(initial, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ChurnAttack(initial, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("defended churn scenario not deterministic")
	}
}
