package defense_test

import (
	"testing"

	"cdfpoison/internal/core"
	"cdfpoison/internal/dataset"
	"cdfpoison/internal/defense"
	"cdfpoison/internal/dynamic"
	"cdfpoison/internal/index"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/xrand"
)

// TestGuardDelegatesReads: the guard is a transparent index.Backend on the
// read side — lookups, stats, and probe sums are the inner backend's.
func TestGuardDelegatesReads(t *testing.T) {
	ks, err := dataset.Uniform(xrand.New(17), 300, 15_000)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := dynamic.New(ks, dynamic.ManualPolicy())
	if err != nil {
		t.Fatal(err)
	}
	var b index.Backend = defense.NewGuard(inner, defense.GuardOptions{})
	if b.Len() != inner.Len() {
		t.Fatal("Len diverged")
	}
	for i := 0; i < ks.Len(); i += 7 {
		if b.Lookup(ks.At(i)) != inner.Lookup(ks.At(i)) {
			t.Fatalf("Lookup(%d) diverged", ks.At(i))
		}
	}
	gp, gm := b.ProbeSum(ks.Keys())
	ip, im := inner.ProbeSum(ks.Keys())
	if gp != ip || gm != im {
		t.Fatal("ProbeSum diverged")
	}
	if b.Stats() != inner.Stats() {
		t.Fatal("Stats diverged")
	}
}

// TestGuardScreensDensePoison: the greedy attack piles poison into dense
// regions, so the density guard must flag a meaningful share of an optimal
// poison set — and the guarded index must end up with strictly less model
// damage than an unguarded twin fed the same keys — while spread-out
// honest arrivals mostly pass.
func TestGuardScreensDensePoison(t *testing.T) {
	ks, err := dataset.Uniform(xrand.New(23), 400, 16_000)
	if err != nil {
		t.Fatal(err)
	}
	atk, err := core.GreedyMultiPoint(ks, 40)
	if err != nil {
		t.Fatal(err)
	}

	unguarded, err := dynamic.New(ks, dynamic.ManualPolicy())
	if err != nil {
		t.Fatal(err)
	}
	inner, err := dynamic.New(ks, dynamic.ManualPolicy())
	if err != nil {
		t.Fatal(err)
	}
	guarded := defense.NewGuard(inner, defense.GuardOptions{Policies: []defense.Policy{defense.DensityPolicy{Window: 8, Ratio: 3}}})

	acceptedPlain, acceptedGuarded := 0, 0
	for _, k := range atk.Poison {
		if ok, _ := unguarded.Insert(k); ok {
			acceptedPlain++
		}
		if ok, _ := guarded.Insert(k); ok {
			acceptedGuarded++
		}
	}
	unguarded.Retrain()
	guarded.Retrain()
	if guarded.Flagged() == 0 {
		t.Fatal("guard flagged nothing from an optimal poison set")
	}
	if acceptedGuarded >= acceptedPlain {
		t.Fatalf("guard accepted %d of %d poison keys, unguarded %d",
			acceptedGuarded, len(atk.Poison), acceptedPlain)
	}
	if gl, ul := guarded.Stats().ContentLoss, unguarded.Stats().ContentLoss; gl >= ul {
		t.Fatalf("guarded loss %v >= unguarded %v — screening bought nothing", gl, ul)
	}

	// Honest arrivals spread across the domain mostly pass the screen.
	passed, offered := 0, 0
	rng := xrand.New(99)
	for i := 0; i < 100; i++ {
		k := rng.Int63n(16_000)
		if guarded.Keys().Contains(k) {
			continue
		}
		offered++
		if ok, _ := guarded.Insert(k); ok {
			passed++
		}
	}
	if offered == 0 || float64(passed)/float64(offered) < 0.5 {
		t.Fatalf("guard rejected honest traffic: %d/%d passed", passed, offered)
	}
}

// TestGuardFlaggedCumulative: the rejected-insert count survives Retrain
// and keeps accumulating — the accounting contract the defense reports
// read.
func TestGuardFlaggedCumulative(t *testing.T) {
	ks, err := dataset.Uniform(xrand.New(41), 300, 12_000)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := dynamic.New(ks, dynamic.ManualPolicy())
	if err != nil {
		t.Fatal(err)
	}
	g := defense.NewGuard(inner, defense.GuardOptions{Policies: []defense.Policy{defense.DensityPolicy{Window: 8, Ratio: 3}}})
	atk, err := core.GreedyMultiPoint(ks, 30)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range atk.Poison {
		g.Insert(k)
	}
	if g.Flagged() == 0 {
		t.Fatal("no rejects to account for — fixture too weak")
	}
	before := g.Flagged()
	g.Retrain()
	if got := g.Flagged(); got != before {
		t.Fatalf("Retrain reset Flagged: %d -> %d (must be cumulative)", before, got)
	}
	// A second retrain round with more rejects keeps accumulating.
	for _, k := range atk.Poison {
		g.Insert(k + 1)
	}
	g.Retrain()
	if got := g.Flagged(); got < before {
		t.Fatalf("Flagged went backwards across retrains: %d -> %d", before, got)
	}
}

// TestGuardPolicyChain: a guard built with an explicit multi-detector chain
// ORs the policies — a key any detector flags is rejected, mid-gap honest
// keys pass — and an explicit empty chain screens nothing.
func TestGuardPolicyChain(t *testing.T) {
	base := make([]int64, 100)
	for i := range base {
		base[i] = int64(i+1) * 100
	}
	ks, err := keys.New(base)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(ps []defense.Policy) *defense.Guard {
		inner, err := dynamic.New(ks, dynamic.ManualPolicy())
		if err != nil {
			t.Fatal(err)
		}
		return defense.NewGuard(inner, defense.GuardOptions{Policies: ps})
	}

	g := mk([]defense.Policy{
		defense.DupMassPolicy{Window: 3, Count: 3},
		defense.GapOutlierPolicy{Ratio: 8},
	})
	// Gap-edge key: dupmass abstains, gapout flags it.
	if ok, _ := g.Insert(5001); ok {
		t.Fatal("gap-edge key passed a chain containing gapout")
	}
	// Mid-gap key passes both detectors.
	if ok, _ := g.Insert(5050); !ok {
		t.Fatal("mid-gap honest key rejected by the chain")
	}
	// Keys adjacent to the just-accepted 5050 are gap-edge relative to it,
	// so the chain (via gapout) prices up an attacker trying to grow an
	// adjacent run — each attempt is one more reject, OR semantics.
	for _, k := range []int64{5051, 5052, 5053} {
		if ok, _ := g.Insert(k); ok {
			t.Fatalf("adjacent-run key %d passed the chain", k)
		}
	}
	if g.Flagged() != 4 {
		t.Fatalf("Flagged = %d, want 4", g.Flagged())
	}

	// Explicit empty (non-nil) chain: everything passes, nothing is flagged.
	open := mk([]defense.Policy{})
	for _, k := range []int64{5001, 5050, 5051, 5052, 5053} {
		if ok, _ := open.Insert(k); !ok {
			t.Fatalf("empty chain rejected %d", k)
		}
	}
	if open.Flagged() != 0 {
		t.Fatalf("empty chain flagged %d inserts", open.Flagged())
	}
}

// TestGuardUnderOnlineScenario: the guard rides core.OnlinePoisonAttack
// through its defense spec and must reduce the attack's final damage
// relative to the bare index.
func TestGuardUnderOnlineScenario(t *testing.T) {
	ks, err := dataset.Uniform(xrand.New(31), 400, 16_000)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.OnlineOptions{
		Epochs:      3,
		EpochBudget: 20,
		Policy:      dynamic.ManualPolicy(),
	}
	bare, err := core.OnlinePoisonAttack(ks, opts)
	if err != nil {
		t.Fatal(err)
	}
	withGuard := opts
	withGuard.Defense.Policies = []defense.Policy{defense.DensityPolicy{Window: 8, Ratio: 3}}
	guarded, err := core.OnlinePoisonAttack(ks, withGuard)
	if err != nil {
		t.Fatal(err)
	}
	if guarded.Poison.Len() >= bare.Poison.Len() {
		t.Fatalf("guard let through %d poison keys, bare index took %d",
			guarded.Poison.Len(), bare.Poison.Len())
	}
	if guarded.FinalRatio() >= bare.FinalRatio() {
		t.Fatalf("guarded final ratio %v >= bare %v", guarded.FinalRatio(), bare.FinalRatio())
	}
}
