package core

// The twin scenario harness (DESIGN.md §13). Every attack scenario in this
// package measures a poisoned victim index against a clean counterfactual
// fed the identical honest traffic. twin owns that pair from construction
// to the final poison set; each scenario function keeps only its oracle, how
// it serves reads, and its report columns.
//
// The harness is a set of primitives, not a hook-driven loop: the online
// and serve scenarios run their oracle after the epoch's honest traffic,
// while churn, cascade, and static plan first and drip the poison through
// it. Five short loops over shared primitives need no schedule switch.

import (
	"fmt"
	"math"

	"cdfpoison/internal/defense"
	"cdfpoison/internal/index"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/workload"
)

// twin is a victim index and its clean counterfactual, driven in lockstep.
// Invariants (the ones every CSV fingerprint rests on):
//
//   - the op clock ticks once before every op — read, honest write, or
//     poison write — and both pipelines tick with it;
//   - an honest write lands on the clean side first, then on the victim,
//     at the same clock value;
//   - poison lands on the victim only, and only accepted keys count.
type twin[B index.Backend] struct {
	// victim and clean are the concrete constructions, for oracles and
	// report columns that need more than index.Backend.
	victim, clean B
	// vFront and cFront are where traffic lands: the retrain pipeline when
	// one is mounted, else the guard when armed, else the construction.
	vFront, cFront index.Backend
	// vPipe and cPipe are the retrain pipelines; nil without a cost model.
	vPipe, cPipe *index.Pipeline
	vArm, cArm   *defenseArm
	atkSrc       int
	clock        int     // logical op clock, the rate limiter's time base
	poison       []int64 // accepted poison, in injection order
	displaced    int     // honest writes the clean side accepted and the victim refused
	defense      DefenseReport
	ex           exec
}

// buildTwin builds both sides with the same constructor, mounts the
// spec's guard and defense arms on each, and, when cost is non-nil, puts
// both behind a retrain pipeline running on ex's pool.
func buildTwin[B index.Backend](initial keys.Set, build func(keys.Set) (B, error), spec DefenseSpec, cost *index.CostModel, ex exec) (*twin[B], error) {
	t := &twin[B]{atkSrc: spec.attackerSource(), ex: ex}
	var err error
	if t.victim, err = build(initial); err != nil {
		return nil, err
	}
	if t.clean, err = build(initial); err != nil {
		return nil, err
	}
	var vGuard, cGuard *defense.Guard
	t.vFront, vGuard = spec.wrap(t.victim)
	t.cFront, cGuard = spec.wrap(t.clean)
	if cost != nil {
		t.vPipe = index.NewPipeline(t.vFront, *cost).WithPool(ex.ctx, ex.pool)
		t.cPipe = index.NewPipeline(t.cFront, *cost).WithPool(ex.ctx, ex.pool)
		t.vFront, t.cFront = t.vPipe, t.cPipe
	}
	t.vArm = spec.newArm(t.vFront, vGuard, &t.defense, false)
	t.cArm = spec.newArm(t.cFront, cGuard, &t.defense, true)
	return t, nil
}

// tick advances the op clock, and both pipelines with it.
func (t *twin[B]) tick() {
	t.clock++
	if t.vPipe != nil {
		t.vPipe.Tick(1)
		t.cPipe.Tick(1)
	}
}

// honest lands one honest write from source src on both sides and reports
// whether the clean side accepted it.
func (t *twin[B]) honest(k int64, src int) (cleanOK bool) {
	t.tick()
	cleanOK, _ = t.cArm.insert(k, src, t.clock, false)
	victimOK, _ := t.vArm.insert(k, src, t.clock, false)
	if cleanOK && !victimOK {
		t.displaced++
	}
	return cleanOK
}

// read serves one honest read from both read planes and returns each
// side's probe count.
func (t *twin[B]) read(k int64) (victim, clean int64) {
	t.tick()
	return int64(t.vFront.Lookup(k).Probes), int64(t.cFront.Lookup(k).Probes)
}

// inject lands poison keys on the victim from the attacker's source, one
// tick each, and returns how many the victim accepted.
func (t *twin[B]) inject(ks ...int64) int {
	accepted := 0
	for _, k := range ks {
		t.tick()
		if ok, _ := t.vArm.insert(k, t.atkSrc, t.clock, true); ok {
			t.poison = append(t.poison, k)
			accepted++
		}
	}
	return accepted
}

// drip spreads a budget's worth of poison evenly through ops honest ops:
// before op i it injects the next key while accepted*ops <= i*budget, and
// whatever is left lands after the stream. The count is ACCEPTED poison —
// a key the defense or the index refuses does not advance the drip. It
// returns the accepted count and checks cancellation before every op.
func (t *twin[B]) drip(ops, budget int, poison []int64, op func()) (int, error) {
	accepted := 0
	for i := 0; i < ops; i++ {
		for len(poison) > 0 && accepted*ops <= i*budget {
			accepted += t.inject(poison[0])
			poison = poison[1:]
		}
		if err := t.ex.ctx.Err(); err != nil {
			return accepted, err
		}
		op()
	}
	return accepted + t.inject(poison...), nil
}

// retrain runs one maintenance cycle on both sides, victim first.
func (t *twin[B]) retrain() {
	t.vFront.Retrain()
	t.cFront.Retrain()
}

// losses reads both sides' admin-plane stats (live content, even behind a
// stale pipeline) and the victim/clean model-vs-content loss ratio.
func (t *twin[B]) losses() (victim, clean index.Stats, ratio float64) {
	victim, clean = t.vFront.Stats(), t.cFront.Stats()
	return victim, clean, SafeRatio(victim.ContentLoss, clean.ContentLoss)
}

// poisonSet folds the accepted poison into a key set; scenario names the
// caller in the error.
func (t *twin[B]) poisonSet(scenario string) (keys.Set, error) {
	ps, err := keys.NewStrict(t.poison)
	if err != nil {
		return keys.Set{}, fmt.Errorf("core: %s poison keys collide: %w", scenario, err)
	}
	return ps, nil
}

// newStream builds a scenario's honest op stream: domain <= 0 defaults to
// defaultDomain(initial), and honest ops rotate over the defense spec's
// sources.
func newStream(spec workload.Spec, initial keys.Set, domain int64, seed uint64, sources int) (*workload.Generator, error) {
	if domain <= 0 {
		domain = defaultDomain(initial)
	}
	gen, err := workload.NewGenerator(spec, initial, domain, seed)
	if err != nil {
		return nil, err
	}
	gen.SetSources(sources)
	return gen, nil
}

// defaultDomain is the write-key universe of a scenario whose Domain is 0:
// twice the initial key span, 2·(max+1), saturated at MaxInt64 once that
// product would wrap (max >= MaxInt64/2).
func defaultDomain(initial keys.Set) int64 {
	if m := initial.Max(); m < math.MaxInt64/2 {
		return 2 * (m + 1)
	}
	return math.MaxInt64
}

// validateStream checks the epoch shape the stream-driven scenarios share.
func validateStream(scenario string, epochs, opsPerEpoch, epochBudget int) error {
	if epochs < 1 {
		return fmt.Errorf("core: %s scenario needs Epochs >= 1, got %d", scenario, epochs)
	}
	if opsPerEpoch < 0 {
		return fmt.Errorf("core: negative ops per epoch %d", opsPerEpoch)
	}
	if epochBudget < 0 {
		return fmt.Errorf("core: negative per-epoch budget %d", epochBudget)
	}
	return nil
}
