package core

// The static (one-shot) attack as a defense-aware SCENARIO: the paper's
// Algorithm 1 computed once against the initial key set, drip-fed into a
// live dynamic index through the defense plane, with an honest write stream
// interleaved. GreedyMultiPoint is the raw oracle; StaticAttack is what the
// Pareto sweep drives, because a defense only means something on a write
// path — a detector chain, rate limiter, or robust fitter all act between
// the attacker's computed keys and the victim's model.

import (
	"fmt"

	"cdfpoison/internal/dynamic"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/workload"
)

// StaticOptions parameterizes the static poisoning scenario.
type StaticOptions struct {
	// Budget is the attacker's one-shot poison budget (>= 0), computed by
	// Algorithm 1 against the initial key set.
	Budget int
	// HonestWrites is the number of honest uniform writes interleaved with
	// the poison drip (>= 0).
	HonestWrites int
	// Domain is the write-key universe size; 0 defaults to twice the
	// initial key span, 2·(max+1), saturated at MaxInt64.
	Domain int64
	// Seed drives the honest write stream.
	Seed uint64
	// Defense arms the defense plane on victim and clean twin alike; the
	// zero value changes nothing (see DefenseSpec). The static-native
	// mechanisms are the detector chain (Algorithm 1 piles poison into
	// dense regions the density and dup-mass screens price up) and the
	// robust fitter (a trimmed or Theil–Sen retrain simply refuses to chase
	// the poison mass).
	Defense DefenseSpec
}

func (o StaticOptions) validate() error {
	if o.Budget < 0 {
		return fmt.Errorf("core: negative static budget %d", o.Budget)
	}
	if o.HonestWrites < 0 {
		return fmt.Errorf("core: negative honest write count %d", o.HonestWrites)
	}
	return nil
}

// StaticResult reports the static poisoning scenario.
type StaticResult struct {
	// Poison is the set of accepted poison keys.
	Poison keys.Set
	// RatioLoss is the victim/clean model-vs-content loss ratio after the
	// final retrain — the headline damage number.
	RatioLoss float64
	// Defense is the defense-plane accounting (zero when no defense armed).
	Defense DefenseReport
}

// StaticAttack mounts the one-shot poisoning scenario: Algorithm 1's keys
// against the INITIAL content, drip-fed evenly through HonestWrites honest
// uniform writes into a dynamic index (victim), with a clean counterfactual
// absorbing the identical honest stream (the twin harness, DESIGN.md §13).
// Both indexes retrain once at the end (the static maintenance cycle),
// then the loss ratio is measured. The defense plane — detector chain,
// rate limiter, robust fitter — sits on both write paths exactly as in
// the online scenarios.
//
// Determinism contract: the honest stream is a pure function of
// (initial, Domain, Seed); WithWorkers parallelism reaches only the
// oracle's candidate scans, which fold in index order, so any worker count
// produces identical bytes (TestStaticWorkerEquivalence). WithCancellation
// aborts via ctx.Err().
func StaticAttack(initial keys.Set, opts StaticOptions, execOpts ...Option) (StaticResult, error) {
	if err := opts.validate(); err != nil {
		return StaticResult{}, err
	}
	if initial.Len() < 2 {
		return StaticResult{}, ErrTooFew
	}
	ex := newExec(execOpts)
	t, err := buildTwin(initial, func(ks keys.Set) (*dynamic.Index, error) {
		return dynamic.NewWithFit(ks, dynamic.ManualPolicy(), opts.Defense.fitFunc())
	}, opts.Defense, nil, ex)
	if err != nil {
		return StaticResult{}, err
	}
	gen, err := newStream(workload.NewUniform(0), initial, opts.Domain, opts.Seed, opts.Defense.Sources)
	if err != nil {
		return StaticResult{}, err
	}
	var poison []int64
	if opts.Budget > 0 {
		g, err := GreedyMultiPoint(initial, opts.Budget, execOpts...)
		if err != nil {
			return StaticResult{}, err
		}
		poison = g.Poison
	}

	// Drip the budget evenly through the honest write stream, then run the
	// static maintenance cycle: one retrain on both sides.
	if _, err := t.drip(opts.HonestWrites, opts.Budget, poison, func() {
		o := gen.Next()
		t.honest(o.Key, o.Source)
	}); err != nil {
		return StaticResult{}, err
	}
	t.retrain()

	res := StaticResult{Defense: t.defense}
	_, _, res.RatioLoss = t.losses()
	res.Poison, err = t.poisonSet("static")
	if err != nil {
		return StaticResult{}, err
	}
	return res, nil
}
