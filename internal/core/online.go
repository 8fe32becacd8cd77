package core

import (
	"fmt"
	"math"

	"cdfpoison/internal/dynamic"
	"cdfpoison/internal/keys"
)

// OnlineOracle selects the attacker's per-epoch poisoning oracle.
type OnlineOracle int

const (
	// OracleRegression runs Algorithm 1 (GreedyMultiPoint) against the
	// index's full visible content each epoch — the strongest adversary for
	// the single-regression dynamic index.
	OracleRegression OnlineOracle = iota
	// OracleRMI runs Algorithm 2 (RMIAttack) against the visible content,
	// modeling an attacker who targets the second-stage partitioning a
	// future RMI rebuild would use. Requires OnlineOptions.RMI.NumModels.
	OracleRMI
)

// String names the oracle for reports and CSV cells.
func (o OnlineOracle) String() string {
	switch o {
	case OracleRegression:
		return "regression"
	case OracleRMI:
		return "rmi"
	default:
		return fmt.Sprintf("OnlineOracle(%d)", int(o))
	}
}

// OnlineOptions parameterizes the online (dynamic-index) poisoning scenario.
type OnlineOptions struct {
	// Epochs is the number of attack rounds. Zero defaults to len(Arrivals);
	// at least one epoch is required.
	Epochs int
	// EpochBudget is the number of poisoning keys the attacker may inject
	// per epoch (>= 0; zero models a pure staleness/arrival workload).
	EpochBudget int
	// Policy is the victim index's merge-and-retrain policy. With
	// dynamic.Manual the scenario forces one retrain at the END of every
	// epoch (epoch == maintenance cycle); other policies retrain organically
	// as inserts trigger them — including the attacker's own inserts, which
	// under dynamic.EveryK lets the adversary drive the retrain cadence.
	Policy dynamic.RetrainPolicy
	// Arrivals is the honest insert stream: Arrivals[e] lands in epoch e,
	// BEFORE the attacker moves (the adversary observes the current state).
	// May be shorter than Epochs (later epochs get no honest traffic) but
	// not longer.
	Arrivals [][]int64
	// Oracle selects the per-epoch attack; default OracleRegression.
	Oracle OnlineOracle
	// RMI configures the per-epoch Algorithm 2 call when Oracle == OracleRMI
	// (NumModels, Alpha, …). Percent is overridden each epoch so the total
	// matches EpochBudget against the current visible content.
	RMI RMIAttackOptions
	// Defense arms the defense plane on victim and clean twin alike; the
	// zero value changes nothing (see DefenseSpec). The Fitter trains the
	// dynamic indexes; the guard chain and rate limiter wrap them.
	Defense DefenseSpec
}

func (o OnlineOptions) epochs() int {
	if o.Epochs > 0 {
		return o.Epochs
	}
	return len(o.Arrivals)
}

func (o OnlineOptions) validate() error {
	if o.epochs() < 1 {
		return fmt.Errorf("core: online attack needs Epochs >= 1 (or a non-empty Arrivals schedule)")
	}
	if len(o.Arrivals) > o.epochs() {
		return fmt.Errorf("core: %d arrival epochs exceed the %d attack epochs", len(o.Arrivals), o.epochs())
	}
	if o.EpochBudget < 0 {
		return fmt.Errorf("core: negative per-epoch budget %d", o.EpochBudget)
	}
	switch o.Oracle {
	case OracleRegression:
	case OracleRMI:
		if o.RMI.NumModels < 1 {
			return fmt.Errorf("core: OracleRMI needs RMI.NumModels >= 1, got %d", o.RMI.NumModels)
		}
		if err := o.RMI.validateAlpha(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("core: unknown online oracle %d", int(o.Oracle))
	}
	return nil
}

// EpochReport is the state of the scenario measured at the end of one epoch
// (after that epoch's arrivals, injections, and any retrains).
type EpochReport struct {
	Epoch    int // 1-based
	Injected int // poison keys inserted this epoch (≤ EpochBudget)
	// PoisonTotal and Retrains are cumulative over the scenario so far.
	PoisonTotal int
	Retrains    int
	BufferLen   int // victim delta-buffer size at epoch end
	// Displaced counts honest arrivals the victim index rejected because a
	// previously injected poison key already occupied their slot —
	// cumulative over the scenario so far, like PoisonTotal.
	Displaced int
	// CleanLoss / PoisonedLoss evaluate each index's CURRENT model against
	// its CURRENT full content (base ∪ buffer): a stale model shows up as
	// loss even before any retrain absorbs the poison.
	CleanLoss    float64
	PoisonedLoss float64
	RatioLoss    float64 // SafeRatio(PoisonedLoss, CleanLoss)
	// CleanProbes / PoisonedProbes are the mean lookup probes over the
	// honest-key workload against the counterfactual and victim indexes.
	CleanProbes    float64
	PoisonedProbes float64
}

// OnlineResult reports the full online poisoning scenario.
type OnlineResult struct {
	Epochs []EpochReport
	// Poison is the union of all injected keys.
	Poison keys.Set
	// Retrains is the victim's total completed retrain count.
	Retrains int
	// Defense is the defense-plane accounting (zero when no defense armed).
	Defense DefenseReport
}

// FinalRatio returns the last epoch's loss ratio — the scenario's headline.
func (r OnlineResult) FinalRatio() float64 {
	if len(r.Epochs) == 0 {
		return 1
	}
	return r.Epochs[len(r.Epochs)-1].RatioLoss
}

// MaxRatio returns the largest per-epoch loss ratio, which can exceed the
// final ratio when a retrain mid-scenario absorbs buffered poison.
func (r OnlineResult) MaxRatio() float64 {
	best := 1.0
	for _, e := range r.Epochs {
		if e.RatioLoss > best {
			best = e.RatioLoss
		}
	}
	return best
}

// onlineOracle computes one epoch's poison keys against the victim's
// visible content, in the order the attacker submits them.
func onlineOracle(visible keys.Set, opts OnlineOptions, execOpts []Option) ([]int64, error) {
	switch opts.Oracle {
	case OracleRMI:
		ro := opts.RMI
		ro.Percent = float64(opts.EpochBudget) / float64(visible.Len()) * 100
		if ro.Percent > 100 {
			ro.Percent = 100
		}
		if int(math.Round(ro.Percent/100*float64(visible.Len()))) < 1 {
			return nil, nil // budget rounds to zero against this set
		}
		res, err := RMIAttack(visible, ro, execOpts...)
		if err != nil {
			return nil, fmt.Errorf("core: online epoch RMI oracle: %w", err)
		}
		return res.Poison.Keys(), nil
	default: // OracleRegression
		g, err := GreedyMultiPoint(visible, opts.EpochBudget, execOpts...)
		if err != nil {
			return nil, fmt.Errorf("core: online epoch greedy oracle: %w", err)
		}
		return g.Poison, nil
	}
}

// OnlinePoisonAttack mounts the dynamic-index (online) poisoning scenario:
// an adversary with a fixed per-epoch key budget drip-feeds poison into an
// updatable learned index (internal/dynamic) interleaved with an honest
// insert stream, across retrain cycles.
//
// Each epoch:
//
//  1. The honest arrivals for the epoch are inserted into both the victim
//     and a clean counterfactual index running the same retrain policy
//     (the twin harness, DESIGN.md §13).
//  2. The attacker observes the victim's full visible content and computes
//     up to EpochBudget poison keys with the selected oracle — Algorithm 1
//     (GreedyMultiPoint) or Algorithm 2 (RMIAttack) — then inserts them.
//     Inserts can trigger the victim's own retrain policy mid-epoch.
//  3. With the Manual policy both indexes are force-retrained (the epoch IS
//     the maintenance cycle); otherwise retrains happen only when the
//     policy fires.
//  4. The epoch report captures loss (model vs current content, so model
//     staleness is visible), the loss ratio against the counterfactual, and
//     mean lookup probes over the honest workload.
//
// Determinism contract: WithWorkers parallelism reaches only the per-epoch
// oracle's candidate scans and the probe evaluation, all of which reduce in
// index order; the result is byte-identical for every worker count (see
// TestOnlineWorkerEquivalence). WithCancellation aborts between and inside
// epochs with ctx.Err().
func OnlinePoisonAttack(initial keys.Set, opts OnlineOptions, execOpts ...Option) (OnlineResult, error) {
	if err := opts.validate(); err != nil {
		return OnlineResult{}, err
	}
	if initial.Len() < 2 {
		return OnlineResult{}, ErrTooFew
	}
	ex := newExec(execOpts)
	t, err := buildTwin(initial, func(ks keys.Set) (*dynamic.Index, error) {
		return dynamic.NewWithFit(ks, opts.Policy, opts.Defense.fitFunc())
	}, opts.Defense, nil, ex)
	if err != nil {
		return OnlineResult{}, err
	}
	// legit is the honest probe workload: the initial keys plus every
	// arrival the clean side accepted. It only grows, so pe re-sorts it
	// only in epochs that grew it.
	legit := append([]int64(nil), initial.Keys()...)
	pe := newProbeEval()
	epochs := opts.epochs()
	res := OnlineResult{Epochs: make([]EpochReport, 0, epochs)}
	honestSeen := 0
	for e := 0; e < epochs; e++ {
		if err := ex.ctx.Err(); err != nil {
			return OnlineResult{}, err
		}
		// 1. Honest traffic. The online scenario has no workload
		// generator, so honest sources rotate over an arrival counter.
		if e < len(opts.Arrivals) {
			for _, k := range opts.Arrivals[e] {
				src := 0
				if opts.Defense.Sources > 1 {
					src = honestSeen % opts.Defense.Sources
				}
				honestSeen++
				if t.honest(k, src) {
					legit = append(legit, k)
				}
			}
		}
		// 2. The attack.
		rep := EpochReport{Epoch: e + 1}
		if opts.EpochBudget > 0 {
			poison, err := onlineOracle(t.vFront.Keys(), opts, execOpts)
			if err != nil {
				return OnlineResult{}, err
			}
			rep.Injected = t.inject(poison...)
		}
		// 3. Maintenance.
		if opts.Policy.Kind == dynamic.Manual {
			t.retrain()
		}
		// 4. Measurement: model-vs-content loss (so model staleness is
		// visible) and the honest workload's mean probe cost.
		rep.PoisonTotal, rep.Displaced = len(t.poison), t.displaced
		vs, cs, ratio := t.losses()
		rep.Retrains, rep.BufferLen = vs.Retrains, vs.Buffered
		rep.CleanLoss, rep.PoisonedLoss, rep.RatioLoss = cs.ContentLoss, vs.ContentLoss, ratio
		pe.refresh(legit)
		total, err := pe.measurePair(ex, endpointGrainFloor, pe.sorted, t.cFront, t.vFront)
		if err != nil {
			return OnlineResult{}, err
		}
		rep.CleanProbes, rep.PoisonedProbes = total.means(len(pe.sorted))
		res.Epochs = append(res.Epochs, rep)
	}
	// epochs >= 1 is validated, so the last report is always present; its
	// cumulative retrain count is the scenario total.
	res.Retrains = res.Epochs[len(res.Epochs)-1].Retrains
	res.Defense = t.defense
	res.Poison, err = t.poisonSet("online")
	if err != nil {
		return OnlineResult{}, err
	}
	return res, nil
}
