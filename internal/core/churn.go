package core

// The retrain-churn attack: the scenario the background-retrain pipeline
// exists for. Where ServeAttack maximizes model loss, ChurnAttack's
// adversary maximizes retrain frequency × rebuild cost × stale-window
// loss — the complexity-attack objective of "Algorithmic Complexity
// Attacks on Dynamic Learned Indexes" (PAPERS.md), mounted against the
// sharded serving index behind index.Pipeline. See DESIGN.md §7.

import (
	"fmt"
	"math"

	"cdfpoison/internal/dynamic"
	"cdfpoison/internal/index"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/shard"
	"cdfpoison/internal/workload"
)

// ChurnOptions parameterizes the retrain-churn scenario.
type ChurnOptions struct {
	// Epochs is the number of serving epochs (>= 1).
	Epochs int
	// OpsPerEpoch is the honest operation count per epoch, drawn from
	// Workload (>= 0). Every operation — honest or poison — advances the
	// logical clock by one tick.
	OpsPerEpoch int
	// EpochBudget is the attacker's poison-key budget per epoch (>= 0),
	// drip-fed evenly through the epoch's honest traffic.
	EpochBudget int
	// Shards is the victim's shard count (>= 1).
	Shards int
	// Policy is each shard's merge-and-retrain policy. BufferThreshold is
	// the churn attacker's natural prey — every K accepted keys into one
	// shard buys one rebuild of that whole shard — but all policies work;
	// with Manual the scenario force-retrains at every epoch end exactly
	// like the serve scenario.
	Policy dynamic.RetrainPolicy
	// Workload is the honest traffic mix.
	Workload workload.Spec
	// Domain is the write-key universe size; 0 defaults to twice the
	// initial key span, 2·(max+1), saturated at MaxInt64.
	Domain int64
	// Seed drives the workload stream.
	Seed uint64
	// Cost prices each rebuild in logical ticks (index.CostModel). The
	// zero model degenerates the pipeline to the synchronous path: no
	// stale windows, no publish latency — the scenario still runs and its
	// stale columns read zero (TestChurnZeroCostDegenerates).
	Cost index.CostModel
	// Defense arms the defense plane (guard chain, robust fitter, rate
	// limiting) on victim and clean twin alike; the zero value changes
	// nothing (see DefenseSpec). Rate limiting is the churn-native defense:
	// the attacker needs SUSTAINED write pressure into one shard, which a
	// per-source budget prices directly.
	Defense DefenseSpec
}

func (o ChurnOptions) validate() error {
	if err := validateStream("churn", o.Epochs, o.OpsPerEpoch, o.EpochBudget); err != nil {
		return err
	}
	if o.Shards < 1 {
		return fmt.Errorf("core: churn scenario needs Shards >= 1, got %d", o.Shards)
	}
	if err := o.Cost.Validate(); err != nil {
		return err
	}
	return o.Workload.Validate()
}

// ChurnEpochReport is the scenario state measured at the end of one epoch.
// Reads are served INLINE at their tick against the pipeline's published
// (possibly stale) read plane, so the probe and staleness columns reflect
// what the honest population actually experienced — not an end-of-epoch
// re-evaluation.
type ChurnEpochReport struct {
	Epoch int // 1-based
	// Reads/Writes count this epoch's honest operations; Injected is this
	// epoch's accepted poison; TargetShard is the shard the attacker chose
	// to churn this epoch.
	Reads, Writes int
	Injected      int
	TargetShard   int
	// PoisonTotal and Retrains are cumulative.
	PoisonTotal int
	Retrains    int // victim backend retrains, summed across shards
	// Stale-read accounting for THIS epoch's inline reads: a read is stale
	// when it was served while a rebuild was in flight.
	StaleReads      int
	CleanStaleReads int
	StaleFrac       float64
	CleanStaleFrac  float64
	// Victim pipeline accounting, cumulative: completed publishes,
	// coalesced triggers, stale ticks, summed rebuild cost, and
	// trigger→publish latency (mean/max) — latency above the raw rebuild
	// cost is queueing delay, the churn attacker's objective.
	Publishes          int
	Coalesced          int
	StaleTicks         int64
	RebuildTicks       int64
	MeanPublishLatency float64
	MaxPublishLatency  int64
	// Aggregate live model-vs-content loss (key-weighted across shards)
	// and the ratio against the clean counterfactual, as in ServeAttack.
	CleanLoss    float64
	PoisonedLoss float64
	RatioLoss    float64
	// Probe cost of this epoch's inline reads on both read planes: exact
	// totals, means per read, and the victim/clean ratio.
	CleanProbeTotal    int64
	PoisonedProbeTotal int64
	CleanProbes        float64
	PoisonedProbes     float64
	ProbeRatio         float64
}

// ChurnResult reports the full retrain-churn scenario.
type ChurnResult struct {
	Epochs   []ChurnEpochReport
	Poison   keys.Set // union of all accepted poison keys
	Retrains int      // victim backend retrains at scenario end
	// VictimChurn / CleanChurn are the pipelines' final accounting.
	VictimChurn index.ChurnStats
	CleanChurn  index.ChurnStats
	// Defense is the defense-plane accounting (zero when no defense armed).
	Defense DefenseReport
}

// FinalRatio returns the last epoch's aggregate loss ratio.
func (r ChurnResult) FinalRatio() float64 {
	if len(r.Epochs) == 0 {
		return 1
	}
	return r.Epochs[len(r.Epochs)-1].RatioLoss
}

// MaxStaleFrac returns the worst per-epoch victim stale-read fraction —
// the headline staleness number.
func (r ChurnResult) MaxStaleFrac() float64 {
	best := 0.0
	for _, e := range r.Epochs {
		if e.StaleFrac > best {
			best = e.StaleFrac
		}
	}
	return best
}

// churnTarget scores each shard for the churn attacker: expected rebuild
// price × expected rebuilds the budget can buy there this epoch. The
// rebuild price is the cost model on the shard's current size; the trigger
// estimate depends on the policy — a BufferThreshold shard that is already
// B keys into its K-key budget needs only K−B more, an EveryK shard ticks
// on every insert, and a Manual victim rebuilds once per epoch regardless
// (so only the price differentiates shards). Ties break toward the lowest
// shard number; everything is pure integer/float arithmetic on observable
// state, so the choice is deterministic.
func churnTarget(v *shard.Index, policy dynamic.RetrainPolicy, budget int, cost index.CostModel) int {
	best, bestScore := 0, math.Inf(-1)
	for i := 0; i < v.NumShards(); i++ {
		s := v.Shard(i)
		price := float64(cost.Ticks(s.Len() + budget))
		var triggers float64
		switch policy.Kind {
		case dynamic.BufferThreshold:
			triggers = float64(s.BufferLen()+budget) / float64(policy.K)
		case dynamic.EveryK:
			triggers = float64(budget) / float64(policy.K)
		default: // Manual: one epoch-end rebuild either way
			triggers = 1
		}
		if score := price * triggers; score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// ChurnAttack mounts the retrain-churn scenario: an adversary with a
// per-epoch key budget drip-feeds poison into the ONE shard where each key
// buys the most rebuild work, while an honest population reads and writes
// the sharded index through the background-retrain pipeline. The clean
// counterfactual runs the identical pipeline, policy, and operation
// stream, so every stale or slow read the victim's population suffers
// beyond the counterfactual's is attacker-caused.
//
// Each epoch:
//
//  1. The attacker inspects the victim's live per-shard state, picks the
//     target shard maximizing rebuild-price × expected-triggers
//     (churnTarget), and computes its poison keys with Algorithm 1 against
//     THAT SHARD's visible content — poison stays interior to the shard's
//     range, so the frozen router delivers every key to the target.
//  2. The epoch's honest operations stream through both pipelines, one
//     tick each. Reads are served inline from the published read plane:
//     probes and staleness are recorded per read, for victim and clean
//     alike. The poison budget is drip-fed evenly through the honest
//     stream (one more key whenever the epoch's elapsed-op fraction
//     passes the accepted fraction), each injection one tick — the twin
//     harness's drip (DESIGN.md §13).
//  3. With dynamic.Manual both pipelines are force-retrained at epoch end;
//     other policies trigger organically — including from the attacker's
//     own inserts, which under BufferThreshold is precisely the lever.
//  4. The epoch report captures stale-read fractions, publish latency,
//     coalescing, rebuild ticks, live loss ratios, and inline probe costs.
//
// Determinism contract: WithWorkers parallelism reaches only the per-epoch
// oracle's candidate scans and the epoch-end rebuild fan-out, both of
// which produce byte-identical results for any worker count
// (TestChurnWorkerEquivalence at scenario level, TestChurnSweepWorker
// Equivalence at sweep level, TestChurnWorkersFlagDeterminism at CLI
// level). WithCancellation aborts between epochs, between operations, and
// inside the oracle.
func ChurnAttack(initial keys.Set, opts ChurnOptions, execOpts ...Option) (ChurnResult, error) {
	if err := opts.validate(); err != nil {
		return ChurnResult{}, err
	}
	ex := newExec(execOpts)
	t, err := buildTwin(initial, func(ks keys.Set) (*shard.Index, error) {
		return shard.NewWithFit(ks, opts.Shards, opts.Policy, opts.Defense.fitFunc())
	}, opts.Defense, &opts.Cost, ex)
	if err != nil {
		return ChurnResult{}, err
	}
	gen, err := newStream(opts.Workload, initial, opts.Domain, opts.Seed, opts.Defense.Sources)
	if err != nil {
		return ChurnResult{}, err
	}
	res := ChurnResult{Epochs: make([]ChurnEpochReport, 0, opts.Epochs)}
	for e := 0; e < opts.Epochs; e++ {
		if err := ex.ctx.Err(); err != nil {
			return ChurnResult{}, err
		}
		rep := ChurnEpochReport{Epoch: e + 1}

		// 1. Plan the epoch's churn: target shard and poison keys.
		var poison []int64
		if opts.EpochBudget > 0 {
			rep.TargetShard = churnTarget(t.victim, opts.Policy, opts.EpochBudget, opts.Cost)
			g, err := GreedyMultiPoint(t.victim.Shard(rep.TargetShard).Keys(), opts.EpochBudget, execOpts...)
			if err != nil {
				return ChurnResult{}, fmt.Errorf("core: churn epoch %d oracle: %w", e+1, err)
			}
			poison = g.Poison
		}

		// 2. Serve the epoch: honest ops with the poison drip interleaved;
		// reads hit the published read planes inline.
		rep.Injected, err = t.drip(opts.OpsPerEpoch, opts.EpochBudget, poison, func() {
			o := gen.Next()
			if !o.Read {
				rep.Writes++
				t.honest(o.Key, o.Source)
				return
			}
			rep.Reads++
			v, c := t.read(o.Key)
			rep.PoisonedProbeTotal += v
			rep.CleanProbeTotal += c
			if t.vPipe.IsStale() {
				rep.StaleReads++
			}
			if t.cPipe.IsStale() {
				rep.CleanStaleReads++
			}
		})
		if err != nil {
			return ChurnResult{}, err
		}

		// 3. Maintenance.
		if opts.Policy.Kind == dynamic.Manual {
			t.retrain()
		}

		// 4. Measurement.
		rep.PoisonTotal = len(t.poison)
		vs, cs, ratio := t.losses()
		rep.Retrains = vs.Retrains
		rep.CleanLoss, rep.PoisonedLoss, rep.RatioLoss = cs.ContentLoss, vs.ContentLoss, ratio
		if rep.Reads > 0 {
			rep.StaleFrac = float64(rep.StaleReads) / float64(rep.Reads)
			rep.CleanStaleFrac = float64(rep.CleanStaleReads) / float64(rep.Reads)
			rep.CleanProbes = float64(rep.CleanProbeTotal) / float64(rep.Reads)
			rep.PoisonedProbes = float64(rep.PoisonedProbeTotal) / float64(rep.Reads)
			rep.ProbeRatio = SafeRatio(rep.PoisonedProbes, rep.CleanProbes)
		}
		churn := t.vPipe.ChurnStats()
		rep.Publishes = churn.Publishes
		rep.Coalesced = churn.Coalesced
		rep.StaleTicks = churn.StaleTicks
		rep.RebuildTicks = churn.RebuildTicks
		rep.MeanPublishLatency = churn.MeanLatency()
		rep.MaxPublishLatency = churn.MaxLatencyTicks
		res.Epochs = append(res.Epochs, rep)
	}
	res.Retrains = res.Epochs[len(res.Epochs)-1].Retrains
	res.VictimChurn = t.vPipe.ChurnStats()
	res.CleanChurn = t.cPipe.ChurnStats()
	res.Defense = t.defense
	res.Poison, err = t.poisonSet("churn")
	if err != nil {
		return ChurnResult{}, err
	}
	return res, nil
}
