package core

import (
	"fmt"
	"slices"

	"cdfpoison/internal/dynamic"
	"cdfpoison/internal/index"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/shard"
	"cdfpoison/internal/workload"
)

// ServeOptions parameterizes the attack-under-load scenario: poisoning a
// sharded serving index while an honest population reads and writes it.
type ServeOptions struct {
	// Epochs is the number of serving epochs (>= 1).
	Epochs int
	// OpsPerEpoch is the honest operation count per epoch, drawn from
	// Workload (>= 0).
	OpsPerEpoch int
	// EpochBudget is the attacker's poison-key budget per epoch (>= 0).
	EpochBudget int
	// Shards is the victim's shard count (>= 1); 1 is the unsharded case,
	// probe-for-probe identical to the plain dynamic index.
	Shards int
	// Policy is each shard's merge-and-retrain policy. As in the online
	// scenario, dynamic.Manual means the scenario force-retrains every
	// shard (victim and counterfactual) at the end of every epoch.
	Policy dynamic.RetrainPolicy
	// Workload is the honest traffic mix (reads by rank over the initial
	// keys, uniform writes over [0, Domain)).
	Workload workload.Spec
	// Domain is the write-key universe size; 0 defaults to twice the
	// initial key span, 2·(max+1), saturated at MaxInt64.
	Domain int64
	// Seed drives the workload stream (both indexes see the identical
	// stream, so the attacker is the only difference between them).
	Seed uint64
	// RebuildCost prices each retrain in logical ticks for the background-
	// retrain pipeline both indexes run behind (one tick per operation —
	// honest or poison). The zero value is the ZERO-COST model: every
	// rebuild publishes instantly and the scenario is byte-identical to the
	// historical synchronous path (the golden equivalence the serve CSV
	// fingerprints pin). With a non-zero model, epoch-end read probes are
	// evaluated against the PUBLISHED (possibly stale) read plane while the
	// loss columns keep reporting live content — staleness shows up as the
	// gap between them.
	RebuildCost index.CostModel
	// Defense arms the defense plane (guard chain, robust fitter, rate
	// limiting) on victim and clean twin alike; the zero value changes
	// nothing (see DefenseSpec).
	Defense DefenseSpec
}

func (o ServeOptions) validate() error {
	if err := validateStream("serve", o.Epochs, o.OpsPerEpoch, o.EpochBudget); err != nil {
		return err
	}
	if o.Shards < 1 {
		return fmt.Errorf("core: serve scenario needs Shards >= 1, got %d", o.Shards)
	}
	if err := o.RebuildCost.Validate(); err != nil {
		return err
	}
	return o.Workload.Validate()
}

// ServeShardReport is one shard's end-of-epoch state, with its loss ratio
// against the same shard of the clean counterfactual (both indexes share
// the router, so shard i covers the same key range on both sides).
type ServeShardReport struct {
	Shard     int
	RatioLoss float64 // victim over clean shard model-vs-content MSE (SafeRatio)
}

// ServeEpochReport is the scenario state measured at the end of one epoch.
type ServeEpochReport struct {
	Epoch int // 1-based
	// Reads/Writes count this epoch's honest operations by type.
	Reads, Writes int
	// Injected is this epoch's accepted poison count; PoisonTotal,
	// Displaced and Retrains are cumulative.
	Injected    int
	PoisonTotal int
	Displaced   int // honest writes the victim rejected because poison occupied the slot
	Retrains    int // victim retrains, summed across shards
	BufferLen   int // victim delta-buffer keys, summed across shards
	// Aggregate model-vs-content loss (key-weighted across shards) and the
	// ratio against the clean counterfactual.
	CleanLoss    float64
	PoisonedLoss float64
	RatioLoss    float64
	// Probe cost of this epoch's read keys, evaluated on both indexes:
	// means per read.
	CleanProbes    float64
	PoisonedProbes float64
	// Imbalance is the victim's max-shard-over-mean-shard key count.
	Imbalance float64
	// Shards is the per-shard breakdown (victim vs clean), in shard order.
	Shards []ServeShardReport
}

// MaxShardRatio returns the epoch's worst per-shard loss ratio (floored at
// 1) — the number a serving operator watching per-shard dashboards sees.
func (e ServeEpochReport) MaxShardRatio() float64 {
	best := 1.0
	for _, s := range e.Shards {
		if s.RatioLoss > best {
			best = s.RatioLoss
		}
	}
	return best
}

// ServeResult reports the full serving scenario.
type ServeResult struct {
	Shards   int
	Epochs   []ServeEpochReport
	Poison   keys.Set // union of all accepted poison keys
	Retrains int      // victim total across shards at scenario end
	// Defense is the defense-plane accounting (zero when no defense armed).
	Defense DefenseReport
}

// FinalRatio returns the last epoch's aggregate loss ratio.
func (r ServeResult) FinalRatio() float64 {
	if len(r.Epochs) == 0 {
		return 1
	}
	return r.Epochs[len(r.Epochs)-1].RatioLoss
}

// MaxRatio returns the largest per-epoch aggregate loss ratio.
func (r ServeResult) MaxRatio() float64 {
	best := 1.0
	for _, e := range r.Epochs {
		if e.RatioLoss > best {
			best = e.RatioLoss
		}
	}
	return best
}

// MaxShardRatio returns the single worst per-shard loss ratio across the
// whole scenario — sharding concentrates damage, so this exceeds the
// aggregate ratio whenever the attacker focuses on a subset of ranges.
func (r ServeResult) MaxShardRatio() float64 {
	best := 1.0
	for _, e := range r.Epochs {
		if m := e.MaxShardRatio(); m > best {
			best = m
		}
	}
	return best
}

// ServeAttack mounts the attack-under-load scenario: an adversary with a
// per-epoch key budget poisons a range-partitioned sharded serving index
// (internal/shard) while an honest population keeps reading and writing it.
// Both indexes run behind the background-retrain pipeline (index.Pipeline):
// writes and maintenance drive the WRITE and ADMIN planes, probes are
// measured against the READ plane's published snapshot, and the logical
// clock advances one tick per operation. With the default zero RebuildCost
// every rebuild publishes instantly and the scenario is byte-identical to
// the historical synchronous implementation.
//
// Each epoch:
//
//  1. OpsPerEpoch honest operations are drawn from the workload stream.
//     Writes are inserted into both the victim and a clean counterfactual
//     index (same router, same policy, same stream); reads are collected
//     as the epoch's query workload. Every operation advances both
//     pipelines' clocks by one tick.
//  2. The attacker observes the victim's full visible content and injects
//     up to EpochBudget poison keys computed by Algorithm 1
//     (GreedyMultiPoint) against it. Inserts route through the victim's
//     shards and can trigger per-shard policy retrains mid-epoch (each
//     poison insert is one tick on both clocks).
//  3. With dynamic.Manual both indexes are force-retrained shard by shard
//     (the epoch is the maintenance cycle); other policies retrain
//     organically per shard. Non-zero rebuild costs defer each retrain's
//     PUBLICATION — reads keep hitting the pre-rebuild snapshot until the
//     cost elapses.
//  4. The epoch report captures per-shard and aggregate model-vs-content
//     loss ratios, mean probes of the epoch's reads against both read
//     planes, the victim's shard imbalance, buffer depth, and retrain count.
//
// Determinism contract: the workload stream is a pure function of
// (Workload, initial, Domain, Seed); WithWorkers parallelism reaches only
// the oracle's candidate scans, which fold in index order — the result is
// byte-identical for every worker count (TestServeWorkerEquivalence).
// WithCancellation aborts between epochs and inside the oracle with
// ctx.Err().
func ServeAttack(initial keys.Set, opts ServeOptions, execOpts ...Option) (ServeResult, error) {
	if err := opts.validate(); err != nil {
		return ServeResult{}, err
	}
	ex := newExec(execOpts)
	t, err := buildTwin(initial, func(ks keys.Set) (*shard.Index, error) {
		return shard.NewWithFit(ks, opts.Shards, opts.Policy, opts.Defense.fitFunc())
	}, opts.Defense, &opts.RebuildCost, ex)
	if err != nil {
		return ServeResult{}, err
	}
	gen, err := newStream(opts.Workload, initial, opts.Domain, opts.Seed, opts.Defense.Sources)
	if err != nil {
		return ServeResult{}, err
	}
	res := ServeResult{Shards: opts.Shards, Epochs: make([]ServeEpochReport, 0, opts.Epochs)}
	var reads []int64 // epoch read-key scratch, reused across epochs
	for e := 0; e < opts.Epochs; e++ {
		if err := ex.ctx.Err(); err != nil {
			return ServeResult{}, err
		}
		rep := ServeEpochReport{Epoch: e + 1}
		// 1. Honest traffic: one shared stream for both indexes; reads are
		// collected for the epoch-end probe evaluation.
		reads = reads[:0]
		for _, op := range gen.Ops(opts.OpsPerEpoch) {
			if op.Read {
				t.tick()
				rep.Reads++
				reads = append(reads, op.Key)
				continue
			}
			rep.Writes++
			t.honest(op.Key, op.Source)
		}
		// 2. The attack: Algorithm 1 against the victim's visible content
		// (the write-plane truth — an insertion adversary sees what it can
		// write around, not the lagging read plane).
		if opts.EpochBudget > 0 {
			g, err := GreedyMultiPoint(t.vFront.Keys(), opts.EpochBudget, execOpts...)
			if err != nil {
				return ServeResult{}, fmt.Errorf("core: serve epoch %d oracle: %w", e+1, err)
			}
			rep.Injected = t.inject(g.Poison...)
		}
		// 3. Maintenance.
		if opts.Policy.Kind == dynamic.Manual {
			t.retrain()
		}
		// 4. Measurement. The read keys are only consumed by the probe
		// evaluation and integer probe sums are order-invariant, so sorting
		// them in place (the batch kernel's precondition) changes no column.
		rep.PoisonTotal, rep.Displaced = len(t.poison), t.displaced
		slices.Sort(reads)
		measureServe(&rep, t, reads)
		res.Epochs = append(res.Epochs, rep)
	}
	// Epochs >= 1 is validated, so the last report is always present; its
	// cumulative retrain count is the scenario total (no extra Stats scan).
	res.Retrains = res.Epochs[len(res.Epochs)-1].Retrains
	res.Defense = t.defense
	res.Poison, err = t.poisonSet("serve")
	if err != nil {
		return ServeResult{}, err
	}
	return res, nil
}

// measureServe fills the epoch report's loss, probe, and shard columns.
// Loss, imbalance, and buffer columns read the LIVE shard state (the
// admin-plane truth the operator's dashboards aggregate); probe columns
// are measured against each pipeline's PUBLISHED read plane, captured once
// as an immutable snapshot and evaluated over the caller-sorted read batch
// with one sorted-batch kernel pass per side (DESIGN.md §12).
func measureServe(rep *ServeEpochReport, t *twin[*shard.Index], reads []int64) {
	// Per-shard stats are the expensive part (ContentLoss is an O(shard)
	// scan); collect them once per side and fold the aggregates from them,
	// instead of paying a second full pass through victim.Stats().
	vShards, cShards := t.victim.ShardStats(), t.clean.ShardStats()
	v := shard.Aggregate(len(vShards), func(i int) index.Stats { return vShards[i] })
	c := shard.Aggregate(len(cShards), func(i int) index.Stats { return cShards[i] })
	rep.Retrains = v.Retrains
	rep.BufferLen = v.Buffered
	rep.CleanLoss = c.ContentLoss
	rep.PoisonedLoss = v.ContentLoss
	rep.RatioLoss = SafeRatio(rep.PoisonedLoss, rep.CleanLoss)
	rep.Imbalance = t.victim.Imbalance()

	rep.Shards = make([]ServeShardReport, len(vShards))
	for i := range vShards {
		rep.Shards[i] = ServeShardReport{Shard: i, RatioLoss: SafeRatio(vShards[i].ContentLoss, cShards[i].ContentLoss)}
	}

	total := measurePair(reads, t.cPipe.Snapshot(), t.vPipe.Snapshot())
	rep.CleanProbes, rep.PoisonedProbes = total.means(len(reads))
}
