package core

// The split-cascade attack: the structural complexity attack against the
// ALEX-family gapped-array backend (internal/alex). Where ChurnAttack
// maximizes rebuild frequency × staleness on the retrain pipeline,
// CascadeAttack's adversary maximizes the index's STRUCTURAL maintenance
// cost — slot writes from shifts, leaf splits, and fanout-overflow rebuild
// cascades — by drip-feeding keys into the densest gapped leaf, where each
// insert shifts the longest occupied runs and pushes occupancy toward the
// split threshold ("Poisoning Learned Index Structures: Static and Dynamic
// Adversarial Attacks on ALEX", PAPERS.md; design in DESIGN.md §9).

import (
	"fmt"
	"sort"

	"cdfpoison/internal/alex"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/workload"
)

// CascadeOptions parameterizes the split-cascade scenario.
type CascadeOptions struct {
	// Epochs is the number of serving epochs (>= 1).
	Epochs int
	// OpsPerEpoch is the honest operation count per epoch, drawn from
	// Workload (>= 0).
	OpsPerEpoch int
	// EpochBudget is the attacker's poison-key budget per epoch (>= 0),
	// drip-fed evenly through the epoch's honest traffic.
	EpochBudget int
	// LeafTarget is the victim's bulk-load leaf size (0 selects
	// alex.DefaultLeafTarget). Smaller leaves mean a tighter fanout limit —
	// cascades within reach of a smaller budget.
	LeafTarget int
	// Workload is the honest traffic mix.
	Workload workload.Spec
	// Domain is the write-key universe size; 0 defaults to twice the
	// initial key span, 2·(max+1), saturated at MaxInt64.
	Domain int64
	// Seed drives the workload stream.
	Seed uint64
	// Defense arms the defense plane on victim and clean twin alike; the
	// zero value changes nothing (see DefenseSpec). The cascade-native
	// mechanisms are BalancedSplit (splits land in the widest key-space gap,
	// so the attacker's dense corner stops concentrating occupancy), the
	// gap-outlier detector (poison keys sit at gap edges by construction),
	// and rate limiting (the drip needs sustained write pressure). The
	// Fitter field is ignored — the gapped-array backend has no pluggable
	// CDF fit.
	Defense DefenseSpec
}

func (o CascadeOptions) validate() error {
	if err := validateStream("cascade", o.Epochs, o.OpsPerEpoch, o.EpochBudget); err != nil {
		return err
	}
	if o.LeafTarget < 0 {
		return fmt.Errorf("core: negative leaf target %d", o.LeafTarget)
	}
	return o.Workload.Validate()
}

// CascadeEpochReport is the scenario state measured at the end of one
// epoch. Structural columns (shift writes, splits, cascades, rebuilt keys)
// are CUMULATIVE; DamageScore is this epoch's delta, composed as the
// attacker's objective: shift cost × split depth × triggered rebuilds.
type CascadeEpochReport struct {
	Epoch int // 1-based
	// Reads/Writes count this epoch's honest operations; Injected is this
	// epoch's accepted poison; TargetNode/TargetDensity describe the leaf
	// the attacker chose.
	Reads, Writes int
	Injected      int
	TargetNode    int
	TargetDensity float64
	PoisonTotal   int // cumulative accepted poison
	// Structural accounting, cumulative, victim vs clean counterfactual.
	ShiftWrites, CleanShiftWrites int64
	Splits, CleanSplits           int
	Cascades, CleanCascades       int
	Nodes, CleanNodes             int
	// StructCost is the total slot-write cost of structural maintenance
	// (shift writes + keys rehomed by splits and cascades); StructRatio is
	// victim/clean — the headline "price of tailoring" number, which grows
	// super-linearly in the budget when cascades land.
	StructCost, CleanStructCost int64
	StructRatio                 float64
	// DamageScore is this epoch's structural damage: shift-write delta ×
	// (1 + split delta) × (1 + retrain delta).
	DamageScore float64
	// Probe cost of this epoch's inline reads on both indexes.
	CleanProbeTotal, PoisonedProbeTotal int64
	CleanProbes, PoisonedProbes         float64
	ProbeRatio                          float64
	// Live model-vs-content loss and the victim/clean ratio: structural
	// drift (keys shifted off their predicted slots) shows up here.
	CleanLoss, PoisonedLoss float64
	RatioLoss               float64
}

// CascadeResult reports the full split-cascade scenario.
type CascadeResult struct {
	Epochs []CascadeEpochReport
	Poison keys.Set // union of all accepted poison keys
	// VictimStruct / CleanStruct are the final structural accountings.
	VictimStruct, CleanStruct alex.StructStats
	// Defense is the defense-plane accounting (zero when no defense armed).
	Defense DefenseReport
}

// FinalStructRatio returns the last epoch's victim/clean structural-cost
// ratio.
func (r CascadeResult) FinalStructRatio() float64 {
	if len(r.Epochs) == 0 {
		return 1
	}
	return r.Epochs[len(r.Epochs)-1].StructRatio
}

// cascadeCandidate is one craftable poison key: an absent integer key
// interior to a leaf's stored range, so the router is guaranteed to deliver
// it to that leaf.
type cascadeCandidate struct {
	node int
	key  int64
}

// cascadePlan is the per-epoch oracle. The attacker ranks leaves by
// occupancy density (the densest leaf is where shifts are longest and the
// split threshold nearest), harvests candidate keys from the key-space gaps
// of the densest leaves, prices each candidate with the victim's pure
// insert-cost oracle — slot writes the current layout would pay — and keeps
// the budget's worth of most expensive keys. It prices at most 4·budget
// candidates, sequentially.
func cascadePlan(v *alex.Index, budget int) ([]int64, int, float64) {
	type rank struct {
		i       int
		density float64
	}
	ranks := make([]rank, v.NumNodes())
	for i := range ranks {
		ranks[i] = rank{i: i, density: v.NodeInfo(i).Density()}
	}
	sort.SliceStable(ranks, func(a, b int) bool { return ranks[a].density > ranks[b].density })
	target, targetDensity := ranks[0].i, ranks[0].density

	var cands []cascadeCandidate
	for _, r := range ranks {
		ks := v.NodeKeys(r.i)
		for j := 1; j < len(ks); j++ {
			a, b := ks[j-1], ks[j]
			if b-a >= 2 {
				cands = append(cands, cascadeCandidate{node: r.i, key: a + 1})
			}
			if b-a >= 3 {
				cands = append(cands, cascadeCandidate{node: r.i, key: b - 1})
			}
		}
		if len(cands) >= 4*budget {
			break
		}
	}
	if len(cands) == 0 {
		return nil, target, targetDensity
	}
	costs := make([]int, len(cands))
	order := make([]int, len(cands))
	for i, c := range cands {
		costs[i] = v.InsertCost(c.node, c.key)
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ca, cb := order[a], order[b]
		if costs[ca] != costs[cb] {
			return costs[ca] > costs[cb]
		}
		return cands[ca].key < cands[cb].key
	})
	if len(order) > budget {
		order = order[:budget]
	}
	poison := make([]int64, len(order))
	for i, idx := range order {
		poison[i] = cands[idx].key
	}
	return poison, target, targetDensity
}

// CascadeAttack mounts the split-cascade scenario: an adversary with a
// per-epoch key budget drip-feeds crafted keys into the gapped-array
// index's densest leaf while an honest population reads and writes it. The
// clean counterfactual runs the identical operation stream without poison,
// so every shift write, split, and cascade beyond the counterfactual's is
// attacker-caused.
//
// Each epoch:
//
//  1. The attacker inspects the victim's live leaf table, targets the
//     densest leaf, and prices candidate keys with the insert-cost oracle
//     (cascadePlan) — the most expensive B keys become the epoch's poison.
//  2. The epoch's honest operations stream through both indexes; reads are
//     probe-counted inline on both. The poison budget is drip-fed evenly
//     through the honest stream, exactly as in ChurnAttack.
//  3. Maintenance is the structure's own: leaves split as occupancy
//     crosses the threshold, and the root rebuilds when splitting
//     overflows its fanout — the cascade the attacker is farming. No
//     explicit retrain is issued.
//  4. The epoch report captures cumulative structural accounting for both
//     indexes, the victim/clean structural-cost and probe ratios, and the
//     epoch's damage score.
//
// Determinism contract: the scenario is sequential; WithWorkers changes
// nothing. WithCancellation aborts between epochs and between operations.
func CascadeAttack(initial keys.Set, opts CascadeOptions, execOpts ...Option) (CascadeResult, error) {
	if err := opts.validate(); err != nil {
		return CascadeResult{}, err
	}
	build := alex.New
	if opts.Defense.BalancedSplit {
		build = alex.NewBalanced
	}
	ex := newExec(execOpts)
	// The guard wraps only the WRITE path: the oracle and the structural
	// accounting keep reading the concrete gapped-array index.
	t, err := buildTwin(initial, func(ks keys.Set) (*alex.Index, error) {
		return build(ks, opts.LeafTarget)
	}, opts.Defense, nil, ex)
	if err != nil {
		return CascadeResult{}, err
	}
	gen, err := newStream(opts.Workload, initial, opts.Domain, opts.Seed, opts.Defense.Sources)
	if err != nil {
		return CascadeResult{}, err
	}
	res := CascadeResult{Epochs: make([]CascadeEpochReport, 0, opts.Epochs)}
	for e := 0; e < opts.Epochs; e++ {
		if err := ex.ctx.Err(); err != nil {
			return CascadeResult{}, err
		}
		rep := CascadeEpochReport{Epoch: e + 1}
		pre := t.victim.Struct()
		preRetrains := t.victim.Stats().Retrains

		// 1. Plan: densest leaf, priced candidates, top-budget poison.
		var poison []int64
		if opts.EpochBudget > 0 {
			poison, rep.TargetNode, rep.TargetDensity = cascadePlan(t.victim, opts.EpochBudget)
		}

		// 2. Serve: honest ops with the poison drip interleaved.
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
		})
		if err != nil {
			return CascadeResult{}, err
		}

		// 3. Maintenance is structural and already happened inline.
		// 4. Measurement.
		rep.PoisonTotal = len(t.poison)
		sv, sc := t.victim.Struct(), t.clean.Struct()
		rep.ShiftWrites, rep.CleanShiftWrites = sv.ShiftWrites, sc.ShiftWrites
		rep.Splits, rep.CleanSplits = sv.Splits, sc.Splits
		rep.Cascades, rep.CleanCascades = sv.Cascades, sc.Cascades
		rep.Nodes, rep.CleanNodes = sv.Nodes, sc.Nodes
		rep.StructCost, rep.CleanStructCost = sv.Cost(), sc.Cost()
		rep.StructRatio = SafeRatio(float64(rep.StructCost), float64(rep.CleanStructCost))
		vs, cs, ratio := t.losses()
		rep.DamageScore = float64(sv.ShiftWrites-pre.ShiftWrites) *
			float64(1+sv.Splits-pre.Splits) *
			float64(1+vs.Retrains-preRetrains)
		rep.CleanLoss, rep.PoisonedLoss, rep.RatioLoss = cs.ContentLoss, vs.ContentLoss, ratio
		if rep.Reads > 0 {
			rep.CleanProbes = float64(rep.CleanProbeTotal) / float64(rep.Reads)
			rep.PoisonedProbes = float64(rep.PoisonedProbeTotal) / float64(rep.Reads)
			rep.ProbeRatio = SafeRatio(rep.PoisonedProbes, rep.CleanProbes)
		}
		res.Epochs = append(res.Epochs, rep)
	}
	res.VictimStruct = t.victim.Struct()
	res.CleanStruct = t.clean.Struct()
	res.Defense = t.defense
	res.Poison, err = t.poisonSet("cascade")
	if err != nil {
		return CascadeResult{}, err
	}
	return res, nil
}
