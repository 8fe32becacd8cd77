package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"cdfpoison/internal/dataset"
	"cdfpoison/internal/dynamic"
	"cdfpoison/internal/index"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/workload"
	"cdfpoison/internal/xrand"
)

func serveFixture(t testing.TB, n int) keys.Set {
	t.Helper()
	initial, err := dataset.Uniform(xrand.New(2026), n, int64(n)*40)
	if err != nil {
		t.Fatal(err)
	}
	return initial
}

func serveOpts(shards int) ServeOptions {
	return ServeOptions{
		Epochs:      3,
		OpsPerEpoch: 80,
		EpochBudget: 20,
		Shards:      shards,
		Policy:      dynamic.ManualPolicy(),
		Workload:    workload.NewZipf(1.1, 85),
		Seed:        7,
	}
}

func TestServeValidation(t *testing.T) {
	initial := serveFixture(t, 100)
	base := serveOpts(2)
	for name, mutate := range map[string]func(*ServeOptions){
		"no-epochs":       func(o *ServeOptions) { o.Epochs = 0 },
		"negative-ops":    func(o *ServeOptions) { o.OpsPerEpoch = -1 },
		"negative-budget": func(o *ServeOptions) { o.EpochBudget = -1 },
		"no-shards":       func(o *ServeOptions) { o.Shards = 0 },
		"bad-workload":    func(o *ServeOptions) { o.Workload = workload.NewZipf(-1, 90) },
		"bad-policy":      func(o *ServeOptions) { o.Policy = dynamic.EveryKInserts(0) },
	} {
		opts := base
		mutate(&opts)
		if _, err := ServeAttack(initial, opts); err == nil {
			t.Errorf("%s: invalid options accepted", name)
		}
	}
	// Too few keys per shard.
	tiny := serveFixture(t, 10)
	opts := base
	opts.Shards = 6
	if _, err := ServeAttack(tiny, opts); err == nil {
		t.Error("6 shards over 10 keys accepted")
	}
}

// TestServeTrajectory: the scenario's basic shape under the manual policy —
// reads+writes counted, poison injected within budget, every shard
// retrained once per epoch, damage compounds against the counterfactual.
func TestServeTrajectory(t *testing.T) {
	initial := serveFixture(t, 400)
	opts := serveOpts(4)
	res, err := ServeAttack(initial, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards != 4 || len(res.Epochs) != opts.Epochs {
		t.Fatalf("shape: %d shards, %d epochs", res.Shards, len(res.Epochs))
	}
	for i, e := range res.Epochs {
		if e.Epoch != i+1 {
			t.Fatalf("epoch %d numbered %d", i, e.Epoch)
		}
		if e.Reads+e.Writes != opts.OpsPerEpoch {
			t.Fatalf("epoch %d: %d reads + %d writes != %d ops", e.Epoch, e.Reads, e.Writes, opts.OpsPerEpoch)
		}
		if e.Injected < 1 || e.Injected > opts.EpochBudget {
			t.Fatalf("epoch %d: injected %d (budget %d)", e.Epoch, e.Injected, opts.EpochBudget)
		}
		// Manual policy: 4 shards × epoch forced retrains.
		if e.Retrains != 4*(i+1) {
			t.Fatalf("epoch %d: retrains %d, want %d", e.Epoch, e.Retrains, 4*(i+1))
		}
		if e.BufferLen != 0 {
			t.Fatalf("epoch %d: %d buffered after forced retrain", e.Epoch, e.BufferLen)
		}
		if e.RatioLoss <= 0 {
			t.Fatalf("epoch %d: degenerate ratio %v", e.Epoch, e.RatioLoss)
		}
		if len(e.Shards) != 4 {
			t.Fatalf("epoch %d: %d shard reports", e.Epoch, len(e.Shards))
		}
		if e.Reads > 0 && (e.CleanProbes <= 0 || e.PoisonedProbes <= 0) {
			t.Fatalf("epoch %d: probe means missing", e.Epoch)
		}
	}
	last := res.Epochs[len(res.Epochs)-1]
	if res.MaxRatio() <= 1 {
		t.Fatalf("no epoch registered aggregate damage: max ratio %v", res.MaxRatio())
	}
	// The sharded signature: the oracle optimizes the GLOBAL CDF, so its
	// poison cluster lands inside ONE shard's range — the aggregate
	// (key-weighted) ratio dilutes across shards while the hit shard's own
	// ratio compounds epoch over epoch. Asserting both directions pins the
	// per-shard visibility the sharded report exists for.
	worstPerEpoch := func(e ServeEpochReport) float64 {
		best := 0.0
		for _, s := range e.Shards {
			if s.RatioLoss > best {
				best = s.RatioLoss
			}
		}
		return best
	}
	if wf, wl := worstPerEpoch(res.Epochs[0]), worstPerEpoch(last); wl <= wf {
		t.Fatalf("worst-shard ratio did not compound: %v -> %v", wf, wl)
	}
	if res.MaxShardRatio() < 2 {
		t.Fatalf("worst shard ratio %v — concentration missing", res.MaxShardRatio())
	}
	if res.MaxShardRatio() < res.MaxRatio() {
		t.Fatalf("worst shard ratio %v below aggregate %v", res.MaxShardRatio(), res.MaxRatio())
	}
	// Poisoning must cost honest readers probes over the whole scenario.
	var cleanTotal, poisTotal float64
	for _, e := range res.Epochs {
		cleanTotal += e.CleanProbes * float64(e.Reads)
		poisTotal += e.PoisonedProbes * float64(e.Reads)
	}
	if poisTotal <= cleanTotal {
		t.Fatalf("poisoning did not raise cumulative read cost: %v vs %v", poisTotal, cleanTotal)
	}
	if res.Poison.Len() != last.PoisonTotal {
		t.Fatalf("poison set %d != cumulative %d", res.Poison.Len(), last.PoisonTotal)
	}
}

// TestServeZeroCostGolden: the zero-cost pipeline is byte-identical to the
// historical synchronous path. The zero VALUE and an explicitly spelled
// zero model must both produce exactly the default scenario output —
// reports, poison set, probe means, everything. (The CSV-level half of
// this golden lives in EXPERIMENTS.md: the serve.csv fingerprint is
// unchanged across the plane refactor.)
func TestServeZeroCostGolden(t *testing.T) {
	initial := serveFixture(t, 400)
	base, err := ServeAttack(initial, serveOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	for name, cost := range map[string]index.CostModel{
		"zero-value":     {},
		"explicit-fixed": {Fixed: 0},
	} {
		opts := serveOpts(4)
		opts.RebuildCost = cost
		got, err := ServeAttack(initial, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("%s: output differs from the synchronous golden", name)
		}
	}
}

// TestServeRebuildCostStaleness: a non-zero rebuild cost opens stale
// windows — epoch-end retrains are still in flight when probes are
// measured, so the probe columns read the frozen pre-rebuild plane and
// differ from the zero-cost run, while the loss columns, which read the
// live admin plane, match it.
func TestServeRebuildCostStaleness(t *testing.T) {
	initial := serveFixture(t, 400)
	opts := serveOpts(4)
	base, err := ServeAttack(initial, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.RebuildCost = index.CostModel{Fixed: 1_000} // far longer than an epoch
	res, err := ServeAttack(initial, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range res.Epochs {
		b := base.Epochs[i]
		if e.CleanLoss != b.CleanLoss || e.PoisonedLoss != b.PoisonedLoss || e.Retrains != b.Retrains {
			t.Fatalf("epoch %d: live columns moved with the rebuild cost: %+v vs %+v", e.Epoch, e, b)
		}
		if e.CleanProbes == b.CleanProbes && e.PoisonedProbes == b.PoisonedProbes {
			t.Fatalf("epoch %d: expected a stale read plane under fixed cost 1000", e.Epoch)
		}
	}
	// The scenario stays deterministic across worker counts with costs on.
	res2, err := ServeAttack(initial, opts, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, res2) {
		t.Fatal("rebuild-cost scenario diverges across worker counts")
	}
}

// TestServeWorkerEquivalence is the serving scenario's half of the
// acceptance contract: the ENTIRE result — every epoch report, every
// per-shard row, every probe mean — is byte-identical for workers=1 and
// workers=NumCPU.
func TestServeWorkerEquivalence(t *testing.T) {
	initial := serveFixture(t, 500)
	for _, tc := range []struct {
		name string
		opts ServeOptions
	}{
		{"manual-4", serveOpts(4)},
		{"manual-1", serveOpts(1)},
		{"buffer-2", func() ServeOptions {
			o := serveOpts(2)
			o.Policy = dynamic.BufferLimit(16)
			o.Workload = workload.NewHotspot(2, 85)
			return o
		}()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := ServeAttack(initial, tc.opts, WithWorkers(1))
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range workerCounts() {
				got, err := ServeAttack(initial, tc.opts, WithWorkers(w))
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("workers=%d: serve scenario diverged from sequential", w)
				}
			}
		})
	}
}

// TestServeSingleShardMatchesDynamicGolden is the other half: with N=1 the
// sharded scenario must reproduce, number for number, a hand-driven
// unsharded dynamic index fed the same operation and poison stream. The
// golden loop below IS the scenario spec, written against the concrete
// dynamic index with no shard package involvement.
func TestServeSingleShardMatchesDynamicGolden(t *testing.T) {
	initial := serveFixture(t, 300)
	opts := serveOpts(1)
	res, err := ServeAttack(initial, opts)
	if err != nil {
		t.Fatal(err)
	}

	victim, err := dynamic.New(initial, opts.Policy)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := dynamic.New(initial, opts.Policy)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(opts.Workload, initial, 2*(initial.Max()+1), opts.Seed)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < opts.Epochs; e++ {
		var reads []int64
		for _, op := range gen.Ops(opts.OpsPerEpoch) {
			if op.Read {
				reads = append(reads, op.Key)
				continue
			}
			clean.Insert(op.Key)
			victim.Insert(op.Key)
		}
		g, err := GreedyMultiPoint(victim.Keys(), opts.EpochBudget)
		if err != nil {
			t.Fatal(err)
		}
		injected := 0
		for _, k := range g.Poison {
			if ok, _ := victim.Insert(k); ok {
				injected++
			}
		}
		victim.Retrain()
		clean.Retrain()

		rep := res.Epochs[e]
		if rep.Injected != injected {
			t.Fatalf("epoch %d: injected %d, golden %d", e+1, rep.Injected, injected)
		}
		vst, cst := victim.Stats(), clean.Stats()
		if rep.PoisonedLoss != vst.ContentLoss || rep.CleanLoss != cst.ContentLoss {
			t.Fatalf("epoch %d: losses (%v, %v) != golden (%v, %v)",
				e+1, rep.PoisonedLoss, rep.CleanLoss, vst.ContentLoss, cst.ContentLoss)
		}
		if rep.Retrains != vst.Retrains {
			t.Fatalf("epoch %d: retrains %d != golden %d", e+1, rep.Retrains, vst.Retrains)
		}
		vProbes, _ := victim.ProbeSum(reads)
		cProbes, _ := clean.ProbeSum(reads)
		vMean, cMean := float64(vProbes)/float64(len(reads)), float64(cProbes)/float64(len(reads))
		if rep.PoisonedProbes != vMean || rep.CleanProbes != cMean {
			t.Fatalf("epoch %d: probe means (%v, %v) != golden (%v, %v)",
				e+1, rep.PoisonedProbes, rep.CleanProbes, vMean, cMean)
		}
		if len(rep.Shards) != 1 || rep.Shards[0].RatioLoss != SafeRatio(vst.ContentLoss, cst.ContentLoss) {
			t.Fatalf("epoch %d: single-shard report mismatch: %+v", e+1, rep.Shards)
		}
		if rep.Imbalance != 1 {
			t.Fatalf("epoch %d: imbalance %v with one shard", e+1, rep.Imbalance)
		}
	}
	// Poison accounting: the victim holds exactly the poison keys on top of
	// the clean index, minus the honest arrivals poison displaced.
	lastDisplaced := res.Epochs[len(res.Epochs)-1].Displaced
	if victim.Len()-clean.Len() != res.Poison.Len()-lastDisplaced {
		t.Fatalf("poison accounting: victim-clean delta %d, poison %d - displaced %d",
			victim.Len()-clean.Len(), res.Poison.Len(), lastDisplaced)
	}
}

// TestServeShardingConcentratesDamage: under a hotspot mix the worst
// per-shard ratio of a sharded victim must exceed its aggregate ratio —
// the per-shard visibility is the point of the sharded report.
func TestServeShardingConcentratesDamage(t *testing.T) {
	initial := serveFixture(t, 600)
	opts := serveOpts(4)
	opts.Workload = workload.NewHotspot(5, 85)
	res, err := ServeAttack(initial, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxShardRatio() <= 1 {
		t.Fatalf("no shard damaged: worst ratio %v", res.MaxShardRatio())
	}
}

// TestServeZeroBudget: with no attacker the victim IS the counterfactual.
func TestServeZeroBudget(t *testing.T) {
	initial := serveFixture(t, 300)
	opts := serveOpts(3)
	opts.EpochBudget = 0
	res, err := ServeAttack(initial, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Epochs {
		if e.Injected != 0 || e.PoisonTotal != 0 || e.Displaced != 0 {
			t.Fatalf("epoch %d: attacker activity with zero budget: %+v", e.Epoch, e)
		}
		if e.RatioLoss != 1 {
			t.Fatalf("epoch %d: ratio %v != 1", e.Epoch, e.RatioLoss)
		}
		if e.CleanProbes != e.PoisonedProbes {
			t.Fatalf("epoch %d: probe means diverged without poisoning", e.Epoch)
		}
	}
	if res.Poison.Len() != 0 {
		t.Fatal("poison set non-empty")
	}
}

// TestServeCancellation: a cancelled context aborts the scenario.
func TestServeCancellation(t *testing.T) {
	initial := serveFixture(t, 2_000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ServeAttack(initial, serveOpts(2), WithWorkers(2), WithContext(ctx))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
