package bench

import (
	"fmt"
	"time"

	"cdfpoison/internal/alex"
	"cdfpoison/internal/btree"
	"cdfpoison/internal/core"
	"cdfpoison/internal/defense"
	"cdfpoison/internal/dynamic"
	"cdfpoison/internal/index"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/rmi"
	"cdfpoison/internal/shard"
)

// LookupCell compares the learned index's lookup cost before and after the
// RMI attack, on one distribution — Extension A in DESIGN.md. This is the
// consequence the paper motivates (poisoning degrades index performance) but
// could only report as ratio loss; with our own RMI substrate we can measure
// it in probes and search-window widths.
type LookupCell struct {
	Dist               Distribution
	Keys               int
	Fanout             int
	PoisonPct          float64
	CleanProbes        float64 // mean probes per stored-key lookup, clean index
	PoisonedProbes     float64 // same, after retraining on K ∪ P
	CleanAvgWindow     float64
	PoisonedAvgWindow  float64
	CleanMaxWindow     int
	PoisonedMaxWindow  int
	SecondStageMSEGain float64 // poisoned/clean second-stage MSE of the built index
}

// LookupDegradation runs Extension A for uniform and log-normal keys.
func LookupDegradation(opts Options) ([]LookupCell, error) {
	opts = opts.fill()
	n := 20_000
	if opts.Scale == ScaleQuick {
		n = 4_000
	}
	const pct = 10.0
	root := opts.rng()
	var out []LookupCell
	for _, dist := range []Distribution{DistUniform, DistLogNormal} {
		rng := root.Split()
		ks, err := dist.generate(rng, n, int64(n)*50)
		if err != nil {
			return nil, fmt.Errorf("bench: lookup %s: %w", dist, err)
		}
		fanout := n / 100
		atk, err := core.RMIAttack(ks, core.RMIAttackOptions{
			NumModels: fanout,
			Percent:   pct,
			Alpha:     3,
			MaxMoves:  maxMovesFor(opts.Scale, fanout),
		})
		if err != nil {
			return nil, fmt.Errorf("bench: lookup attack %s: %w", dist, err)
		}
		poisoned := ks.Union(atk.Poison)

		cleanIdx, err := rmi.Build(ks, rmi.Config{Fanout: fanout})
		if err != nil {
			return nil, err
		}
		// The victim retrains the index on the augmented data, as in the
		// paper's threat model (injection happens before initialization).
		poisIdx, err := rmi.Build(poisoned, rmi.Config{Fanout: fanout})
		if err != nil {
			return nil, err
		}
		// Query cost over the legitimate keys only: the attacker degrades
		// the honest users' workload.
		cleanProbes, _ := cleanIdx.AvgProbes(ks.Keys())
		poisProbes, _ := poisIdx.AvgProbes(ks.Keys())
		cs, ps := cleanIdx.Stats(), poisIdx.Stats()
		cell := LookupCell{
			Dist:              dist,
			Keys:              n,
			Fanout:            fanout,
			PoisonPct:         pct,
			CleanProbes:       cleanProbes,
			PoisonedProbes:    poisProbes,
			CleanAvgWindow:    cs.AvgWindow,
			PoisonedAvgWindow: ps.AvgWindow,
			CleanMaxWindow:    cs.MaxWindow,
			PoisonedMaxWindow: ps.MaxWindow,
		}
		if cs.SecondStageMSE > 0 {
			cell.SecondStageMSEGain = ps.SecondStageMSE / cs.SecondStageMSE
		}
		out = append(out, cell)
	}
	return out, nil
}

// BackendCell is one backend of Extension B: every index substrate behind
// index.Backend, fed the same keys and the same poison, measured through
// the one ProbeSum code path. Probes are key comparisons everywhere, so
// the cells are directly comparable.
type BackendCell struct {
	Backend        string
	Keys           int
	CleanProbes    float64 // mean probes per stored-key lookup, clean build
	PoisonedProbes float64 // same, after absorbing the poison and retraining
	ProbeInflation float64 // PoisonedProbes / CleanProbes
	CleanWindow    int     // guaranteed model window (0 for model-free)
	PoisonedWindow int
	Retrains       int // retrains the poisoned side performed
}

// CompareBackends runs Extension B on uniform keys: the same greedy poison
// set (Algorithm 1, 10% budget) is inserted into each backend — updatable
// learned index, single-model RMI, 4-way sharded index, B-Tree — followed
// by one maintenance retrain, and lookup cost over the legitimate keys is
// measured before and after through index.Backend.ProbeSum alone. The
// B-Tree row is the control: a balanced structure absorbs the same keys
// with essentially unchanged probes, which is the paper's motivating
// trade-off made measurable. Every substrate also gets a "guarded-" twin
// behind the standard detector chain (defense.Guard): its probe-inflation
// column reads how much of the damage an insert-time screen recovers on
// that substrate, through the identical measurement path.
func CompareBackends(opts Options) ([]BackendCell, error) {
	opts = opts.fill()
	n := 50_000
	if opts.Scale == ScaleQuick {
		n = 5_000
	}
	rng := opts.rng()
	ks, err := DistUniform.generate(rng, n, int64(n)*20)
	if err != nil {
		return nil, err
	}
	atk, err := core.GreedyMultiPoint(ks, n/10)
	if err != nil {
		return nil, err
	}
	type backend struct {
		name  string
		build func(keys.Set) (index.Backend, error)
	}
	backends := []backend{
		{"dynamic", func(ks keys.Set) (index.Backend, error) {
			return dynamic.New(ks, dynamic.ManualPolicy())
		}},
		{"rmi-single", func(ks keys.Set) (index.Backend, error) {
			return rmi.NewSingle(ks)
		}},
		{"shard-4", func(ks keys.Set) (index.Backend, error) {
			return shard.New(ks, 4, dynamic.ManualPolicy())
		}},
		{"alex", func(ks keys.Set) (index.Backend, error) {
			return alex.New(ks, 0)
		}},
		{"btree", func(ks keys.Set) (index.Backend, error) {
			return btree.Bulk(32, ks.Keys())
		}},
	}
	chain := defenseChain("density:8:3|dupmass:3:3")
	for _, b := range backends[:len(backends):len(backends)] {
		inner := b.build
		backends = append(backends, backend{"guarded-" + b.name, func(ks keys.Set) (index.Backend, error) {
			base, err := inner(ks)
			if err != nil {
				return nil, err
			}
			return defense.NewGuard(base, defense.GuardOptions{Policies: chain}), nil
		}})
	}
	legit := ks.Keys()
	var out []BackendCell
	for _, b := range backends {
		clean, err := b.build(ks)
		if err != nil {
			return nil, fmt.Errorf("bench: backend %s: %w", b.name, err)
		}
		cleanProbes, _ := clean.ProbeSum(legit)
		victim, err := b.build(ks)
		if err != nil {
			return nil, fmt.Errorf("bench: backend %s: %w", b.name, err)
		}
		for _, k := range atk.Poison {
			victim.Insert(k)
		}
		victim.Retrain()
		poisProbes, _ := victim.ProbeSum(legit)
		cell := BackendCell{
			Backend:        b.name,
			Keys:           n,
			CleanProbes:    float64(cleanProbes) / float64(n),
			PoisonedProbes: float64(poisProbes) / float64(n),
			CleanWindow:    clean.Stats().Window,
			PoisonedWindow: victim.Stats().Window,
			Retrains:       victim.Stats().Retrains,
		}
		if cell.CleanProbes > 0 {
			cell.ProbeInflation = cell.PoisonedProbes / cell.CleanProbes
		}
		out = append(out, cell)
	}
	return out, nil
}

// TrimCell is Extension C: the TRIM defense against the greedy CDF attack.
type TrimCell struct {
	Keys        int
	PoisonPct   float64
	Precision   float64
	Recall      float64
	AttackRatio float64 // ratio loss before the defense
	// AfterRatio is the loss of the set TRIM kept over the clean loss: what
	// the defense salvaged, with its collateral.
	AfterRatio float64
	Millis     int64 // wall time: the re-calibration overhead
}

// TrimDefense runs Extension C over uniform data at several poisoning rates.
func TrimDefense(opts Options) ([]TrimCell, error) {
	opts = opts.fill()
	n := 1_000
	if opts.Scale == ScaleQuick {
		n = 300
	}
	root := opts.rng()
	var out []TrimCell
	for _, pct := range []float64{5, 10, 20} {
		rng := root.Split()
		clean, err := DistUniform.generate(rng, n, int64(n)*20)
		if err != nil {
			return nil, err
		}
		budget := int(float64(n) * pct / 100)
		g, err := core.GreedyMultiPoint(clean, budget)
		if err != nil {
			return nil, err
		}
		poisonSet, err := keys.NewStrict(g.Poison)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		tr, err := defense.TrimCDF(g.Poisoned, clean.Len(), defense.TrimOptions{Restarts: 2, Seed: opts.Seed})
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		ev, err := defense.Evaluate(clean, poisonSet, tr.Removed, tr.Kept)
		if err != nil {
			return nil, err
		}
		out = append(out, TrimCell{
			Keys:        n,
			PoisonPct:   pct,
			Precision:   ev.Precision,
			Recall:      ev.Recall,
			AttackRatio: g.RatioLoss(),
			AfterRatio:  core.SafeRatio(ev.KeptLoss, ev.CleanLossBefore),
			Millis:      elapsed.Milliseconds(),
		})
	}
	return out, nil
}

// EndpointAblation validates and measures the Theorem 2 endpoint enumeration
// against the brute-force sweep (Ablation 1).
type EndpointAblation struct {
	Keys            int
	Domain          int64
	OptCandidates   int
	BruteCandidates int
	Agree           bool
	OptMicros       int64
	BruteMicros     int64
}

// EndpointsVsBrute runs Ablation 1 on one uniform key set.
func EndpointsVsBrute(opts Options) (EndpointAblation, error) {
	opts = opts.fill()
	n := 2_000
	if opts.Scale == ScaleQuick {
		n = 500
	}
	domain := int64(n) * 500 // low density: brute force pays for the domain
	rng := opts.rng()
	ks, err := DistUniform.generate(rng, n, domain)
	if err != nil {
		return EndpointAblation{}, err
	}
	start := time.Now()
	// Pinned to the full scan so opt_candidates keeps the classic 2(n−1)
	// endpoint count this ablation's CSV has always recorded; the pruned
	// scan gets its own ablation rows in the perf sweep ("single" vs
	// "single-full" vs "brute").
	opt, err := core.OptimalSinglePoint(ks, core.WithExhaustiveScan())
	optD := time.Since(start)
	if err != nil {
		return EndpointAblation{}, err
	}
	start = time.Now()
	brt, err := core.BruteForceSinglePoint(ks)
	brtD := time.Since(start)
	if err != nil {
		return EndpointAblation{}, err
	}
	agree := opt.PoisonedLoss >= brt.PoisonedLoss*(1-1e-9) &&
		opt.PoisonedLoss <= brt.PoisonedLoss*(1+1e-9)
	return EndpointAblation{
		Keys:            n,
		Domain:          domain,
		OptCandidates:   opt.Candidates,
		BruteCandidates: brt.Candidates,
		Agree:           agree,
		OptMicros:       optD.Microseconds(),
		BruteMicros:     brtD.Microseconds(),
	}, nil
}

// VolumeAblation compares Algorithm 2's greedy exchanges against the fixed
// uniform allocation (the paper's "natural first attempt") — Ablation 2.
type VolumeAblation struct {
	Dist         Distribution
	UniformRatio float64 // RMI ratio with exchanges disabled
	GreedyRatio  float64 // RMI ratio with exchanges enabled
	Moves        int
}

// VolumeAllocation runs Ablation 2 on a log-normal key set, where skewed
// density makes allocation matter most.
func VolumeAllocation(opts Options) (VolumeAblation, error) {
	opts = opts.fill()
	n := 20_000
	if opts.Scale == ScaleQuick {
		n = 4_000
	}
	rng := opts.rng()
	ks, err := DistLogNormal.generate(rng, n, int64(n)*50)
	if err != nil {
		return VolumeAblation{}, err
	}
	N := n / 200
	base := core.RMIAttackOptions{NumModels: N, Percent: 10, Alpha: 3,
		MaxMoves: maxMovesFor(opts.Scale, N)}
	off := base
	off.DisableExchanges = true
	uniform, err := core.RMIAttack(ks, off)
	if err != nil {
		return VolumeAblation{}, err
	}
	greedy, err := core.RMIAttack(ks, base)
	if err != nil {
		return VolumeAblation{}, err
	}
	return VolumeAblation{
		Dist:         DistLogNormal,
		UniformRatio: uniform.RMIRatio(),
		GreedyRatio:  greedy.RMIRatio(),
		Moves:        greedy.Moves,
	}, nil
}

// AlphaCell is one row of Ablation 3: the per-model poisoning threshold.
type AlphaCell struct {
	Alpha     float64 // 0 = unbounded
	RMIRatio  float64
	MaxBudget int // largest per-model allocation the attack used
}

// AlphaSweep runs Ablation 3 on a log-normal key set with α ∈ {1, 2, 3, 0}.
func AlphaSweep(opts Options) ([]AlphaCell, error) {
	opts = opts.fill()
	n := 10_000
	if opts.Scale == ScaleQuick {
		n = 3_000
	}
	rng := opts.rng()
	ks, err := DistLogNormal.generate(rng, n, int64(n)*50)
	if err != nil {
		return nil, err
	}
	N := n / 200
	var out []AlphaCell
	for _, alpha := range []float64{1, 2, 3, 0} {
		atk, err := core.RMIAttack(ks, core.RMIAttackOptions{
			NumModels: N, Percent: 10, Alpha: alpha,
			MaxMoves: maxMovesFor(opts.Scale, N),
		})
		if err != nil {
			return nil, err
		}
		maxB := 0
		for _, m := range atk.Models {
			if m.Budget > maxB {
				maxB = m.Budget
			}
		}
		out = append(out, AlphaCell{Alpha: alpha, RMIRatio: atk.RMIRatio(), MaxBudget: maxB})
	}
	return out, nil
}
