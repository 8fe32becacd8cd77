package main

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"cdfpoison/internal/core"
	"cdfpoison/internal/dataset"
	"cdfpoison/internal/defense"
	"cdfpoison/internal/dynamic"
	"cdfpoison/internal/index"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/robust"
	"cdfpoison/internal/serve"
	"cdfpoison/internal/shard"
	"cdfpoison/internal/workload"
	"cdfpoison/internal/xrand"
)

// serveSpec sizes one serving workload: repeated identical sessions of
// serve.RunConcurrent against a fresh sharded victim, optionally behind a
// defense.Guard with a robust per-shard fitter.
type serveSpec struct {
	N           int     `json:"n"`
	Shards      int     `json:"shards"`
	BufferK     int     `json:"buffer_limit"`
	Mix         string  `json:"mix"`
	Epochs      int     `json:"epochs"`
	OpsPerEpoch int     `json:"ops_per_epoch"`
	Budget      int     `json:"budget_per_epoch"`
	Cost        string  `json:"cost"`
	Chain       string  `json:"guard_chain,omitempty"`
	TrimPct     float64 `json:"trimmed_pct,omitempty"`
	// Variants is how many independently seeded key sets and streams a run
	// cycles through. Read cost depends on where the Zipf-hot keys fall
	// relative to the shard models, so with one key set per run a run's
	// timings would mostly be a property of its seed.
	Variants int `json:"variants"`
}

var (
	// serveReadHeavy: the read path (reader dispatch, version chain,
	// snapshot Lookup) dominates; the oracle is about a quarter of an epoch.
	serveReadHeavy = serveSpec{N: 100_000, Shards: 8, BufferK: 256, Mix: "zipf:1.1:95",
		Epochs: 4, OpsPerEpoch: 50_000, Budget: 25, Cost: "fixed:200", Variants: 4}
	// ingestDefended: Insert, Retrain, the robust fitter and the Guard
	// dominate; reads are light.
	ingestDefended = serveSpec{N: 10_000, Shards: 8, BufferK: 64, Mix: "uniform:20",
		Epochs: 4, OpsPerEpoch: 1_000, Budget: 50, Cost: "linear:10:25:100",
		Chain: "density:8:3|dupmass:3:3", TrimPct: 10, Variants: 4}
)

func (s serveSpec) guarded() bool { return s.Chain != "" }

func (s serveSpec) opsPerSession() int { return s.Epochs * s.OpsPerEpoch }

// serveVariant is one key set and honest stream; every session on it must
// reproduce its first session exactly.
type serveVariant struct {
	initial keys.Set
	seed    uint64
	ref     []serve.EpochMetrics
}

// serveBench runs one serving workload.
type serveBench struct {
	spec    serveSpec
	workers int
	seed    uint64

	domain   int64
	mix      workload.Spec
	cost     index.CostModel
	policies []defense.Policy
	variants []serveVariant

	corrupt bool
}

func (b *serveBench) setup() error {
	mix, err := workload.ParseSpec(b.spec.Mix)
	if err != nil {
		return err
	}
	cost, err := index.ParseCostModel(b.spec.Cost)
	if err != nil {
		return err
	}
	b.mix, b.cost = mix, cost
	if b.spec.guarded() {
		if b.policies, err = defense.ParsePolicyChain(b.spec.Chain); err != nil {
			return err
		}
	}
	b.domain = int64(b.spec.N) * 100
	rng := xrand.New(b.seed)
	b.variants = make([]serveVariant, b.spec.Variants)
	for i := range b.variants {
		v := &b.variants[i]
		if v.initial, err = dataset.Uniform(rng.Split(), b.spec.N, b.domain); err != nil {
			return err
		}
		v.seed = rng.Uint64()
		if _, _, err = b.victim(v.initial, nil); err != nil {
			return err
		}
	}
	return nil
}

// victim builds a fresh victim over initial. With a tracer, the shard is
// decorated (layer "shard", its snapshots too), the fitter is decorated,
// and a guard is decorated again outside (layer "defense").
func (b *serveBench) victim(initial keys.Set, t *tracer) (index.Backend, *defense.Guard, error) {
	var fit dynamic.FitFunc
	if b.spec.TrimPct > 0 {
		fit = robust.Trimmed{Pct: b.spec.TrimPct}.Fit
		if t != nil {
			fit = tracedFit(fit, t)
		}
	}
	sh, err := shard.NewWithFit(initial, b.spec.Shards, dynamic.BufferLimit(b.spec.BufferK), fit)
	if err != nil {
		return nil, nil, err
	}
	var v index.Backend = sh
	if t != nil {
		v = wrapBackend(sh, "shard", t, true)
	}
	if !b.spec.guarded() {
		return v, nil, nil
	}
	g := defense.NewGuard(v, defense.GuardOptions{Policies: b.policies})
	if t != nil {
		return wrapBackend(g, "defense", t, false), g, nil
	}
	return g, g, nil
}

// oracle is the greedy poison oracle (Algorithm 1 on the visible content),
// wrapped so each call marks an epoch boundary and is a core.oracle span.
func (b *serveBench) oracle(t *tracer, starts *[]time.Time) serve.Oracle {
	return func(visible keys.Set, budget int) ([]int64, error) {
		now := time.Now()
		*starts = append(*starts, now)
		t.epochBoundary(now)
		t.begin("core.oracle")
		g, err := greedy(visible, budget, b.workers, t)
		t.end("core.oracle")
		return g.Poison, err
	}
}

func (b *serveBench) options(v *serveVariant, t *tracer, starts *[]time.Time) serve.ScenarioOptions {
	return serve.ScenarioOptions{
		Epochs:      b.spec.Epochs,
		OpsPerEpoch: b.spec.OpsPerEpoch,
		EpochBudget: b.spec.Budget,
		Workload:    b.mix,
		Domain:      b.domain,
		Seed:        v.seed,
		Cost:        b.cost,
		Oracle:      b.oracle(t, starts),
	}
}

// session runs one timed session on victim and returns its metrics, wall
// time and epoch wall times (oracle call to next oracle call; the last
// epoch ends when RunConcurrent returns).
func (b *serveBench) session(v *serveVariant, victim index.Backend, t *tracer) ([]serve.EpochMetrics, time.Duration, []time.Duration, error) {
	var starts []time.Time
	o := b.options(v, t, &starts)
	t.startSession()
	start := time.Now()
	m, err := serve.RunConcurrent(context.Background(), victim, o, serve.Options{Readers: b.workers})
	end := time.Now()
	t.endSession(end)
	epochs := make([]time.Duration, len(starts))
	for i, s := range starts {
		next := end
		if i+1 < len(starts) {
			next = starts[i+1]
		}
		epochs[i] = next.Sub(s)
	}
	return m, end.Sub(start), epochs, err
}

// reference runs the once-per-run work outside the timed window, for each
// variant: the first session (whose heap footprint is measured on the
// way), the tick-oracle cross-check on a fresh identical victim, and the
// read-cost facts.
func (b *serveBench) reference() (refFacts, []check) {
	var f refFacts
	var checks []check
	var heap float64
	var keysHeld, reads, epochs int
	var probes int64
	var p99 float64
	for i := range b.variants {
		v := &b.variants[i]
		name := fmt.Sprintf("variant %d: ", i)
		bytes, n, err := b.firstSession(v)
		checks = append(checks, check{name + "first session", err})
		if err != nil {
			return f, checks
		}
		heap += bytes
		keysHeld += n
		for _, e := range v.ref {
			probes += e.ProbeTotal
			reads += e.Reads
			p99 += float64(e.P99)
			epochs++
		}

		tv, _, err := b.victim(v.initial, nil)
		if err == nil {
			var starts []time.Time
			var tick []serve.EpochMetrics
			tick, err = serve.RunTick(tv, b.options(v, nil, &starts))
			if err == nil && !reflect.DeepEqual(tick, v.ref) {
				err = fmt.Errorf("concurrent session differs from serve.RunTick")
			}
		}
		checks = append(checks, check{name + "tick oracle", err})
	}
	f.heapPerKey = heap / float64(keysHeld)
	f.probesMean = float64(probes) / float64(reads)
	f.probesP99 = p99 / float64(epochs)
	return f, checks
}

// firstSession runs v's first session on a victim built from a fresh copy
// of its keys, records it as v's reference, and returns the victim's live
// heap after the session and its key count.
func (b *serveBench) firstSession(v *serveVariant) (float64, int, error) {
	runtime.GC()
	h0 := liveHeap()
	victim, _, err := b.victim(cloneKeys(v.initial), nil)
	if err != nil {
		return 0, 0, err
	}
	m, _, _, err := b.session(v, victim, nil)
	if err == nil {
		err = b.checkCounts(m)
	}
	if err != nil {
		return 0, 0, err
	}
	runtime.GC()
	bytes := float64(liveHeap()) - float64(h0)
	runtime.KeepAlive(victim)
	v.ref = m
	return bytes, victim.Len(), nil
}

// checkCounts verifies a session's shape: every epoch served exactly its
// ops, and the budget bounds the injected poison.
func (b *serveBench) checkCounts(m []serve.EpochMetrics) error {
	if len(m) != b.spec.Epochs {
		return fmt.Errorf("got %d epochs, want %d", len(m), b.spec.Epochs)
	}
	for _, e := range m {
		if e.Reads+e.Writes != b.spec.OpsPerEpoch || e.Injected > b.spec.Budget {
			return fmt.Errorf("epoch %d: %d reads + %d writes, %d injected", e.Epoch, e.Reads, e.Writes, e.Injected)
		}
	}
	return nil
}

func (b *serveBench) unit(i int, t *tracer) unitResult {
	v := &b.variants[i%len(b.variants)]
	victim, g, err := b.victim(v.initial, t)
	if err != nil {
		return unitResult{err: err}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	m, d, epochs, err := b.session(v, victim, t)
	runtime.ReadMemStats(&ms)
	u := unitResult{ops: b.spec.opsPerSession(), dur: d, epochs: epochs, alloc: ms.TotalAlloc - alloc0}
	if b.corrupt && i == 0 && len(m) > 0 {
		m[0].ProbeTotal++
	}
	switch {
	case err != nil:
		u.err = err
	case !reflect.DeepEqual(m, v.ref):
		u.err = fmt.Errorf("session %d differs from its variant's first session", i)
	}
	if t != nil {
		for _, e := range m {
			t.counts["serve.reads"] += e.Reads
			t.counts["serve.stale_reads"] += e.StaleReads
		}
		if g != nil {
			t.counts["defense.flagged"] += g.Flagged()
		}
	}
	return u
}

// genNsPerOp times the honest stream on its own: NewGenerator plus OpsInto
// for one session's ops, with the first variant's spec; median of five.
func (b *serveBench) genNsPerOp() float64 {
	v := &b.variants[0]
	var samples []float64
	var ops []workload.Op
	for r := 0; r < 5; r++ {
		start := time.Now()
		gen, err := workload.NewGenerator(b.mix, v.initial, b.domain, v.seed)
		if err != nil {
			return 0
		}
		for e := 0; e < b.spec.Epochs; e++ {
			ops = gen.OpsInto(ops, b.spec.OpsPerEpoch)
		}
		samples = append(samples, float64(time.Since(start).Nanoseconds())/float64(b.spec.opsPerSession()))
	}
	return quantile(samples, 0.5)
}

// greedy runs Algorithm 1 as a core.greedy span and records its scan
// accounting.
func greedy(ks keys.Set, p, workers int, t *tracer) (core.GreedyResult, error) {
	t.begin("core.greedy")
	g, err := core.GreedyMultiPoint(ks, p, core.WithWorkers(workers))
	t.end("core.greedy")
	t.count("core.greedy_candidates", g.Candidates)
	t.count("core.greedy_blocks_visited", g.BlocksVisited)
	t.count("core.greedy_blocks_total", g.BlocksTotal)
	t.count("core.greedy_key_steps", ks.Len()*len(g.Poison))
	return g, err
}

func cloneKeys(ks keys.Set) keys.Set { return keys.FromSorted(append([]int64(nil), ks.Keys()...)) }

func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
