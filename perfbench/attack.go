package main

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"time"

	"cdfpoison/internal/core"
	"cdfpoison/internal/dataset"
	"cdfpoison/internal/dynamic"
	"cdfpoison/internal/index"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/rmi"
	"cdfpoison/internal/xrand"
)

// attackSpec sizes the attack-eval cell: Algorithm 1 on N keys with budget
// P, Algorithm 2 on RMIN keys, then both poisoned victims probed over every
// legit key. Key domains are 100× the key count (1% density).
type attackSpec struct {
	N         int     `json:"n"`
	P         int     `json:"p"`
	RMIN      int     `json:"rmi_n"`
	RMIModels int     `json:"rmi_models"`
	RMIPct    float64 `json:"rmi_percent"`
	Alpha     float64 `json:"rmi_alpha"`
}

var attackEval = attackSpec{N: 100_000, P: 100, RMIN: 10_000, RMIModels: 20, RMIPct: 1, Alpha: 3}

// Cell kinds alternate: pruning efficiency depends on the CDF's shape.
const (
	kindUniform = iota
	kindLogNormal
	numKinds
)

var kindNames = [numKinds]string{"uniform", "lognormal"}

type attackBench struct {
	spec    attackSpec
	workers int
	seed    uint64

	big, small [numKinds]keys.Set
	corrupt    bool
}

func (b *attackBench) setup() error {
	rng := xrand.New(b.seed)
	for k := 0; k < numKinds; k++ {
		var err error
		if b.big[k], err = keySet(k, rng.Split(), b.spec.N); err != nil {
			return err
		}
		if b.small[k], err = keySet(k, rng.Split(), b.spec.RMIN); err != nil {
			return err
		}
	}
	return nil
}

func keySet(kind int, rng *xrand.RNG, n int) (keys.Set, error) {
	if kind == kindUniform {
		return dataset.Uniform(rng, n, int64(n)*100)
	}
	return dataset.LogNormal(rng, n, int64(n)*100, 0, 2)
}

// cellOut is everything a cell computes; it is compared byte-for-byte in
// the sequential reference check, so it holds no timings.
type cellOut struct {
	Greedy              core.GreedyResult
	RMI                 core.RMIAttackResult
	DynProbes, RMIProbe int64
	DynMissing, RMIMiss int
}

// cell runs one attack-eval cell on the kind's key sets.
func (b *attackBench) cell(kind, workers int, t *tracer) (cellOut, error) {
	var out cellOut
	big, small := b.big[kind], b.small[kind]
	var err error
	if out.Greedy, err = greedy(big, b.spec.P, workers, t); err != nil {
		return out, err
	}

	t.begin("core.rmi_attack")
	out.RMI, err = core.RMIAttack(small, core.RMIAttackOptions{
		NumModels: b.spec.RMIModels, Percent: b.spec.RMIPct, Alpha: b.spec.Alpha,
	}, core.WithWorkers(workers))
	t.end("core.rmi_attack")
	if err != nil {
		return out, err
	}
	t.count("core.rmi_attacks", 1)
	t.count("core.rmi_moves", out.RMI.Moves)

	t.begin("dynamic.build")
	dyn, err := dynamic.New(out.Greedy.Poisoned, dynamic.ManualPolicy())
	t.end("dynamic.build")
	if err != nil {
		return out, err
	}
	t.begin("dynamic.eval")
	out.DynProbes, out.DynMissing = probeDynamic(kind, dyn, big.Keys())
	t.end("dynamic.eval")
	t.count("dynamic.eval_keys", big.Len())

	t.begin("rmi.build")
	victim, err := rmi.Build(small.Union(out.RMI.Poison), rmi.Config{Fanout: b.spec.RMIModels})
	t.end("rmi.build")
	if err != nil {
		return out, err
	}
	t.begin("rmi.eval")
	for _, k := range small.Keys() {
		r := victim.Lookup(k)
		out.RMIProbe += int64(r.Probes)
		if !r.Found {
			out.RMIMiss++
		}
	}
	t.end("rmi.eval")
	t.count("rmi.eval_keys", small.Len())
	return out, nil
}

// probeDynamic probes every legit key through the sorted-batch kernel. On
// log-normal sets the single model's error envelope spans most of the
// array, and the batch kernel caches one depth table per clamped window
// size (index.ProbeDepths), which exhausts memory; those cells take the
// per-key reference path, whose totals are identical by contract.
func probeDynamic(kind int, dyn *dynamic.Index, sorted []int64) (int64, int) {
	if kind == kindLogNormal {
		return index.ProbeSum(dyn, sorted)
	}
	return index.ProbeSumSorted(dyn, sorted)
}

// verifyCell checks a cell's outputs against independent recomputation.
func (b *attackBench) verifyCell(kind int, out cellOut) error {
	if err := verifyGreedy(b.big[kind], b.spec.P, out.Greedy); err != nil {
		return err
	}
	if err := verifyRMI(b.small[kind], out.RMI); err != nil {
		return err
	}
	if out.DynMissing != 0 || out.RMIMiss != 0 {
		return fmt.Errorf("victims lost legit keys: dynamic %d, rmi %d", out.DynMissing, out.RMIMiss)
	}
	return nil
}

// verifyGreedy: exactly p poison keys, distinct, absent from K, inside
// [min, max], and the reported final loss is the loss of a fresh fit on
// the poisoned set.
func verifyGreedy(ks keys.Set, p int, g core.GreedyResult) error {
	if len(g.Poison) != p {
		return fmt.Errorf("greedy: %d poison keys, want %d", len(g.Poison), p)
	}
	seen := make(map[int64]bool, p)
	for _, k := range g.Poison {
		if seen[k] || ks.Contains(k) || k < ks.Min() || k > ks.Max() {
			return fmt.Errorf("greedy: poison key %d duplicated, legit, or out of range", k)
		}
		seen[k] = true
	}
	if g.Poisoned.Len() != ks.Len()+p {
		return fmt.Errorf("greedy: poisoned set has %d keys, want %d", g.Poisoned.Len(), ks.Len()+p)
	}
	if loss := refitLoss(g.Poisoned); math.Abs(g.FinalLoss()-loss) > 1e-9*loss {
		return fmt.Errorf("greedy: final loss %v, refit loss %v", g.FinalLoss(), loss)
	}
	return nil
}

// refitLoss is the least-squares CDF loss (MSE of ranks 1..n on the keys)
// computed in two centred passes over the residuals. regression.FitCDF
// takes one pass over raw moments, whose cancellation at n = 1e5 already
// costs it about 2e-8 relative, too coarse to check the greedy kernel's
// exact-moment loss at 1e-9.
func refitLoss(ks keys.Set) float64 {
	n := float64(ks.Len())
	origin := ks.Min()
	var sx float64
	for _, k := range ks.Keys() {
		sx += float64(k - origin)
	}
	mx, mr := sx/n, (n+1)/2
	var sxx, sxr float64
	for i, k := range ks.Keys() {
		dx := float64(k-origin) - mx
		sxx += dx * dx
		sxr += dx * (float64(i+1) - mr)
	}
	w := sxr / sxx
	var sse float64
	for i, k := range ks.Keys() {
		e := float64(i+1) - mr - w*(float64(k-origin)-mx)
		sse += e * e
	}
	return sse / n
}

// verifyRMI: the injected count is the poison set's size, within budget,
// and no poison key is a legit key.
func verifyRMI(ks keys.Set, r core.RMIAttackResult) error {
	if r.Injected != r.Poison.Len() || r.Injected > r.Budget {
		return fmt.Errorf("rmi: injected %d, poison %d, budget %d", r.Injected, r.Poison.Len(), r.Budget)
	}
	for _, k := range r.Poison.Keys() {
		if ks.Contains(k) {
			return fmt.Errorf("rmi: poison key %d is a legit key", k)
		}
	}
	return nil
}

// reference runs the once-per-run checks outside the timed window: the
// first cell of each kind, the first cell again on one worker (it must
// match byte for byte), the batch kernel against the per-key reference on
// the first dynamic victim, and the victims' read cost and heap footprint.
func (b *attackBench) reference() (refFacts, []check) {
	var f refFacts
	var outs [numKinds]cellOut
	var checks []check
	for k := 0; k < numKinds; k++ {
		out, err := b.cell(k, b.workers, nil)
		if err == nil {
			err = b.verifyCell(k, out)
		}
		checks = append(checks, check{"first-cell-" + kindNames[k], err})
		if err != nil {
			return f, checks
		}
		outs[k] = out
	}

	seq, err := b.cell(kindUniform, 1, nil)
	if err == nil && !reflect.DeepEqual(seq, outs[kindUniform]) {
		err = fmt.Errorf("one-worker cell differs from the %d-worker cell", b.workers)
	}
	checks = append(checks, check{"one-worker-cell", err})

	dyn, err := dynamic.New(outs[kindUniform].Greedy.Poisoned, dynamic.ManualPolicy())
	if err == nil {
		legit := b.big[kindUniform].Keys()
		bp, bn := index.ProbeSumSorted(dyn, legit)
		rp, rn := index.ProbeSum(dyn, legit)
		if bp != rp || bn != rn {
			err = fmt.Errorf("ProbeSumSorted (%d, %d) != ProbeSum (%d, %d)", bp, bn, rp, rn)
		}
	}
	checks = append(checks, check{"batch-kernel", err})

	f, err = b.victimFacts(outs)
	return f, append(checks, check{"victim-facts", err})
}

// victimFacts rebuilds both kinds' poisoned victims from fresh copies of
// their key sets, reads their live heap, and probes every legit key one at
// a time for the probe distribution.
func (b *attackBench) victimFacts(outs [numKinds]cellOut) (refFacts, error) {
	var f refFacts
	runtime.GC()
	h0 := liveHeap()
	var dyns [numKinds]*dynamic.Index
	var rmis [numKinds]*rmi.Index
	n := 0
	for k := range outs {
		var err error
		if dyns[k], err = dynamic.New(cloneKeys(outs[k].Greedy.Poisoned), dynamic.ManualPolicy()); err != nil {
			return f, err
		}
		if rmis[k], err = rmi.Build(cloneKeys(b.small[k].Union(outs[k].RMI.Poison)), rmi.Config{Fanout: b.spec.RMIModels}); err != nil {
			return f, err
		}
		n += dyns[k].Len() + rmis[k].Len()
	}
	runtime.GC()
	f.heapPerKey = float64(liveHeap()-h0) / float64(n)
	runtime.KeepAlive(outs) // live at both readings, so only the victims differ

	var probes []int
	for k := range outs {
		for _, key := range b.big[k].Keys() {
			probes = append(probes, dyns[k].Lookup(key).Probes)
		}
		for _, key := range b.small[k].Keys() {
			probes = append(probes, rmis[k].Lookup(key).Probes)
		}
	}
	sort.Ints(probes)
	sum := 0
	for _, p := range probes {
		sum += p
	}
	f.probesMean = float64(sum) / float64(len(probes))
	f.probesP99 = float64(probes[(len(probes)*99)/100])
	return f, nil
}

func (b *attackBench) unit(i int, t *tracer) unitResult {
	kind := i % numKinds
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	t.startSession()
	start := time.Now()
	out, err := b.cell(kind, b.workers, t)
	d := time.Since(start)
	t.endSession(time.Now())
	runtime.ReadMemStats(&ms)
	u := unitResult{ops: 1, dur: d, alloc: ms.TotalAlloc - alloc0}
	if b.corrupt && i == 0 {
		out.Greedy.Poison[0] = b.big[kind].At(0)
	}
	if err == nil {
		err = b.verifyCell(kind, out)
	}
	u.err = err
	return u
}
