package core

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"cdfpoison/internal/dataset"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/xrand"
)

func uniformSet(t *testing.T, rng *xrand.RNG, n int, domain int64) keys.Set {
	t.Helper()
	s, err := keys.New(xrand.SampleInt64s(rng, n, domain))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRMIAttackInvariants(t *testing.T) {
	rng := xrand.New(20)
	ks := uniformSet(t, rng, 2000, 20000)
	opts := RMIAttackOptions{NumModels: 20, Percent: 10, Alpha: 3}
	res, err := RMIAttack(ks, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Budget != 200 {
		t.Fatalf("budget %d, want 200", res.Budget)
	}
	if len(res.Models) != 20 {
		t.Fatalf("models %d", len(res.Models))
	}

	// Budget conservation and per-model threshold.
	totalBudget, totalInjected, totalLegit := 0, 0, 0
	for _, m := range res.Models {
		totalBudget += m.Budget
		totalInjected += m.Injected
		totalLegit += m.LegitKeys
		if res.Threshold > 0 && m.Budget > res.Threshold {
			t.Fatalf("model %d budget %d exceeds threshold %d", m.Index, m.Budget, res.Threshold)
		}
		if m.Injected > m.Budget {
			t.Fatalf("model %d injected %d > budget %d", m.Index, m.Injected, m.Budget)
		}
		if len(m.Poison) != m.Injected {
			t.Fatalf("model %d poison slice %d != injected %d", m.Index, len(m.Poison), m.Injected)
		}
	}
	if totalBudget != res.Budget {
		t.Fatalf("budgets sum to %d, want %d", totalBudget, res.Budget)
	}
	if totalInjected != res.Injected {
		t.Fatalf("injected mismatch: %d vs %d", totalInjected, res.Injected)
	}
	if totalLegit != ks.Len() {
		t.Fatalf("legit keys lost: %d vs %d", totalLegit, ks.Len())
	}

	// Poison keys are globally unique, absent from K, and the union set
	// matches the per-model slices.
	if res.Poison.Len() != res.Injected {
		t.Fatalf("poison union %d != injected %d", res.Poison.Len(), res.Injected)
	}
	for _, p := range res.Poison.Keys() {
		if ks.Contains(p) {
			t.Fatalf("poison key %d collides with legit key", p)
		}
	}

	// Threshold formula: t = ceil(alpha * total / N).
	want := int(math.Ceil(3 * 200.0 / 20.0))
	if res.Threshold != want {
		t.Fatalf("threshold %d, want %d", res.Threshold, want)
	}

	// The attack must hurt: poisoned RMI loss above clean.
	if res.RMIRatio() <= 1 {
		t.Fatalf("RMI ratio %v <= 1", res.RMIRatio())
	}
}

func TestRMIAttackPoisonStaysInsideModelRange(t *testing.T) {
	rng := xrand.New(21)
	ks := uniformSet(t, rng, 600, 6000)
	res, err := RMIAttack(ks, RMIAttackOptions{NumModels: 6, Percent: 10, Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct each model's legit key range from the report sizes: the
	// models partition the sorted keys contiguously.
	lo := 0
	for _, m := range res.Models {
		hi := lo + m.LegitKeys
		if m.Injected > 0 {
			minK, maxK := ks.At(lo), ks.At(hi-1)
			for _, p := range m.Poison {
				if p <= minK || p >= maxK {
					t.Fatalf("model %d poison %d outside its key range (%d,%d)", m.Index, p, minK, maxK)
				}
			}
		}
		lo = hi
	}
}

func TestRMIAttackExchangesBeatUniform(t *testing.T) {
	// Greedy exchanges (Algorithm 2) must never end below the uniform
	// volume-allocation baseline it starts from — each applied move strictly
	// increases the summed loss.
	rng := xrand.New(22)
	// Log-normal-ish concentration: square a uniform sample to skew density.
	raw := make([]int64, 0, 1500)
	seen := map[int64]bool{}
	for len(raw) < 1500 {
		v := rng.LogNormFloat64(0, 2)
		k := int64(v * 1000)
		if k < 0 || k > 1_000_000 || seen[k] {
			continue
		}
		seen[k] = true
		raw = append(raw, k)
	}
	ks, err := keys.New(raw)
	if err != nil {
		t.Fatal(err)
	}
	base, err := RMIAttack(ks, RMIAttackOptions{NumModels: 15, Percent: 10, Alpha: 3, DisableExchanges: true})
	if err != nil {
		t.Fatal(err)
	}
	full, err := RMIAttack(ks, RMIAttackOptions{NumModels: 15, Percent: 10, Alpha: 3})
	if err != nil {
		t.Fatal(err)
	}
	if base.Moves != 0 {
		t.Fatalf("baseline performed %d moves", base.Moves)
	}
	if full.PoisonedRMILoss < base.PoisonedRMILoss*(1-1e-9) {
		t.Fatalf("exchanges hurt: %v < %v", full.PoisonedRMILoss, base.PoisonedRMILoss)
	}
}

func TestRMIAttackAlphaCapsSkew(t *testing.T) {
	rng := xrand.New(23)
	ks := uniformSet(t, rng, 1000, 10000)
	res, err := RMIAttack(ks, RMIAttackOptions{NumModels: 10, Percent: 10, Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	// t = ceil(2*100/10) = 20.
	for _, m := range res.Models {
		if m.Budget > 20 {
			t.Fatalf("model %d budget %d exceeds cap 20", m.Index, m.Budget)
		}
	}
}

func TestRMIAttackSingleModelEqualsGreedy(t *testing.T) {
	rng := xrand.New(24)
	ks := uniformSet(t, rng, 200, 2000)
	res, err := RMIAttack(ks, RMIAttackOptions{NumModels: 1, Percent: 10, Alpha: 0})
	if err != nil {
		t.Fatal(err)
	}
	g, err := GreedyMultiPoint(ks, 20)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.PoisonedRMILoss-g.FinalLoss()) > 1e-9*(1+g.FinalLoss()) {
		t.Fatalf("single-model RMI attack %v != greedy %v", res.PoisonedRMILoss, g.FinalLoss())
	}
	if math.Abs(res.CleanRMILoss-g.CleanLoss) > 1e-9*(1+g.CleanLoss) {
		t.Fatalf("clean loss mismatch: %v vs %v", res.CleanRMILoss, g.CleanLoss)
	}
}

func TestRMIAttackValidation(t *testing.T) {
	rng := xrand.New(25)
	ks := uniformSet(t, rng, 50, 500)
	bad := []RMIAttackOptions{
		{NumModels: 0, Percent: 10},
		{NumModels: 51, Percent: 10},
		{NumModels: 5, Percent: 0},
		{NumModels: 5, Percent: -3},
		{NumModels: 5, Percent: 101},
		{NumModels: 5, Percent: 10, Alpha: math.NaN()},
	}
	for _, o := range bad {
		if _, err := RMIAttack(ks, o); err == nil {
			t.Errorf("options %+v accepted", o)
		}
	}
	// Budget rounding to zero must error.
	if _, err := RMIAttack(ks, RMIAttackOptions{NumModels: 5, Percent: 0.1}); err == nil {
		t.Error("sub-key budget accepted")
	}
}

func TestRMIAttackSaturatedPartitions(t *testing.T) {
	// Keys 0..99 are fully saturated: no model can be poisoned. The attack
	// must succeed with zero injections rather than fail.
	raw := make([]int64, 100)
	for i := range raw {
		raw[i] = int64(i)
	}
	ks, err := keys.New(raw)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RMIAttack(ks, RMIAttackOptions{NumModels: 5, Percent: 10, Alpha: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected != 0 {
		t.Fatalf("injected %d into a saturated domain", res.Injected)
	}
	if res.RMIRatio() != 1 {
		t.Fatalf("ratio %v on saturated domain, want 1", res.RMIRatio())
	}
}

func TestRMIAttackTinyModels(t *testing.T) {
	// NumModels == n/2: each model holds ~2 keys; the attack must not panic
	// and must preserve budget accounting.
	rng := xrand.New(26)
	ks := uniformSet(t, rng, 40, 4000)
	res, err := RMIAttack(ks, RMIAttackOptions{NumModels: 20, Percent: 20, Alpha: 3})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, m := range res.Models {
		total += m.Budget
	}
	if total != res.Budget {
		t.Fatalf("budget leak: %d vs %d", total, res.Budget)
	}
}

func TestRMIAttackDeterministic(t *testing.T) {
	rng := xrand.New(27)
	ks := uniformSet(t, rng, 500, 5000)
	a, err := RMIAttack(ks, RMIAttackOptions{NumModels: 10, Percent: 10, Alpha: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RMIAttack(ks, RMIAttackOptions{NumModels: 10, Percent: 10, Alpha: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Poison.Equal(b.Poison) || a.Moves != b.Moves || a.PoisonedRMILoss != b.PoisonedRMILoss {
		t.Fatal("RMI attack is not deterministic")
	}
}

func TestRMIAttackPerModelReportsConsistent(t *testing.T) {
	rng := xrand.New(28)
	ks := uniformSet(t, rng, 800, 8000)
	res, err := RMIAttack(ks, RMIAttackOptions{NumModels: 8, Percent: 10, Alpha: 3})
	if err != nil {
		t.Fatal(err)
	}
	ratios := res.PerModelRatios()
	if len(ratios) == 0 {
		t.Fatal("no finite per-model ratios")
	}
	for _, m := range res.Models {
		if m.PoisonedLoss < m.CleanLoss-1e-9 && m.Injected > 0 {
			// A model the attack touched should not get better; tolerate
			// exact equality for untouched ones.
			t.Fatalf("model %d improved under poisoning: %v -> %v", m.Index, m.CleanLoss, m.PoisonedLoss)
		}
	}
	// Mean of per-model poisoned losses equals the reported RMI loss.
	sum := 0.0
	for _, m := range res.Models {
		sum += m.PoisonedLoss
	}
	if math.Abs(sum/float64(len(res.Models))-res.PoisonedRMILoss) > 1e-9*(1+res.PoisonedRMILoss) {
		t.Fatal("PoisonedRMILoss is not the mean of per-model losses")
	}
}

// TestRangeMemoBasics: get/put round-trips, distinct triples stay distinct,
// and the shard spread is non-degenerate for the adjacent (lo, hi) ranges
// the exchange loop produces.
func TestRangeMemoBasics(t *testing.T) {
	rm := newRangeMemo(16)
	if _, ok := rm.get(memoKey{1, 2, 3}); ok {
		t.Fatal("empty memo claimed a hit")
	}
	rm.put(memoKey{1, 2, 3}, 1.5)
	rm.put(memoKey{1, 2, 4}, 2.5)
	if v, ok := rm.get(memoKey{1, 2, 3}); !ok || v != 1.5 {
		t.Fatalf("get = (%v, %v)", v, ok)
	}
	if v, ok := rm.get(memoKey{1, 2, 4}); !ok || v != 2.5 {
		t.Fatalf("neighbour triple = (%v, %v)", v, ok)
	}
	// Adjacent ranges (the exchange loop's access pattern) must spread over
	// many shards, or the sharding buys nothing.
	used := map[uint64]bool{}
	for lo := 0; lo < 64; lo++ {
		used[memoKey{lo, lo + 100, 5}.shard()] = true
	}
	if len(used) < memoShardCount/4 {
		t.Fatalf("64 adjacent ranges hit only %d shards", len(used))
	}
}

// BenchmarkRangeMemoContention measures the satellite fix directly: hot
// memo hits from parallel workers on the sharded memo vs a single-mutex
// map (the pre-PR design, reconstructed inline).
func BenchmarkRangeMemoContention(b *testing.B) {
	keysList := make([]memoKey, 256)
	for i := range keysList {
		keysList[i] = memoKey{lo: i * 100, hi: i*100 + 500, budget: i % 8}
	}
	b.Run("sharded", func(b *testing.B) {
		rm := newRangeMemo(len(keysList))
		for _, k := range keysList {
			rm.put(k, float64(k.lo))
		}
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				k := keysList[i&255]
				if _, ok := rm.get(k); !ok {
					b.Error("miss")
					return
				}
				i++
			}
		})
	})
	b.Run("single-mutex", func(b *testing.B) {
		var mu sync.Mutex
		m := make(map[memoKey]float64, len(keysList))
		for _, k := range keysList {
			m[k] = float64(k.lo)
		}
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				k := keysList[i&255]
				mu.Lock()
				_, ok := m[k]
				mu.Unlock()
				if !ok {
					b.Error("miss")
					return
				}
				i++
			}
		})
	})
}

// TestRMIAttackHugeAlphaIsUncapped: a per-model threshold α·total/N too
// large for an int never binds, exactly like Alpha 0. It once wrapped to a
// negative int, was clamped to 1, and capped every model at one key.
func TestRMIAttackHugeAlphaIsUncapped(t *testing.T) {
	ks, err := dataset.LogNormal(xrand.New(7), 2_000, 200_000, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	opts := RMIAttackOptions{NumModels: 10, Percent: 10}
	want, err := RMIAttack(ks, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want.Moves == 0 {
		t.Fatal("the uncapped attack made no exchange; the comparison would prove nothing")
	}
	for _, alpha := range []float64{1e300, math.Inf(1)} {
		opts.Alpha = alpha
		got, err := RMIAttack(ks, opts)
		if err != nil {
			t.Fatalf("alpha %v: %v", alpha, err)
		}
		if got.Threshold != got.Budget {
			t.Errorf("alpha %v: threshold %d, want the budget %d", alpha, got.Threshold, got.Budget)
		}
		if !reflect.DeepEqual(got.Models, want.Models) || !got.Poison.Equal(want.Poison) ||
			got.CleanRMILoss != want.CleanRMILoss || got.PoisonedRMILoss != want.PoisonedRMILoss ||
			got.Injected != want.Injected || got.Moves != want.Moves {
			t.Fatalf("alpha %v: %d/%d injected, %d moves, loss %v; alpha 0: %d/%d injected, %d moves, loss %v",
				alpha, got.Injected, got.Budget, got.Moves, got.PoisonedRMILoss,
				want.Injected, want.Budget, want.Moves, want.PoisonedRMILoss)
		}
	}
}

// TestRMIAttackAllocsFlatInRangeRuns: Algorithm 2's range runs reuse one
// greedy workspace per pool worker, so more exchanges — each a few more
// range runs — add only the move's own bookkeeping, not a key copy, a
// kernel and scan buffers per run (about 27 allocations each before the
// workspaces).
func TestRMIAttackAllocsFlatInRangeRuns(t *testing.T) {
	ks, err := dataset.LogNormal(xrand.New(31), 10_000, 1_000_000, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	run := func(maxMoves int) (moves int, allocs float64) {
		opts := RMIAttackOptions{NumModels: 20, Percent: 1, Alpha: 3, MaxMoves: maxMoves}
		res, err := RMIAttack(ks, opts, WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		return res.Moves, testing.AllocsPerRun(2, func() {
			if _, err := RMIAttack(ks, opts, WithWorkers(1)); err != nil {
				t.Fatal(err)
			}
		})
	}
	fewMoves, few := run(8)
	manyMoves, many := run(64)
	extra := manyMoves - fewMoves
	if extra < 32 {
		t.Fatalf("MaxMoves 64 made only %d more moves than MaxMoves 8; the comparison needs more range runs", extra)
	}
	if many-few > 4*float64(extra) {
		t.Fatalf("%d extra moves cost %.0f extra allocations (%.0f vs %.0f), over 4 per move",
			extra, many-few, many, few)
	}
}
