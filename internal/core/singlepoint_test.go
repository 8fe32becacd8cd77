package core

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"cdfpoison/internal/keys"
	"cdfpoison/internal/regression"
	"cdfpoison/internal/xrand"
)

func mustSet(t *testing.T, ks []int64) keys.Set {
	t.Helper()
	s, err := keys.New(ks)
	if err != nil {
		t.Fatalf("keys.New: %v", err)
	}
	return s
}

func randomSet(rng *xrand.RNG, minN, maxN int, domain int64) keys.Set {
	n := minN + rng.Intn(maxN-minN+1)
	raw := xrand.SampleInt64s(rng, n, domain)
	s, err := keys.New(raw)
	if err != nil {
		panic(err)
	}
	return s
}

func TestOptimalMatchesBruteForce(t *testing.T) {
	// The headline correctness property: endpoint enumeration (backed by
	// Theorem 2) finds exactly the same maximum loss as trying every
	// unoccupied interior key.
	rng := xrand.New(1)
	for trial := 0; trial < 300; trial++ {
		ks := randomSet(rng, 2, 40, 200)
		opt, errOpt := OptimalSinglePoint(ks)
		brt, errBrt := BruteForceSinglePoint(ks)
		if errors.Is(errOpt, ErrNoGap) != errors.Is(errBrt, ErrNoGap) {
			t.Fatalf("feasibility disagreement on %v", ks)
		}
		if errOpt != nil {
			continue
		}
		if math.Abs(opt.PoisonedLoss-brt.PoisonedLoss) > 1e-9*(1+brt.PoisonedLoss) {
			t.Fatalf("optimal %v (key %d) != brute force %v (key %d) on %v",
				opt.PoisonedLoss, opt.Key, brt.PoisonedLoss, brt.Key, ks)
		}
	}
}

func TestOptimalMatchesBruteForceQuick(t *testing.T) {
	f := func(seed uint32) bool {
		rng := xrand.New(uint64(seed))
		ks := randomSet(rng, 3, 25, 120)
		opt, errOpt := OptimalSinglePoint(ks)
		brt, errBrt := BruteForceSinglePoint(ks)
		if (errOpt != nil) != (errBrt != nil) {
			return false
		}
		if errOpt != nil {
			return true
		}
		return math.Abs(opt.PoisonedLoss-brt.PoisonedLoss) <= 1e-9*(1+brt.PoisonedLoss)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSinglePointResultConsistency(t *testing.T) {
	rng := xrand.New(2)
	for trial := 0; trial < 100; trial++ {
		ks := randomSet(rng, 2, 50, 300)
		res, err := OptimalSinglePoint(ks)
		if errors.Is(err, ErrNoGap) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		// The chosen key must be absent, interior, and its reported rank and
		// poisoned loss must match an independent refit.
		if ks.Contains(res.Key) {
			t.Fatalf("poison key %d already stored", res.Key)
		}
		if res.Key <= ks.Min() || res.Key >= ks.Max() {
			t.Fatalf("poison key %d not interior", res.Key)
		}
		r, ok := ks.InsertedRank(res.Key)
		if !ok || r != res.Rank {
			t.Fatalf("reported rank %d, actual %d", res.Rank, r)
		}
		aug, _ := ks.Insert(res.Key)
		m, err := regression.FitCDF(aug)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(m.Loss-res.PoisonedLoss) > 1e-8*(1+m.Loss) {
			t.Fatalf("reported poisoned loss %v, refit %v", res.PoisonedLoss, m.Loss)
		}
		clean, _ := regression.FitCDF(ks)
		if math.Abs(clean.Loss-res.CleanLoss) > 1e-9*(1+clean.Loss) {
			t.Fatalf("reported clean loss %v, refit %v", res.CleanLoss, clean.Loss)
		}
	}
}

func TestSinglePointErrors(t *testing.T) {
	if _, err := OptimalSinglePoint(mustSet(t, []int64{5})); !errors.Is(err, ErrTooFew) {
		t.Fatalf("want ErrTooFew, got %v", err)
	}
	if _, err := OptimalSinglePoint(mustSet(t, []int64{5, 6, 7})); !errors.Is(err, ErrNoGap) {
		t.Fatalf("want ErrNoGap, got %v", err)
	}
	if _, err := BruteForceSinglePoint(mustSet(t, []int64{5})); !errors.Is(err, ErrTooFew) {
		t.Fatalf("brute: want ErrTooFew, got %v", err)
	}
	if _, err := BruteForceSinglePoint(mustSet(t, []int64{5, 6})); !errors.Is(err, ErrNoGap) {
		t.Fatalf("brute: want ErrNoGap, got %v", err)
	}
}

func TestSinglePointCandidateCount(t *testing.T) {
	// 2,6,7,12 has gaps {3..5} and {8..11} → 4 endpoint candidates, while
	// brute force tries all 7 free slots.
	ks := mustSet(t, []int64{2, 6, 7, 12})
	opt, err := OptimalSinglePoint(ks)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Candidates != 4 {
		t.Errorf("endpoint candidates = %d, want 4", opt.Candidates)
	}
	brt, err := BruteForceSinglePoint(ks)
	if err != nil {
		t.Fatal(err)
	}
	if brt.Candidates != 7 {
		t.Errorf("brute candidates = %d, want 7", brt.Candidates)
	}
}

func TestSinglePointWidthOneGap(t *testing.T) {
	// A single free slot: both methods must pick it.
	ks := mustSet(t, []int64{1, 2, 4, 5})
	opt, err := OptimalSinglePoint(ks)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Key != 3 || opt.Candidates != 1 {
		t.Fatalf("got key %d candidates %d, want key 3 candidates 1", opt.Key, opt.Candidates)
	}
}

func TestPoisoningIncreasesLossOnUniformData(t *testing.T) {
	// On the workloads the paper evaluates (uniform keys with free slots),
	// the optimal single poison key strictly increases the loss.
	rng := xrand.New(3)
	for trial := 0; trial < 100; trial++ {
		raw := xrand.SampleInt64s(rng, 50, 500)
		ks := mustSet(t, raw)
		res, err := OptimalSinglePoint(ks)
		if errors.Is(err, ErrNoGap) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if res.PoisonedLoss < res.CleanLoss {
			t.Fatalf("optimal poisoning decreased loss: %v -> %v on %v",
				res.CleanLoss, res.PoisonedLoss, ks)
		}
	}
}

func TestGreedyMultiPointBasics(t *testing.T) {
	rng := xrand.New(4)
	raw := xrand.SampleInt64s(rng, 90, 480)
	ks := mustSet(t, raw)
	g, err := GreedyMultiPoint(ks, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Poison) != 10 || g.Truncated {
		t.Fatalf("expected 10 poison keys, got %d (truncated=%v)", len(g.Poison), g.Truncated)
	}
	if g.Poisoned.Len() != 100 {
		t.Fatalf("poisoned set size %d, want 100", g.Poisoned.Len())
	}
	// Every poison key must be unique, absent from K, and interior.
	seen := map[int64]bool{}
	for _, p := range g.Poison {
		if seen[p] || ks.Contains(p) || p <= ks.Min() || p >= ks.Max() {
			t.Fatalf("invalid poison key %d", p)
		}
		seen[p] = true
	}
	// Final loss must match an independent refit of the augmented set.
	m, err := regression.FitCDF(g.Poisoned)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Loss-g.FinalLoss()) > 1e-8*(1+m.Loss) {
		t.Fatalf("final loss %v != refit %v", g.FinalLoss(), m.Loss)
	}
	if g.RatioLoss() < 1 {
		t.Fatalf("greedy attack did not increase loss: ratio %v", g.RatioLoss())
	}
	if len(g.Trajectory) != 10 {
		t.Fatalf("trajectory length %d", len(g.Trajectory))
	}
}

func TestGreedyEachStepIsLocallyOptimal(t *testing.T) {
	// After j insertions, the (j+1)-th poison key must achieve exactly the
	// loss the single-point attack reports on the current augmented set.
	rng := xrand.New(5)
	raw := xrand.SampleInt64s(rng, 30, 200)
	ks := mustSet(t, raw)
	g, err := GreedyMultiPoint(ks, 5)
	if err != nil {
		t.Fatal(err)
	}
	cur := ks
	for j, p := range g.Poison {
		step, err := OptimalSinglePoint(cur)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(step.PoisonedLoss-g.Trajectory[j]) > 1e-9*(1+step.PoisonedLoss) {
			t.Fatalf("step %d: trajectory %v != single-point optimum %v", j, g.Trajectory[j], step.PoisonedLoss)
		}
		var ok bool
		cur, ok = cur.Insert(p)
		if !ok {
			t.Fatalf("step %d: duplicate insertion of %d", j, p)
		}
	}
}

func TestGreedyTruncatesOnSaturation(t *testing.T) {
	// {1,3} has one free slot and zero clean loss; inserting 2 keeps the
	// loss at zero (consecutive run), after which the domain saturates.
	ks := mustSet(t, []int64{1, 3})
	g, err := GreedyMultiPoint(ks, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Truncated {
		t.Fatal("expected truncation")
	}
	if len(g.Poison) != 1 || g.Poison[0] != 2 {
		t.Fatalf("poison = %v, want [2]", g.Poison)
	}
	if !g.Poisoned.Saturated() {
		t.Fatal("domain should be saturated after truncation")
	}
}

// TestGreedyHugeBudget: a budget far beyond the free slots must not be
// reserved up front. It must give exactly the result of the budget that
// names every free interior slot; past the reserve the kernel grows.
func TestGreedyHugeBudget(t *testing.T) {
	ks := mustSet(t, []int64{0, 5, 9, 100})
	free := int(ks.FreeSlots()) // 4 + 3 + 90 = 97
	want, err := GreedyMultiPoint(ks, free)
	if err != nil {
		t.Fatal(err)
	}
	got, err := GreedyMultiPoint(ks, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("budget 1<<62 differs from budget %d:\n got: %+v\nwant: %+v", free, got, want)
	}
	if len(got.Poison) <= ks.Len() {
		t.Fatalf("%d poison keys never exercise growth past the %d-key reserve", len(got.Poison), ks.Len())
	}
}

func TestGreedyStopsWhenEveryInsertionHelpsDefender(t *testing.T) {
	// Dense near-saturated sets cannot be poisoned profitably: filling the
	// remaining slots only straightens the CDF. The attack must stop early
	// (Definition 2 allows |P| <= λ) and never report a ratio below 1.
	ks := mustSet(t, []int64{0, 1, 2, 3, 5, 6, 7, 8, 9, 10})
	g, err := GreedyMultiPoint(ks, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Stopped {
		t.Fatalf("expected early stop, got poison %v (ratio %v)", g.Poison, g.RatioLoss())
	}
	if len(g.Poison) != 0 || g.RatioLoss() != 1 {
		t.Fatalf("stop semantics wrong: %+v", g)
	}
	// Trajectories are non-decreasing under stop-on-dip.
	rng := xrand.New(77)
	for trial := 0; trial < 30; trial++ {
		set := randomSet(rng, 10, 60, 300)
		g, err := GreedyMultiPoint(set, 10)
		if err != nil {
			t.Fatal(err)
		}
		prev := g.CleanLoss
		for i, l := range g.Trajectory {
			if l < prev {
				t.Fatalf("trajectory decreased at step %d: %v -> %v", i, prev, l)
			}
			prev = l
		}
		if g.RatioLoss() < 1 {
			t.Fatalf("ratio %v < 1", g.RatioLoss())
		}
	}
}

func TestGreedyZeroBudget(t *testing.T) {
	ks := mustSet(t, []int64{1, 5, 9})
	g, err := GreedyMultiPoint(ks, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Poison) != 0 || g.FinalLoss() != g.CleanLoss || g.RatioLoss() != 1 {
		t.Fatalf("zero budget result: %+v", g)
	}
}

func TestGreedyErrors(t *testing.T) {
	if _, err := GreedyMultiPoint(mustSet(t, []int64{1, 5}), -1); err == nil {
		t.Fatal("negative budget accepted")
	}
	if _, err := GreedyMultiPoint(mustSet(t, []int64{1}), 1); !errors.Is(err, ErrTooFew) {
		t.Fatalf("want ErrTooFew, got %v", err)
	}
}

func TestGreedyMatchesExhaustiveSearchSmall(t *testing.T) {
	// For tiny instances, compare greedy two-point poisoning to exhaustive
	// search over ordered insertions. Greedy is a heuristic (the paper
	// observed it matches brute force on its datasets, but gives no
	// optimality proof, and tiny adversarial instances do exhibit ~10%
	// gaps); we assert it reaches at least 80% of the exhaustive optimum so
	// that a real regression in the implementation trips the test while
	// legitimate greedy suboptimality does not.
	rng := xrand.New(6)
	for trial := 0; trial < 20; trial++ {
		ks := randomSet(rng, 5, 9, 40)
		if ks.FreeSlots() < 2 {
			continue
		}
		g, err := GreedyMultiPoint(ks, 2)
		if err != nil || len(g.Poison) < 2 {
			continue
		}
		best := 0.0
		min0, max0 := ks.Min(), ks.Max()
		for k1 := min0 + 1; k1 < max0; k1++ {
			s1, ok := ks.Insert(k1)
			if !ok {
				continue
			}
			for k2 := min0 + 1; k2 < max0; k2++ {
				s2, ok := s1.Insert(k2)
				if !ok {
					continue
				}
				m, err := regression.FitCDF(s2)
				if err != nil {
					t.Fatal(err)
				}
				if m.Loss > best {
					best = m.Loss
				}
			}
		}
		if g.FinalLoss() < 0.80*best {
			t.Fatalf("greedy %v far below exhaustive %v on %v", g.FinalLoss(), best, ks)
		}
	}
}

func TestSafeRatio(t *testing.T) {
	if SafeRatio(0, 0) != 1 {
		t.Error("0/0 != 1")
	}
	if !math.IsInf(SafeRatio(1, 0), 1) {
		t.Error("1/0 not +Inf")
	}
	if SafeRatio(6, 3) != 2 {
		t.Error("6/3 != 2")
	}
}

func TestFigure4Shape(t *testing.T) {
	// Figure 4: 90 uniform keys over ~480 domain, 10 poison keys, error
	// increase about 7.4×. Seeds differ from the authors', so assert the
	// shape: a substantial (>3×) increase.
	rng := xrand.New(44)
	raw := xrand.SampleInt64s(rng, 90, 480)
	ks := mustSet(t, raw)
	g, err := GreedyMultiPoint(ks, 10)
	if err != nil {
		t.Fatal(err)
	}
	if r := g.RatioLoss(); r < 3 {
		t.Fatalf("Figure 4 shape violated: ratio %v < 3", r)
	}
}
