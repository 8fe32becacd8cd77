package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"cdfpoison/internal/keys"
	"cdfpoison/internal/regression"
	"cdfpoison/internal/xrand"
)

// removeKey returns ks without k (test helper, O(n)).
func removeKey(t *testing.T, ks keys.Set, k int64) keys.Set {
	t.Helper()
	out := make([]int64, 0, ks.Len()-1)
	for _, v := range ks.Keys() {
		if v != k {
			out = append(out, v)
		}
	}
	s, err := keys.NewStrict(out)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestOptimalSingleRemovalMatchesBruteForce(t *testing.T) {
	rng := xrand.New(50)
	for trial := 0; trial < 200; trial++ {
		ks := randomSet(rng, 3, 40, 300)
		res, err := OptimalSingleRemoval(ks)
		if err != nil {
			t.Fatal(err)
		}
		// Brute force: refit after every possible removal.
		bestLoss, bestKey := -1.0, int64(-1)
		for _, k := range ks.Keys() {
			m, err := regression.FitCDF(removeKey(t, ks, k))
			if err != nil {
				t.Fatal(err)
			}
			if m.Loss > bestLoss {
				bestLoss, bestKey = m.Loss, k
			}
		}
		if math.Abs(res.PoisonedLoss-bestLoss) > 1e-8*(1+bestLoss) {
			t.Fatalf("removal loss %v (key %d) != brute %v (key %d) on %v",
				res.PoisonedLoss, res.Key, bestLoss, bestKey, ks)
		}
	}
}

func TestOptimalSingleRemovalQuick(t *testing.T) {
	f := func(seed uint32) bool {
		rng := xrand.New(uint64(seed))
		ks := randomSet(rng, 3, 25, 150)
		res, err := OptimalSingleRemoval(ks)
		if err != nil {
			return false
		}
		// Reported loss must match a real refit of the survivor set.
		out := make([]int64, 0, ks.Len()-1)
		for _, v := range ks.Keys() {
			if v != res.Key {
				out = append(out, v)
			}
		}
		survivors, err := keys.NewStrict(out)
		if err != nil {
			return false
		}
		m, err := regression.FitCDF(survivors)
		if err != nil {
			return false
		}
		return math.Abs(res.PoisonedLoss-m.Loss) <= 1e-8*(1+m.Loss)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestRemovalErrors(t *testing.T) {
	tiny := mustSet(t, []int64{1, 5})
	if _, err := OptimalSingleRemoval(tiny); !errors.Is(err, ErrTooFew) {
		t.Fatalf("want ErrTooFew, got %v", err)
	}
	if _, err := GreedyRemoval(tiny, 1); !errors.Is(err, ErrTooFew) {
		t.Fatalf("greedy: want ErrTooFew, got %v", err)
	}
	if _, err := GreedyRemoval(mustSet(t, []int64{1, 5, 9}), -1); err == nil {
		t.Fatal("negative budget accepted")
	}
}

func TestGreedyRemovalBasics(t *testing.T) {
	rng := xrand.New(51)
	ks := randomSet(rng, 60, 60, 600)
	g, err := GreedyRemoval(ks, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Removed)+g.Remaining.Len() != ks.Len() {
		t.Fatalf("keys lost: %d removed + %d remaining != %d", len(g.Removed), g.Remaining.Len(), ks.Len())
	}
	for _, k := range g.Removed {
		if g.Remaining.Contains(k) {
			t.Fatalf("removed key %d still present", k)
		}
		if !ks.Contains(k) {
			t.Fatalf("removed key %d never existed", k)
		}
	}
	if g.RatioLoss() < 1 {
		t.Fatalf("removal attack ratio %v < 1", g.RatioLoss())
	}
	// Final loss matches a refit.
	m, err := regression.FitCDF(g.Remaining)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Loss-g.FinalLoss()) > 1e-8*(1+m.Loss) {
		t.Fatalf("final loss %v != refit %v", g.FinalLoss(), m.Loss)
	}
}

func TestGreedyRemovalTrajectoryNonDecreasing(t *testing.T) {
	rng := xrand.New(52)
	for trial := 0; trial < 30; trial++ {
		ks := randomSet(rng, 20, 60, 500)
		g, err := GreedyRemoval(ks, 8)
		if err != nil {
			t.Fatal(err)
		}
		prev := g.CleanLoss
		for i, l := range g.Trajectory {
			if l < prev {
				t.Fatalf("trajectory decreased at %d: %v -> %v", i, prev, l)
			}
			prev = l
		}
	}
}

func TestGreedyRemovalStopsOnPerfectLine(t *testing.T) {
	// Evenly spaced keys: every removal introduces error, so removals are
	// always "profitable"… except the attack must still behave sensibly on
	// the degenerate perfectly-linear input where clean loss is 0.
	ks := mustSet(t, []int64{0, 10, 20, 30, 40, 50})
	g, err := GreedyRemoval(ks, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.CleanLoss > 1e-12 {
		t.Fatalf("clean loss %v", g.CleanLoss)
	}
	// Removing an interior key from an even grid bends the CDF: loss grows.
	if len(g.Removed) == 0 {
		t.Fatal("no key removed from even grid")
	}
	if g.FinalLoss() <= 0 {
		t.Fatalf("final loss %v", g.FinalLoss())
	}
}
