package core

import (
	"errors"
	"math"
	"testing"

	"cdfpoison/internal/regression"
	"cdfpoison/internal/xrand"
)

func TestGreedyModificationBasics(t *testing.T) {
	rng := xrand.New(60)
	ks := randomSet(rng, 100, 100, 1000)
	res, err := GreedyModification(ks, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Key count preserved by every remove+insert pair.
	if res.Modified.Len() != ks.Len() {
		t.Fatalf("key count drifted: %d -> %d", ks.Len(), res.Modified.Len())
	}
	if res.RatioLoss() < 1 {
		t.Fatalf("modification ratio %v < 1", res.RatioLoss())
	}
	// Final loss matches an independent refit.
	m, err := regression.FitCDF(res.Modified)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Loss-res.FinalLoss()) > 1e-8*(1+m.Loss) {
		t.Fatalf("final loss %v != refit %v", res.FinalLoss(), m.Loss)
	}
	// Each step's removed key was present, inserted key was absent.
	cur := ks
	for i, s := range res.Steps {
		if !cur.Contains(s.Removed) {
			t.Fatalf("step %d removed absent key %d", i, s.Removed)
		}
		next, ok := cur.Remove(s.Removed)
		if !ok {
			t.Fatalf("step %d removed absent key %d", i, s.Removed)
		}
		if s.Inserted >= 0 {
			var ok bool
			next, ok = next.Insert(s.Inserted)
			if !ok {
				t.Fatalf("step %d inserted occupied key %d", i, s.Inserted)
			}
		}
		cur = next
	}
	if !cur.Equal(res.Modified) {
		t.Fatal("step replay does not reproduce the modified set")
	}
}

func TestGreedyModificationTrajectoryNonDecreasing(t *testing.T) {
	rng := xrand.New(61)
	for trial := 0; trial < 20; trial++ {
		ks := randomSet(rng, 30, 80, 800)
		res, err := GreedyModification(ks, 8)
		if err != nil {
			t.Fatal(err)
		}
		prev := res.CleanLoss
		for i, s := range res.Steps {
			if s.Loss < prev-1e-12 {
				t.Fatalf("trajectory decreased at step %d: %v -> %v", i, prev, s.Loss)
			}
			prev = s.Loss
		}
	}
}

func TestGreedyModificationErrors(t *testing.T) {
	tiny := mustSet(t, []int64{1, 5})
	if _, err := GreedyModification(tiny, 2); !errors.Is(err, ErrTooFew) {
		t.Fatalf("want ErrTooFew, got %v", err)
	}
	ks := mustSet(t, []int64{1, 5, 9})
	if _, err := GreedyModification(ks, -1); err == nil {
		t.Fatal("negative budget accepted")
	}
}

func TestGreedyModificationBeatsNothing(t *testing.T) {
	// On uniform data with room to maneuver, modifications must achieve a
	// real amplification (they subsume pure insertions up to budget).
	rng := xrand.New(62)
	ks := randomSet(rng, 200, 200, 4000)
	res, err := GreedyModification(ks, 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.RatioLoss() < 1.5 {
		t.Fatalf("modification attack too weak: %v", res.RatioLoss())
	}
}
