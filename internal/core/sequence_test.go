package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"cdfpoison/internal/xrand"
)

func TestLossSequenceCoversFreeSlots(t *testing.T) {
	ks := mustSet(t, []int64{2, 6, 7, 12})
	seq, clean, err := LossSequence(ks)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(seq)) != ks.FreeSlots() {
		t.Fatalf("sequence length %d != free slots %d", len(seq), ks.FreeSlots())
	}
	if clean <= 0 {
		t.Fatalf("clean loss %v", clean)
	}
	// Keys strictly increasing, all absent from the set.
	for i, p := range seq {
		if ks.Contains(p.Key) {
			t.Fatalf("sequence contains stored key %d", p.Key)
		}
		if i > 0 && seq[i-1].Key >= p.Key {
			t.Fatalf("sequence not increasing at %d", i)
		}
	}
}

func TestLossSequenceMaxEqualsOptimal(t *testing.T) {
	rng := xrand.New(10)
	for trial := 0; trial < 50; trial++ {
		ks := randomSet(rng, 3, 40, 250)
		seq, _, err := LossSequence(ks)
		if errors.Is(err, ErrNoGap) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		best := seq[0]
		for _, p := range seq {
			if p.Loss > best.Loss {
				best = p
			}
		}
		opt, err := OptimalSinglePoint(ks)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(best.Loss-opt.PoisonedLoss) > 1e-9*(1+best.Loss) {
			t.Fatalf("sequence max %v != optimal %v", best.Loss, opt.PoisonedLoss)
		}
	}
}

func TestLossSequenceErrors(t *testing.T) {
	if _, _, err := LossSequence(mustSet(t, []int64{7})); !errors.Is(err, ErrTooFew) {
		t.Fatalf("want ErrTooFew, got %v", err)
	}
	if _, _, err := LossSequence(mustSet(t, []int64{7, 8, 9})); !errors.Is(err, ErrNoGap) {
		t.Fatalf("want ErrNoGap, got %v", err)
	}
}

// TestSequenceCancellation: a pre-cancelled context aborts both Figure 3
// scans with context.Canceled instead of returning a partial sequence.
func TestSequenceCancellation(t *testing.T) {
	ks := mustSet(t, []int64{1, 5, 9, 20, 40})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if seq, _, err := LossSequence(ks, WithContext(ctx)); !errors.Is(err, context.Canceled) || seq != nil {
		t.Fatalf("LossSequence = (%d points, %v), want context.Canceled", len(seq), err)
	}
	if reps, err := CheckGapConvexity(ks, WithContext(ctx)); !errors.Is(err, context.Canceled) || reps != nil {
		t.Fatalf("CheckGapConvexity = (%d reports, %v), want context.Canceled", len(reps), err)
	}
}

func TestDiscreteDerivative(t *testing.T) {
	seq := []LossPoint{{Key: 1, Loss: 10}, {Key: 2, Loss: 12}, {Key: 5, Loss: 11}}
	d := DiscreteDerivative(seq)
	if len(d) != 2 {
		t.Fatalf("derivative length %d", len(d))
	}
	if d[0].Key != 1 || d[0].Loss != 2 {
		t.Errorf("d[0] = %+v", d[0])
	}
	if d[1].Key != 2 || d[1].Loss != -1 {
		t.Errorf("d[1] = %+v", d[1])
	}
	if DiscreteDerivative(seq[:1]) != nil {
		t.Error("derivative of singleton should be nil")
	}
}

func TestDerivativeSumsTelescope(t *testing.T) {
	rng := xrand.New(11)
	ks := randomSet(rng, 5, 30, 200)
	seq, _, err := LossSequence(ks)
	if errors.Is(err, ErrNoGap) {
		t.Skip("saturated")
	}
	if err != nil {
		t.Fatal(err)
	}
	d := DiscreteDerivative(seq)
	sum := 0.0
	for _, p := range d {
		sum += p.Loss
	}
	want := seq[len(seq)-1].Loss - seq[0].Loss
	if math.Abs(sum-want) > 1e-9*(1+math.Abs(want)) {
		t.Fatalf("telescoped sum %v != %v", sum, want)
	}
}

// TestGapConvexityTheorem2 verifies the corollary of Theorem 2 on random
// instances: within every gap, the loss maximum sits at an endpoint.
func TestGapConvexityTheorem2(t *testing.T) {
	f := func(seed uint32) bool {
		rng := xrand.New(uint64(seed))
		ks := randomSet(rng, 4, 40, 400)
		reports, err := CheckGapConvexity(ks)
		if err != nil {
			return errors.Is(err, ErrNoGap) || errors.Is(err, ErrTooFew)
		}
		for _, r := range reports {
			// Allow only floating-point noise above the endpoint max.
			if r.Excess > 1e-9*(1+r.EndpointMax) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestGapConvexitySecondDifference(t *testing.T) {
	// Stronger check on one instance: within each gap the second difference
	// of the loss sequence is non-negative (discrete convexity).
	rng := xrand.New(12)
	ks := randomSet(rng, 10, 20, 500)
	seq, _, err := LossSequence(ks)
	if errors.Is(err, ErrNoGap) {
		t.Skip("saturated")
	}
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[int64]float64{}
	for _, p := range seq {
		byKey[p.Key] = p.Loss
	}
	for _, g := range ks.Gaps() {
		for k := g.Lo; k+2 <= g.Hi; k++ {
			second := byKey[k+2] - 2*byKey[k+1] + byKey[k]
			if second < -1e-7*(1+math.Abs(byKey[k])) {
				t.Fatalf("second difference %v < 0 at key %d in gap %v", second, k, g)
			}
		}
	}
}

func TestCheckGapConvexitySkipsNarrowGaps(t *testing.T) {
	// Gaps of width < 3 have no interior candidate and produce no report.
	ks := mustSet(t, []int64{1, 3, 5, 7})
	reports, err := CheckGapConvexity(ks)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 0 {
		t.Fatalf("got %d reports for width-1 gaps", len(reports))
	}
}
