package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"cdfpoison/internal/dataset"
	"cdfpoison/internal/dynamic"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/xrand"
)

// onlineFixture draws a deterministic initial set plus an arrival schedule.
func onlineFixture(t testing.TB, n, epochs, perEpoch int) (keys.Set, [][]int64) {
	t.Helper()
	rng := xrand.New(2025)
	initial, err := dataset.Uniform(rng, n, int64(n)*40)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := make([][]int64, epochs)
	for e := range arrivals {
		for i := 0; i < perEpoch; i++ {
			arrivals[e] = append(arrivals[e], rng.Int63n(int64(n)*40))
		}
	}
	return initial, arrivals
}

func TestOnlineValidation(t *testing.T) {
	initial, _ := onlineFixture(t, 50, 1, 0)
	for name, opts := range map[string]OnlineOptions{
		"no-epochs":       {EpochBudget: 5},
		"negative-budget": {Epochs: 2, EpochBudget: -1},
		"long-arrivals":   {Epochs: 1, Arrivals: [][]int64{{1}, {2}}},
		"rmi-no-models":   {Epochs: 2, EpochBudget: 5, Oracle: OracleRMI},
		"rmi-nan-alpha":   {Epochs: 2, Oracle: OracleRMI, RMI: RMIAttackOptions{NumModels: 5, Alpha: math.NaN()}},
		"bad-oracle":      {Epochs: 2, EpochBudget: 5, Oracle: OnlineOracle(99)},
		"bad-policy":      {Epochs: 2, Policy: dynamic.EveryKInserts(0)},
	} {
		if _, err := OnlinePoisonAttack(initial, opts); err == nil {
			t.Errorf("%s: invalid options accepted", name)
		}
	}
	tiny, _ := keys.New([]int64{7})
	if _, err := OnlinePoisonAttack(tiny, OnlineOptions{Epochs: 1}); !errors.Is(err, ErrTooFew) {
		t.Fatalf("single-key initial set: err = %v, want ErrTooFew", err)
	}
}

// TestOnlineManualPolicy: with the manual policy every epoch ends in exactly
// one retrain, the buffer is always empty at measurement time, and the
// poisoned loss ratio grows as the attacker's cumulative budget compounds.
func TestOnlineManualPolicy(t *testing.T) {
	initial, arrivals := onlineFixture(t, 400, 4, 10)
	res, err := OnlinePoisonAttack(initial, OnlineOptions{
		Epochs:      4,
		EpochBudget: 20,
		Policy:      dynamic.ManualPolicy(),
		Arrivals:    arrivals,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 4 {
		t.Fatalf("%d epoch reports, want 4", len(res.Epochs))
	}
	for i, e := range res.Epochs {
		if e.Epoch != i+1 {
			t.Fatalf("epoch %d numbered %d", i, e.Epoch)
		}
		if e.Retrains != i+1 {
			t.Fatalf("epoch %d: %d retrains, want %d", e.Epoch, e.Retrains, i+1)
		}
		if e.BufferLen != 0 {
			t.Fatalf("epoch %d: manual policy left %d buffered keys after forced retrain", e.Epoch, e.BufferLen)
		}
		if e.Injected < 1 || e.Injected > 20 {
			t.Fatalf("epoch %d: injected %d keys (budget 20)", e.Epoch, e.Injected)
		}
		if e.RatioLoss < 1 {
			t.Fatalf("epoch %d: ratio %v < 1 — the oracle should never help the victim", e.Epoch, e.RatioLoss)
		}
	}
	first, last := res.Epochs[0], res.Epochs[len(res.Epochs)-1]
	if last.RatioLoss <= first.RatioLoss {
		t.Fatalf("ratio did not compound across epochs: %v -> %v", first.RatioLoss, last.RatioLoss)
	}
	if last.PoisonedProbes <= last.CleanProbes {
		t.Fatalf("poisoning did not raise probe cost: clean %v, poisoned %v",
			last.CleanProbes, last.PoisonedProbes)
	}
	if res.Poison.Len() != last.PoisonTotal {
		t.Fatalf("poison set %d != cumulative total %d", res.Poison.Len(), last.PoisonTotal)
	}
	if res.Retrains != 4 {
		t.Fatalf("total retrains %d, want 4", res.Retrains)
	}
}

// TestOnlineBufferPolicy: with a buffer-threshold policy retrains fire only
// when accepted inserts reach the limit, so the buffer is non-empty at most
// epoch boundaries and the model lags the content.
func TestOnlineBufferPolicy(t *testing.T) {
	initial, arrivals := onlineFixture(t, 400, 3, 10)
	res, err := OnlinePoisonAttack(initial, OnlineOptions{
		Epochs:      3,
		EpochBudget: 15,
		Policy:      dynamic.BufferLimit(1_000_000), // never fires: pure staleness
		Arrivals:    arrivals,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Retrains != 0 {
		t.Fatalf("oversized buffer limit retrained %d times", res.Retrains)
	}
	last := res.Epochs[len(res.Epochs)-1]
	if last.BufferLen == 0 {
		t.Fatal("no keys buffered despite zero retrains")
	}
	if last.BufferLen != last.PoisonTotal+arrivalAcceptance(t, initial, arrivals) {
		t.Fatalf("buffer %d != poison %d + accepted arrivals %d",
			last.BufferLen, last.PoisonTotal, arrivalAcceptance(t, initial, arrivals))
	}

	// A tight limit must retrain during the scenario.
	res2, err := OnlinePoisonAttack(initial, OnlineOptions{
		Epochs:      3,
		EpochBudget: 15,
		Policy:      dynamic.BufferLimit(8),
		Arrivals:    arrivals,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Retrains == 0 {
		t.Fatal("buffer limit 8 never fired")
	}
}

// arrivalAcceptance counts arrivals a clean index (same initial set) accepts
// — the expected buffered-legit count when no retrain ever fires. The victim
// accepts the same arrivals in this scenario because poison keys are chosen
// from slots unoccupied at injection time and the fixture's arrival keys are
// compared against the same evolving content.
func arrivalAcceptance(t *testing.T, initial keys.Set, arrivals [][]int64) int {
	t.Helper()
	x, err := dynamic.New(initial, dynamic.ManualPolicy())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, epoch := range arrivals {
		for _, k := range epoch {
			if ok, _ := x.Insert(k); ok {
				n++
			}
		}
	}
	return n
}

// TestOnlineEveryKPolicy: the attacker's own inserts advance the write
// counter, so the retrain cadence follows total writes.
func TestOnlineEveryKPolicy(t *testing.T) {
	initial, _ := onlineFixture(t, 300, 2, 0)
	res, err := OnlinePoisonAttack(initial, OnlineOptions{
		Epochs:      2,
		EpochBudget: 10,
		Policy:      dynamic.EveryKInserts(5),
	})
	if err != nil {
		t.Fatal(err)
	}
	// 10 writes per epoch, retrain every 5 writes: 2 per epoch, 4 total.
	if res.Retrains != 4 {
		t.Fatalf("retrains = %d, want 4 (attacker-driven cadence)", res.Retrains)
	}
}

// TestOnlineRMIOracle: the Algorithm 2 oracle drives the scenario end to
// end and injects within budget.
func TestOnlineRMIOracle(t *testing.T) {
	initial, arrivals := onlineFixture(t, 600, 3, 5)
	res, err := OnlinePoisonAttack(initial, OnlineOptions{
		Epochs:      3,
		EpochBudget: 30,
		Policy:      dynamic.ManualPolicy(),
		Arrivals:    arrivals,
		Oracle:      OracleRMI,
		RMI:         RMIAttackOptions{NumModels: 6, Alpha: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Epochs {
		if e.Injected > 30 {
			t.Fatalf("epoch %d: injected %d > budget 30", e.Epoch, e.Injected)
		}
	}
	if res.Poison.Len() == 0 {
		t.Fatal("RMI oracle injected nothing")
	}
	if res.FinalRatio() < 1 {
		t.Fatalf("final ratio %v < 1", res.FinalRatio())
	}
}

// TestOnlineZeroBudget: with no attacker the victim IS the counterfactual —
// every epoch must report ratio exactly 1 and identical probe costs.
func TestOnlineZeroBudget(t *testing.T) {
	initial, arrivals := onlineFixture(t, 300, 3, 20)
	res, err := OnlinePoisonAttack(initial, OnlineOptions{
		Epochs:   3,
		Policy:   dynamic.BufferLimit(16),
		Arrivals: arrivals,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Epochs {
		if e.Injected != 0 || e.PoisonTotal != 0 {
			t.Fatalf("epoch %d injected keys with zero budget", e.Epoch)
		}
		if e.RatioLoss != 1 {
			t.Fatalf("epoch %d: ratio %v != 1 with no poisoning", e.Epoch, e.RatioLoss)
		}
		if e.CleanProbes != e.PoisonedProbes {
			t.Fatalf("epoch %d: probe costs diverged without poisoning", e.Epoch)
		}
	}
	if res.Poison.Len() != 0 {
		t.Fatal("poison set non-empty with zero budget")
	}
}

// TestOnlineWorkerEquivalence is the scenario's determinism contract: the
// ENTIRE result — every epoch report, every poison key, every probe mean —
// must be byte-identical for workers=1 and workers=NumCPU, for both oracles.
func TestOnlineWorkerEquivalence(t *testing.T) {
	initial, arrivals := onlineFixture(t, 500, 3, 15)
	for _, tc := range []struct {
		name string
		opts OnlineOptions
	}{
		{"regression-manual", OnlineOptions{
			Epochs: 3, EpochBudget: 25, Policy: dynamic.ManualPolicy(), Arrivals: arrivals}},
		{"regression-buffer", OnlineOptions{
			Epochs: 3, EpochBudget: 25, Policy: dynamic.BufferLimit(40), Arrivals: arrivals}},
		{"rmi-manual", OnlineOptions{
			Epochs: 3, EpochBudget: 25, Policy: dynamic.ManualPolicy(), Arrivals: arrivals,
			Oracle: OracleRMI, RMI: RMIAttackOptions{NumModels: 5, Alpha: 3}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := OnlinePoisonAttack(initial, tc.opts, WithWorkers(1))
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range workerCounts() {
				got, err := OnlinePoisonAttack(initial, tc.opts, WithWorkers(w))
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("workers=%d: online scenario diverged from sequential\n got: %+v\nwant: %+v",
						w, got.Epochs, want.Epochs)
				}
			}
		})
	}
}

// TestOnlineCancellation: a cancelled context aborts the scenario instead of
// returning a partial result.
func TestOnlineCancellation(t *testing.T) {
	initial, _ := onlineFixture(t, 2_000, 1, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := OnlinePoisonAttack(initial, OnlineOptions{
		Epochs: 5, EpochBudget: 50, Policy: dynamic.ManualPolicy(),
	}, WithWorkers(2), WithContext(ctx))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestOnlineEpochsDefaultToArrivals: omitting Epochs runs one epoch per
// arrival batch.
func TestOnlineEpochsDefaultToArrivals(t *testing.T) {
	initial, arrivals := onlineFixture(t, 200, 3, 5)
	res, err := OnlinePoisonAttack(initial, OnlineOptions{
		EpochBudget: 5, Policy: dynamic.ManualPolicy(), Arrivals: arrivals,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 3 {
		t.Fatalf("%d epochs, want 3 (from arrivals)", len(res.Epochs))
	}
}
