package cdfpoison_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"cdfpoison"
)

// TestEndToEndRegressionAttack walks the full public-API path a downstream
// user would take: generate data, fit, attack, verify amplification.
func TestEndToEndRegressionAttack(t *testing.T) {
	rng := cdfpoison.NewRNG(1)
	ks, err := cdfpoison.UniformKeys(rng, 500, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := cdfpoison.FitCDF(ks)
	if err != nil {
		t.Fatal(err)
	}
	atk, err := cdfpoison.GreedyMultiPoint(ks, 50)
	if err != nil {
		t.Fatal(err)
	}
	poisoned, err := cdfpoison.FitCDF(atk.Poisoned)
	if err != nil {
		t.Fatal(err)
	}
	if poisoned.Loss <= clean.Loss {
		t.Fatalf("attack failed: %v -> %v", clean.Loss, poisoned.Loss)
	}
	if atk.RatioLoss() < 2 {
		t.Fatalf("ratio %v unexpectedly small for 10%% poisoning", atk.RatioLoss())
	}
}

// TestEndToEndRMIAttackAndIndex exercises the attack plus the index
// substrate: the poisoned index must still answer correctly but cost more.
func TestEndToEndRMIAttackAndIndex(t *testing.T) {
	rng := cdfpoison.NewRNG(2)
	ks, err := cdfpoison.LogNormalKeys(rng, 8_000, 400_000, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cdfpoison.RMIAttack(ks, cdfpoison.RMIAttackOptions{
		NumModels: 40, Percent: 10, Alpha: 3, MaxMoves: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RMIRatio() <= 1 {
		t.Fatalf("RMI ratio %v", res.RMIRatio())
	}
	cleanIdx, err := cdfpoison.BuildRMI(ks, cdfpoison.RMIConfig{Fanout: 40})
	if err != nil {
		t.Fatal(err)
	}
	poisIdx, err := cdfpoison.BuildRMI(ks.Union(res.Poison), cdfpoison.RMIConfig{Fanout: 40})
	if err != nil {
		t.Fatal(err)
	}
	// Correctness survives; cost degrades.
	for i := 0; i < ks.Len(); i += 97 {
		if r := poisIdx.Lookup(ks.At(i)); !r.Found {
			t.Fatalf("legit key lost after poisoning: %d", ks.At(i))
		}
	}
	if poisIdx.Stats().AvgWindow <= cleanIdx.Stats().AvgWindow {
		t.Fatalf("windows did not degrade: %v vs %v",
			poisIdx.Stats().AvgWindow, cleanIdx.Stats().AvgWindow)
	}
}

// TestEndToEndDefense exercises the defense path.
func TestEndToEndDefense(t *testing.T) {
	rng := cdfpoison.NewRNG(3)
	clean, err := cdfpoison.UniformKeys(rng, 300, 6_000)
	if err != nil {
		t.Fatal(err)
	}
	atk, err := cdfpoison.GreedyMultiPoint(clean, 30)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := cdfpoison.TrimDefense(atk.Poisoned, 300, cdfpoison.TrimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	poison, err := cdfpoison.NewKeySetStrict(atk.Poison)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := cdfpoison.EvaluateDefense(clean, poison, tr.Removed, tr.Kept)
	if err != nil {
		t.Fatal(err)
	}
	if ev.TruePoison != 30 {
		t.Fatalf("eval lost the poison count: %+v", ev)
	}
}

// TestKeyIO exercises the key-text reader through the facade.
func TestKeyIO(t *testing.T) {
	ks, err := cdfpoison.NewKeySet([]int64{5, 1, 9, 5})
	if err != nil {
		t.Fatal(err)
	}
	got, err := cdfpoison.ReadKeysText(strings.NewReader("9\n1\n5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(ks) {
		t.Fatalf("text io mismatch: %v vs %v", got, ks)
	}
}

// TestErrorsExposed verifies the sentinel errors surface through the facade.
func TestErrorsExposed(t *testing.T) {
	saturated, err := cdfpoison.NewKeySet([]int64{4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cdfpoison.OptimalSinglePoint(saturated); !errors.Is(err, cdfpoison.ErrNoGap) {
		t.Fatalf("want ErrNoGap, got %v", err)
	}
	tiny, _ := cdfpoison.NewKeySet([]int64{4})
	if _, err := cdfpoison.OptimalSinglePoint(tiny); !errors.Is(err, cdfpoison.ErrTooFew) {
		t.Fatalf("want ErrTooFew, got %v", err)
	}
}

// TestBTreeFacade smoke-tests the baseline index through the facade.
func TestBTreeFacade(t *testing.T) {
	bt, err := cdfpoison.BuildBTree(8, []int64{5, 1, 9})
	if err != nil {
		t.Fatal(err)
	}
	if found, _ := bt.Get(9); bt.Len() != 3 || !found {
		t.Fatal("btree facade broken")
	}
}

// TestWithParallelismPublicAPI exercises the exported parallelism options
// end to end: a parallel attack must match the sequential default exactly,
// and a pre-cancelled context must abort the attack.
func TestWithParallelismPublicAPI(t *testing.T) {
	rng := cdfpoison.NewRNG(31)
	ks, err := cdfpoison.LogNormalKeys(rng, 1500, 300_000, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := cdfpoison.GreedyMultiPoint(ks, 60)
	if err != nil {
		t.Fatal(err)
	}
	par, err := cdfpoison.GreedyMultiPoint(ks, 60, cdfpoison.WithParallelism(0)) // all cores
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("WithParallelism changed the greedy attack result")
	}

	rseq, err := cdfpoison.RMIAttack(ks, cdfpoison.RMIAttackOptions{NumModels: 15, Percent: 10, Alpha: 3})
	if err != nil {
		t.Fatal(err)
	}
	rpar, err := cdfpoison.RMIAttack(ks, cdfpoison.RMIAttackOptions{NumModels: 15, Percent: 10, Alpha: 3},
		cdfpoison.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rseq, rpar) {
		t.Fatal("WithParallelism changed the RMI attack result")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cdfpoison.GreedyMultiPoint(ks, 60, cdfpoison.WithParallelism(2), cdfpoison.WithCancellation(ctx)); err == nil {
		t.Fatal("cancelled context did not abort the attack")
	}
}
