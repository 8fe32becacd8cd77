package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"cdfpoison/internal/dataset"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/xrand"
)

// testSets draws a spread of fixed-seed key sets covering the regimes the
// attacks behave differently in: sparse/dense, uniform/skewed, tiny/large.
func testSets(t testing.TB) map[string]keys.Set {
	t.Helper()
	sets := map[string]keys.Set{}
	add := func(name string, gen func(*xrand.RNG) (keys.Set, error)) {
		ks, err := gen(xrand.New(12345))
		if err != nil {
			t.Fatalf("dataset %s: %v", name, err)
		}
		sets[name] = ks
	}
	add("uniform-sparse", func(r *xrand.RNG) (keys.Set, error) { return dataset.Uniform(r, 500, 50_000) })
	add("uniform-dense", func(r *xrand.RNG) (keys.Set, error) { return dataset.Uniform(r, 400, 520) })
	add("normal", func(r *xrand.RNG) (keys.Set, error) { return dataset.Normal(r, 300, 9_000) })
	add("lognormal", func(r *xrand.RNG) (keys.Set, error) { return dataset.LogNormal(r, 600, 200_000, 0, 2) })
	add("tiny", func(r *xrand.RNG) (keys.Set, error) { return dataset.Uniform(r, 10, 41) })
	return sets
}

// workerCounts exercises sequential, a forced multi-goroutine pool, and the
// host's NumCPU, per the equivalence criterion workers=1 vs workers=NumCPU.
func workerCounts() []int {
	counts := []int{1, 4}
	if n := runtime.NumCPU(); n != 1 && n != 4 {
		counts = append(counts, n)
	}
	return counts
}

// TestOptimalSinglePointEquivalence: identical SinglePointResult for every
// worker count on every dataset regime.
func TestOptimalSinglePointEquivalence(t *testing.T) {
	for name, ks := range testSets(t) {
		want, wantErr := OptimalSinglePoint(ks, WithWorkers(1))
		for _, w := range workerCounts() {
			got, err := OptimalSinglePoint(ks, WithWorkers(w))
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%s workers=%d: err %v vs sequential %v", name, w, err, wantErr)
			}
			if got != want {
				t.Fatalf("%s workers=%d: %+v != sequential %+v", name, w, got, want)
			}
		}
	}
}

func TestBruteForceSinglePointEquivalence(t *testing.T) {
	for name, ks := range testSets(t) {
		if ks.Len() > 500 && ks.FreeSlots() > 1_000_000 {
			continue // keep brute force test-sized
		}
		want, wantErr := BruteForceSinglePoint(ks, WithWorkers(1))
		for _, w := range workerCounts() {
			got, err := BruteForceSinglePoint(ks, WithWorkers(w))
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%s workers=%d: err %v vs sequential %v", name, w, err, wantErr)
			}
			if got != want {
				t.Fatalf("%s workers=%d: %+v != sequential %+v", name, w, got, want)
			}
		}
	}
}

// TestGreedyMultiPointEquivalence is the headline determinism test: the
// full greedy trajectory — every chosen key, every intermediate loss —
// must be byte-identical across worker counts.
func TestGreedyMultiPointEquivalence(t *testing.T) {
	for name, ks := range testSets(t) {
		budget := ks.Len() / 10
		if budget < 3 {
			budget = 3
		}
		want, wantErr := GreedyMultiPoint(ks, budget, WithWorkers(1))
		if wantErr != nil {
			t.Fatalf("%s: sequential greedy: %v", name, wantErr)
		}
		for _, w := range workerCounts() {
			got, err := GreedyMultiPoint(ks, budget, WithWorkers(w))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s workers=%d: result diverged from sequential\n got: %+v\nwant: %+v", name, w, got, want)
			}
		}
	}
}

// TestRMIAttackEquivalence: Algorithm 2's full output — per-model reports,
// poison keys, exchange count — must match the sequential run exactly.
func TestRMIAttackEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name string
		gen  func(*xrand.RNG) (keys.Set, error)
		opts RMIAttackOptions
	}{
		{"uniform", func(r *xrand.RNG) (keys.Set, error) { return dataset.Uniform(r, 2_000, 100_000) },
			RMIAttackOptions{NumModels: 20, Percent: 10, Alpha: 3}},
		{"lognormal", func(r *xrand.RNG) (keys.Set, error) { return dataset.LogNormal(r, 2_000, 200_000, 0, 2) },
			RMIAttackOptions{NumModels: 25, Percent: 5, Alpha: 2}},
		{"no-threshold", func(r *xrand.RNG) (keys.Set, error) { return dataset.Uniform(r, 1_000, 50_000) },
			RMIAttackOptions{NumModels: 10, Percent: 15}},
		{"no-exchanges", func(r *xrand.RNG) (keys.Set, error) { return dataset.Uniform(r, 1_000, 50_000) },
			RMIAttackOptions{NumModels: 10, Percent: 10, Alpha: 3, DisableExchanges: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ks, err := tc.gen(xrand.New(777))
			if err != nil {
				t.Fatal(err)
			}
			want, err := RMIAttack(ks, tc.opts, WithWorkers(1))
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range workerCounts() {
				got, err := RMIAttack(ks, tc.opts, WithWorkers(w))
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("workers=%d: RMI attack diverged from sequential\n got moves=%d injected=%d ratio=%v\nwant moves=%d injected=%d ratio=%v",
						w, got.Moves, got.Injected, got.RMIRatio(), want.Moves, want.Injected, want.RMIRatio())
				}
			}
		})
	}
}

// TestGreedyMultiPointCancellation: a cancelled context aborts the attack.
func TestGreedyMultiPointCancellation(t *testing.T) {
	ks, err := dataset.Uniform(xrand.New(9), 5_000, 500_000)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = GreedyMultiPoint(ks, 50, WithWorkers(4), WithContext(ctx))
	if err == nil {
		t.Fatal("expected cancellation error, got nil")
	}
}

// BenchmarkGreedyMultiPointWorkers is the acceptance benchmark: Algorithm 1
// at n >= 1e5 keys, p >= 50, sequential vs one-worker-per-core. On a
// multi-core host the workers=NumCPU variant must be >= 2x faster; results
// are identical regardless (enforced by TestGreedyMultiPointEquivalence).
func BenchmarkGreedyMultiPointWorkers(b *testing.B) {
	ks, err := dataset.Uniform(xrand.New(4242), 100_000, 10_000_000)
	if err != nil {
		b.Fatal(err)
	}
	const budget = 50
	for _, w := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("n=100k/p=%d/workers=%d", budget, w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := GreedyMultiPoint(ks, budget, WithWorkers(w)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestGreedyMultiPointAllocationBudget pins the incremental kernel's
// zero-allocation steady state: a sequential greedy attack allocates only
// its setup (mutable set, kernel, scratch buffer, result slices) — if any
// per-step allocation crept back in, the count would scale with the budget
// and blow far past this bound.
func TestGreedyMultiPointAllocationBudget(t *testing.T) {
	ks, err := dataset.Uniform(xrand.New(321), 2_000, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 50
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := GreedyMultiPoint(ks, budget, WithWorkers(1)); err != nil {
			t.Fatal(err)
		}
	})
	// Setup costs ~17 allocations (mutable set, kernel, scan + pruned-scan
	// structs and their worst-case-sized scratch buffers); 24 leaves slack
	// for runtime noise while still catching any O(budget) regression
	// (50 steps ⇒ ≥ 50 allocs).
	if allocs > 24 {
		t.Fatalf("GreedyMultiPoint(p=%d) allocated %v times; the kernel must not allocate per step", budget, allocs)
	}
}

// TestGreedyPoisonedIsIndependent: Poisoned is the greedy workspace's own
// key buffer, handed over uncopied because the workspace dies with the
// call. Two calls on one input must return equal sets, holding the input
// plus the poison, that share no backing array, and neither may alias the
// input.
func TestGreedyPoisonedIsIndependent(t *testing.T) {
	ks, err := dataset.Uniform(xrand.New(77), 500, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	a, err := GreedyMultiPoint(ks, 20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GreedyMultiPoint(ks, 20)
	if err != nil {
		t.Fatal(err)
	}
	want, err := keys.New(append(append([]int64(nil), ks.Keys()...), a.Poison...))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Poison) != 20 || !a.Poisoned.Equal(want) || !b.Poisoned.Equal(a.Poisoned) {
		t.Fatalf("Poisoned sets: %d and %d keys, want %d", a.Poisoned.Len(), b.Poisoned.Len(), want.Len())
	}
	pa, pb, in := &a.Poisoned.Keys()[0], &b.Poisoned.Keys()[0], &ks.Keys()[0]
	if pa == pb || pa == in || pb == in {
		t.Fatal("Poisoned shares a backing array with the other call's result or with the input")
	}
}

// BenchmarkBruteForceSinglePointWorkers measures the parallel brute-force
// oracle (per-candidate O(1) over the whole free domain).
func BenchmarkBruteForceSinglePointWorkers(b *testing.B) {
	ks, err := dataset.Uniform(xrand.New(4242), 50_000, 5_000_000)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := BruteForceSinglePoint(ks, WithWorkers(w)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestRMIAttackCancellation: cancellation must reach inside Algorithm 2's
// inner greedy attacks (not just phase boundaries) and always surface as an
// error, never as a partial result.
func TestRMIAttackCancellation(t *testing.T) {
	ks, err := dataset.Uniform(xrand.New(9), 4_000, 400_000)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = RMIAttack(ks, RMIAttackOptions{NumModels: 1, Percent: 10, Alpha: 3},
		WithWorkers(2), WithContext(ctx))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
