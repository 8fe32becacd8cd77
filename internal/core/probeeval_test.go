package core

// Tests for the scenario-side batch-eval plumbing (probeeval.go): the
// steady-state allocation budget and the batch-eval-vs-per-key-reference
// differential. The kernel-vs-reference bit-identity of each backend is
// pinned where the kernels live, in internal/index's differential and fuzz
// suites.

import (
	"slices"
	"testing"

	"cdfpoison/internal/dataset"
	"cdfpoison/internal/dynamic"
	"cdfpoison/internal/index"
	"cdfpoison/internal/shard"
	"cdfpoison/internal/xrand"
)

// TestProbeEvalZeroAllocs pins the epoch-eval allocation budget: once the
// sorted cache is warm, a steady-state epoch (unchanged workload) allocates
// NOTHING — no sorted-cache copy and nothing in the kernel passes.
func TestProbeEvalZeroAllocs(t *testing.T) {
	initial, err := dataset.Uniform(xrand.New(31), 2000, 80000)
	if err != nil {
		t.Fatal(err)
	}
	victim, err := dynamic.New(initial, dynamic.ManualPolicy())
	if err != nil {
		t.Fatal(err)
	}
	clean, err := dynamic.New(initial, dynamic.ManualPolicy())
	if err != nil {
		t.Fatal(err)
	}
	legit := initial.Keys()
	var pe probeEval
	pe.refresh(legit)
	allocs := testing.AllocsPerRun(20, func() {
		pe.refresh(legit) // steady state: length unchanged, no copy
		measurePair(pe.sorted, clean, victim)
	})
	if allocs != 0 {
		t.Fatalf("steady-state epoch eval allocates %.1f objects/run, want 0", allocs)
	}
}

// TestMeasurePairMatchesProbeSum is the probe-eval differential: a sorted
// batch of hits and misses must evaluate to exactly the per-key reference
// totals (index.ProbeSum) on both sides — for a dynamic index with a live
// delta buffer against a fresh one, and for a pair of 4-shard snapshots.
func TestMeasurePairMatchesProbeSum(t *testing.T) {
	initial, err := dataset.Uniform(xrand.New(37), 2000, 80000)
	if err != nil {
		t.Fatal(err)
	}
	// The batch: every third initial key (hits) plus odd probes between
	// them (mostly misses), sorted as the kernel requires.
	var batch []int64
	for i, k := range initial.Keys() {
		if i%3 == 0 {
			batch = append(batch, k, k+1)
		}
	}
	slices.Sort(batch)
	batch = slices.Compact(batch)
	extra := []int64{-5, 11, 40_001, 40_003, 79_999, 90_000}

	cleanDyn, err := dynamic.New(initial, dynamic.ManualPolicy())
	if err != nil {
		t.Fatal(err)
	}
	victimDyn, err := dynamic.New(initial, dynamic.ManualPolicy())
	if err != nil {
		t.Fatal(err)
	}
	cleanShard, err := shard.New(initial, 4, dynamic.ManualPolicy())
	if err != nil {
		t.Fatal(err)
	}
	victimShard, err := shard.New(initial, 4, dynamic.ManualPolicy())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range extra {
		victimDyn.Insert(k)
		victimShard.Insert(k)
	}
	if victimDyn.Stats().Buffered == 0 {
		t.Fatal("victim delta buffer is empty; the fixture lost its point")
	}

	for _, tc := range []struct {
		name          string
		clean, victim index.PointReader
	}{
		{"dynamic-buffered", cleanDyn, victimDyn},
		{"shard-4-snapshot", cleanShard.Snapshot(), victimShard.Snapshot()},
	} {
		wantClean, _ := index.ProbeSum(tc.clean, batch)
		wantVictim, _ := index.ProbeSum(tc.victim, batch)
		if got := measurePair(batch, tc.clean, tc.victim); got.clean != wantClean || got.victim != wantVictim {
			t.Fatalf("%s: measurePair = (clean %d, victim %d), ProbeSum = (%d, %d)",
				tc.name, got.clean, got.victim, wantClean, wantVictim)
		}
	}
}
