package core

import (
	"reflect"
	"testing"

	"cdfpoison/internal/dataset"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/regression"
	"cdfpoison/internal/xrand"
)

// prunedSets draws key sets large enough that OptimalSinglePoint actually
// takes the pruned path (nGaps >= prunedMinGaps), across the dataset
// regimes whose loss landscapes differ: uniform (flat peak plateaus),
// normal/lognormal (sharp tail gaps), and a near-dense set where most
// blocks saturate.
// prunesHard names the regimes where the bound provably excludes blocks;
// on near-dense sets the loss landscape is flat enough that the scan may
// legitimately visit everything (pruning is best-effort, identity is not).
var prunesHard = map[string]bool{"uniform": true, "normal": true, "lognormal": true}

func prunedSets(t testing.TB) map[string]keys.Set {
	t.Helper()
	sets := map[string]keys.Set{}
	add := func(name string, gen func(*xrand.RNG) (keys.Set, error)) {
		ks, err := gen(xrand.New(616))
		if err != nil {
			t.Fatalf("dataset %s: %v", name, err)
		}
		if ks.Len()-1 < prunedMinGaps {
			t.Fatalf("dataset %s: %d gaps, below the pruning threshold %d — the test would silently degrade to the full scan", name, ks.Len()-1, prunedMinGaps)
		}
		sets[name] = ks
	}
	add("uniform", func(r *xrand.RNG) (keys.Set, error) { return dataset.Uniform(r, 3_000, 400_000) })
	add("normal", func(r *xrand.RNG) (keys.Set, error) { return dataset.Normal(r, 2_000, 120_000) })
	add("lognormal", func(r *xrand.RNG) (keys.Set, error) { return dataset.LogNormal(r, 2_500, 900_000, 0, 2) })
	add("near-dense", func(r *xrand.RNG) (keys.Set, error) { return dataset.Uniform(r, 1_500, 1_900) })
	return sets
}

// TestPrunedScanEquivalence is the headline differential test of the pruned
// scan: the chosen key, rank, and both losses must be bit-identical to the
// exhaustive full scan on every dataset regime, while visiting strictly
// fewer blocks.
func TestPrunedScanEquivalence(t *testing.T) {
	for name, ks := range prunedSets(t) {
		full, err := OptimalSinglePoint(ks, WithExhaustiveScan())
		if err != nil {
			t.Fatalf("%s: full scan: %v", name, err)
		}
		pruned, err := OptimalSinglePoint(ks)
		if err != nil {
			t.Fatalf("%s: pruned scan: %v", name, err)
		}
		if pruned.Key != full.Key || pruned.Rank != full.Rank ||
			pruned.CleanLoss != full.CleanLoss || pruned.PoisonedLoss != full.PoisonedLoss {
			t.Fatalf("%s: pruned diverged from full scan\n got: %+v\nwant: %+v", name, pruned, full)
		}
		if full.BlocksTotal != 0 || full.BlocksVisited != 0 {
			t.Fatalf("%s: full scan must report zero block accounting, got %+v", name, full)
		}
		if pruned.Candidates > full.Candidates {
			t.Fatalf("%s: pruned evaluated %d candidates, full scan only %d", name, pruned.Candidates, full.Candidates)
		}
		if prunesHard[name] && pruned.BlocksVisited >= pruned.BlocksTotal {
			t.Fatalf("%s: pruning had no effect: visited %d of %d blocks", name, pruned.BlocksVisited, pruned.BlocksTotal)
		}
	}
}

// TestPrunedScanGreedyEquivalence extends bit-identity to the full greedy
// trajectory: every chosen poison key and every intermediate loss must
// match the full-scan run exactly — the property the acceptance benchmark's
// speedup is worthless without.
func TestPrunedScanGreedyEquivalence(t *testing.T) {
	for name, ks := range prunedSets(t) {
		const budget = 12
		full, err := GreedyMultiPoint(ks, budget, WithExhaustiveScan())
		if err != nil {
			t.Fatalf("%s: full greedy: %v", name, err)
		}
		pruned, err := GreedyMultiPoint(ks, budget)
		if err != nil {
			t.Fatalf("%s: pruned greedy: %v", name, err)
		}
		if !reflect.DeepEqual(pruned.Poison, full.Poison) {
			t.Fatalf("%s: poison sequences diverged\n got: %v\nwant: %v", name, pruned.Poison, full.Poison)
		}
		if !reflect.DeepEqual(pruned.Trajectory, full.Trajectory) {
			t.Fatalf("%s: loss trajectories diverged\n got: %v\nwant: %v", name, pruned.Trajectory, full.Trajectory)
		}
		if pruned.CleanLoss != full.CleanLoss || pruned.Stopped != full.Stopped || pruned.Truncated != full.Truncated {
			t.Fatalf("%s: scalar fields diverged\n got: %+v\nwant: %+v", name, pruned, full)
		}
		if pruned.Candidates > full.Candidates || (prunesHard[name] && pruned.Candidates == full.Candidates) {
			t.Fatalf("%s: pruned spent %d candidates, full scan %d — no savings", name, pruned.Candidates, full.Candidates)
		}
	}
}

// TestPrunedScanWorkerEquivalence pins the determinism contract on sets
// large enough to prune: the entire result — including the BlocksVisited /
// BlocksTotal / Candidates accounting — must be identical for every worker
// count, because the bound sweep and threshold pass run sequentially and
// only survivor evaluation fans out.
func TestPrunedScanWorkerEquivalence(t *testing.T) {
	for name, ks := range prunedSets(t) {
		want, err := OptimalSinglePoint(ks, WithWorkers(1))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wantG, err := GreedyMultiPoint(ks, 8, WithWorkers(1))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, w := range workerCounts() {
			got, err := OptimalSinglePoint(ks, WithWorkers(w))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			if got != want {
				t.Fatalf("%s workers=%d: single-point result diverged\n got: %+v\nwant: %+v", name, w, got, want)
			}
			gotG, err := GreedyMultiPoint(ks, 8, WithWorkers(w))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			if !reflect.DeepEqual(gotG, wantG) {
				t.Fatalf("%s workers=%d: greedy result diverged\n got: %+v\nwant: %+v", name, w, gotG, wantG)
			}
		}
	}
}

// TestPrunedScanAccounting is the property test of the pruning statistics:
// across random key sets and worker counts, 1 <= visited <= total, the
// candidate count never exceeds the full scan's, and the reported best
// candidate lies inside a visited block — certified by its loss equalling
// the full scan's maximum, which a scan that skipped the winning block
// could not reproduce.
func TestPrunedScanAccounting(t *testing.T) {
	rng := xrand.New(4747)
	for trial := 0; trial < 6; trial++ {
		n := prunedMinGaps + 1 + rng.Intn(3_000)
		ks, err := dataset.Uniform(rng, n, int64(n)*40)
		if err != nil {
			t.Fatal(err)
		}
		full, err := OptimalSinglePoint(ks, WithExhaustiveScan())
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workerCounts() {
			got, err := OptimalSinglePoint(ks, WithWorkers(w))
			if err != nil {
				t.Fatalf("trial %d workers=%d: %v", trial, w, err)
			}
			if got.BlocksTotal <= 0 || got.BlocksVisited < 1 || got.BlocksVisited > got.BlocksTotal {
				t.Fatalf("trial %d workers=%d: inconsistent accounting: visited %d of %d",
					trial, w, got.BlocksVisited, got.BlocksTotal)
			}
			wantTotal := (ks.Len() - 1 + prunedLeafGaps - 1) / prunedLeafGaps
			if got.BlocksTotal != wantTotal {
				t.Fatalf("trial %d workers=%d: BlocksTotal = %d, want %d blocks of %d gaps",
					trial, w, got.BlocksTotal, wantTotal, prunedLeafGaps)
			}
			if got.Candidates > full.Candidates || got.Candidates <= 0 {
				t.Fatalf("trial %d workers=%d: Candidates = %d outside (0, full=%d]",
					trial, w, got.Candidates, full.Candidates)
			}
			if got.Key != full.Key || got.PoisonedLoss != full.PoisonedLoss {
				t.Fatalf("trial %d workers=%d: best candidate not the full-scan maximum: %+v vs %+v",
					trial, w, got, full)
			}
		}
	}
}

// TestPrunedScanGreedyGrowsPastScratch: a greedy run that starts at the
// pruning threshold and more than triples its gap count outgrows the
// scratch buffers sized at its first step; every step must still match
// the full scan bit for bit.
func TestPrunedScanGreedyGrowsPastScratch(t *testing.T) {
	ks, err := dataset.Uniform(xrand.New(65), prunedMinGaps+1, int64(prunedMinGaps)*400)
	if err != nil {
		t.Fatal(err)
	}
	budget := 3 * ks.Len()
	full, err := GreedyMultiPoint(ks, budget, WithExhaustiveScan())
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := GreedyMultiPoint(ks, budget)
	if err != nil {
		t.Fatal(err)
	}
	if len(pruned.Poison) < 2*ks.Len() {
		t.Fatalf("only %d of %d keys inserted; the set never outgrew its first-step scratch", len(pruned.Poison), budget)
	}
	if !reflect.DeepEqual(pruned.Poison, full.Poison) || !reflect.DeepEqual(pruned.Trajectory, full.Trajectory) {
		t.Fatalf("pruned greedy diverged from the full scan")
	}
}

// TestPrunedScanSmallSetFallsBack: below prunedMinGaps the pruned path must
// defer to the plain scan — zero block accounting, classic candidate count.
func TestPrunedScanSmallSetFallsBack(t *testing.T) {
	ks, err := dataset.Uniform(xrand.New(31), prunedMinGaps/2, int64(prunedMinGaps)*20)
	if err != nil {
		t.Fatal(err)
	}
	res, err := OptimalSinglePoint(ks)
	if err != nil {
		t.Fatal(err)
	}
	if res.BlocksTotal != 0 || res.BlocksVisited != 0 {
		t.Fatalf("small set took the pruned path: %+v", res)
	}
	full, err := OptimalSinglePoint(ks, WithExhaustiveScan())
	if err != nil {
		t.Fatal(err)
	}
	if res != full {
		t.Fatalf("small-set scan differs from full scan: %+v vs %+v", res, full)
	}
}

// TestPrunedScanThirdLevel runs the equivalence checks on sets large
// enough for a block level above the 128-gap one: n=1e5 uniform and
// log-normal keys over a 1e7 domain, whose tree tops out at 98 blocks of
// 1,024 gaps. The prunedSets fixtures stay under 65k gaps and keep two
// levels. The visited-leaf ceilings are the two-level scan's counts on
// these sets; the wider level may only prune more.
func TestPrunedScanThirdLevel(t *testing.T) {
	for _, c := range []struct {
		name       string
		gen        func(*xrand.RNG) (keys.Set, error)
		maxVisited int
	}{
		{"uniform", func(r *xrand.RNG) (keys.Set, error) { return dataset.Uniform(r, 100_000, 10_000_000) }, 536},
		{"lognormal", func(r *xrand.RNG) (keys.Set, error) { return dataset.LogNormal(r, 100_000, 10_000_000, 0, 2) }, 21},
	} {
		ks, err := c.gen(xrand.New(616))
		if err != nil {
			t.Fatal(err)
		}
		pre, err := regression.NewPrefix(ks)
		if err != nil {
			t.Fatal(err)
		}
		scan := newPrunedScan(pre)
		pruned, err := scan.run(newExec(nil))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(scan.lv) < 3 {
			t.Fatalf("%s: %d gaps laid out %d levels; the test needs a third", c.name, ks.Len()-1, len(scan.lv))
		}
		full, err := OptimalSinglePoint(ks, WithExhaustiveScan())
		if err != nil {
			t.Fatal(err)
		}
		if pruned.Key != full.Key || pruned.Rank != full.Rank ||
			pruned.CleanLoss != full.CleanLoss || pruned.PoisonedLoss != full.PoisonedLoss {
			t.Fatalf("%s: pruned single point diverged\n got: %+v\nwant: %+v", c.name, pruned, full)
		}

		const budget = 12
		fullG, err := GreedyMultiPoint(ks, budget, WithExhaustiveScan())
		if err != nil {
			t.Fatal(err)
		}
		want, err := GreedyMultiPoint(ks, budget, WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Poison, fullG.Poison) || !reflect.DeepEqual(want.Trajectory, fullG.Trajectory) {
			t.Fatalf("%s: pruned greedy diverged from the full scan\n got: %v %v\nwant: %v %v",
				c.name, want.Poison, want.Trajectory, fullG.Poison, fullG.Trajectory)
		}
		if want.BlocksVisited > c.maxVisited {
			t.Fatalf("%s: visited %d of %d leaves, more than the two-level scan's %d",
				c.name, want.BlocksVisited, want.BlocksTotal, c.maxVisited)
		}
		got, err := GreedyMultiPoint(ks, budget, WithWorkers(4))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: workers=4 diverged from workers=1\n got: %+v\nwant: %+v", c.name, got, want)
		}
	}
}
