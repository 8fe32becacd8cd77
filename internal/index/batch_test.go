package index_test

// Differential conformance for the sorted-batch probe kernel (DESIGN.md
// §12): for every backend, snapshot, wrapper, and pipeline state, and for
// random and adversarial sorted batches (duplicates, absent keys, universe
// extremes), index.ProbeSumSorted must be BIT-IDENTICAL to the per-key
// reference index.ProbeSum on the same batch. FuzzBatchProbeSum extends the
// same oracle to fuzzer-chosen batches and insert streams; its corpus is
// checked in under testdata/fuzz and replayed by CI's fuzz step.

import (
	"encoding/binary"
	"sort"
	"testing"

	"cdfpoison/internal/dataset"
	"cdfpoison/internal/index"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/xrand"
)

// sortedBatches builds the adversarial batch table for one content set:
// every batch is sorted (the kernel's precondition), mixing stored keys,
// absent keys, duplicate runs, and universe extremes.
func sortedBatches(initial keys.Set) map[string][]int64 {
	stored := append([]int64(nil), initial.Keys()...)
	mixed := append(append([]int64(nil), stored...), 0, 1, 3, 5, 7, 1<<40, initial.Max()+1)
	sort.Slice(mixed, func(i, j int) bool { return mixed[i] < mixed[j] })
	dups := make([]int64, 0, 3*len(stored))
	for _, k := range stored {
		dups = append(dups, k, k, k)
	}
	absent := []int64{-9, -1, initial.Min() - 1, initial.Max() + 1, 1 << 40, 1 << 41}
	return map[string][]int64{
		"stored":   stored,
		"mixed":    mixed,
		"dups":     dups,
		"absent":   absent,
		"empty":    nil,
		"single":   {initial.At(initial.Len() / 2)},
		"dup-miss": {5, 5, 5, 5},
	}
}

// kernelFaces names, per factory row, whether the live index and its
// snapshots carry a native kernel (index.BatchReader). Exactly the readers
// a scenario or benchmark hands to index.ProbeSumSorted must: the live
// dynamic index and its snapshots (the static and online scenarios through
// core.probeEval, the online perf eval cells, perfbench), the shard
// snapshot (the serve scenario and its eval cells), and every
// *defense.Guard, which forwards the face of what it wraps. ALEX, the
// B-Tree, index.Pipeline and the live shard run the same differential
// through the per-key fallback. A refactor that drops a measured kernel
// fails here by name.
var kernelFaces = map[string]struct{ live, snap bool }{
	"dynamic":         {true, true},
	"rmi-single":      {true, true},
	"guarded-dynamic": {true, true},
	"shard-4":         {false, true},
	"guarded-shard":   {true, true},
	"btree":           {false, false},
	"alex":            {false, false},
	"guarded-alex":    {true, false},
}

// faces returns the factory row's kernelFaces entry, failing on a row the
// table does not name.
func faces(t *testing.T, name string) struct{ live, snap bool } {
	t.Helper()
	f, ok := kernelFaces[name]
	if !ok {
		t.Fatalf("%s: no kernelFaces entry", name)
	}
	return f
}

// checkBatchKernel pins one reader's batch path to the per-key reference
// over every batch in the table: its native kernel when face is true, the
// per-key fallback of index.ProbeSumSorted when it is false.
func checkBatchKernel(t *testing.T, when string, r index.PointReader, face bool, batches map[string][]int64) {
	t.Helper()
	if _, ok := r.(index.BatchReader); ok != face {
		t.Fatalf("%s: %T implements index.BatchReader: %v, want %v", when, r, ok, face)
	}
	for name, batch := range batches {
		gotP, gotNF := index.ProbeSumSorted(r, batch)
		wantP, wantNF := index.ProbeSum(r, batch)
		if gotP != wantP || gotNF != wantNF {
			t.Fatalf("%s/%s: ProbeSumSorted = (%d, %d), reference = (%d, %d)",
				when, name, gotP, gotNF, wantP, wantNF)
		}
	}
}

// TestBatchProbeSumMatchesReference is the cross-backend differential
// suite: every factory backend, its snapshots, and its pipeline wrappers
// (zero-cost pass-through and frozen mid-rebuild) across fresh, buffered,
// and retrained states.
func TestBatchProbeSumMatchesReference(t *testing.T) {
	initial := fixture(t, 500)
	batches := sortedBatches(initial)
	for name, build := range backendFactories() {
		t.Run(name, func(t *testing.T) {
			want := faces(t, name)
			b, err := build(initial)
			if err != nil {
				t.Fatal(err)
			}
			checkBatchKernel(t, "fresh", b, want.live, batches)
			checkBatchKernel(t, "fresh-snapshot", b.Snapshot(), want.snap, batches)

			// Buffered state: delta buffers / staged areas are non-empty.
			inserted := 0
			for k := initial.Min() + 1; inserted < 16 && k < initial.Max(); k += 11 {
				if ok, _ := b.Insert(k); ok {
					inserted++
				}
			}
			checkBatchKernel(t, "buffered", b, want.live, batches)
			checkBatchKernel(t, "buffered-snapshot", b.Snapshot(), want.snap, batches)

			b.Retrain()
			checkBatchKernel(t, "retrained", b, want.live, batches)
			checkBatchKernel(t, "retrained-snapshot", b.Snapshot(), want.snap, batches)
		})
	}
}

// TestBatchProbeSumLogNormalEdges: log-normal keys at n=1e5 give the fitted
// line a wide error envelope, so many windows are clamped at an array edge,
// each with its own size. The kernels must stay bit-identical there and must
// not cache a depth table per clamped size: a state's evaluation may add at
// most the prefetched unclamped pair and the buffer table.
func TestBatchProbeSumLogNormalEdges(t *testing.T) {
	const n = 100_000
	initial, err := dataset.LogNormal(xrand.New(1), n, n*100, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	all := sortedBatches(initial)
	batches := map[string][]int64{}
	for _, name := range []string{"stored", "mixed", "absent", "single"} {
		batches[name] = all[name]
	}
	factories := backendFactories()
	for _, name := range []string{"dynamic", "rmi-single"} {
		t.Run(name, func(t *testing.T) {
			want := faces(t, name)
			b, err := factories[name](initial)
			if err != nil {
				t.Fatal(err)
			}
			check := func(when string) {
				t.Helper()
				before := index.DepthCacheLen()
				checkBatchKernel(t, when, b, want.live, batches)
				checkBatchKernel(t, when+"-snapshot", b.Snapshot(), want.snap, batches)
				if grew := index.DepthCacheLen() - before; grew > 3 {
					t.Fatalf("%s: depth-table cache grew by %d entries, want <= 3", when, grew)
				}
			}
			check("fresh")
			for k := initial.Min() + 1; b.Len() < n+64; k += 997 {
				b.Insert(k)
			}
			check("buffered")
			b.Retrain()
			check("retrained")
		})
	}
}

// TestDescentProbesMatchesTables: the arithmetic descent replay equals the
// depth tables at every rank of every window size.
func TestDescentProbesMatchesTables(t *testing.T) {
	for s := 1; s <= 300; s++ {
		tab := index.ProbeDepths(s)
		for r := 0; r <= s; r++ {
			if r < s {
				if got := index.DescentProbes(s, r, true); got != tab.Hit[r] {
					t.Fatalf("s=%d: DescentProbes hit %d = %d, table %d", s, r, got, tab.Hit[r])
				}
			}
			if got := index.DescentProbes(s, r, false); got != tab.Gap[r] {
				t.Fatalf("s=%d: DescentProbes gap %d = %d, table %d", s, r, got, tab.Gap[r])
			}
		}
	}
}

// TestBatchProbeSumPipeline: a pipeline has no kernel of its own, so the
// zero-cost pass-through and a pipeline frozen mid-rebuild evaluate through
// the per-key fallback, while the frozen pipeline's snapshot is the
// published one and keeps the backend's snapshot kernel — each
// bit-identical to its own per-key reference.
func TestBatchProbeSumPipeline(t *testing.T) {
	initial := fixture(t, 400)
	batches := sortedBatches(initial)
	for name, build := range backendFactories() {
		t.Run(name, func(t *testing.T) {
			want := faces(t, name)
			b, err := build(initial)
			if err != nil {
				t.Fatal(err)
			}
			zero := index.NewPipeline(b, index.CostModel{})
			checkBatchKernel(t, "zero-cost", zero, false, batches)

			b2, err := build(initial)
			if err != nil {
				t.Fatal(err)
			}
			pipe := index.NewPipeline(b2, index.CostModel{Fixed: 1 << 30})
			pipe.Retrain() // freeze the read plane at the pre-rebuild snapshot
			if !pipe.IsStale() {
				t.Fatal("pipeline not stale after costed retrain")
			}
			// Mutate the live backend underneath the frozen read plane.
			for k := initial.Min() + 2; k < initial.Min()+200; k += 13 {
				pipe.Insert(k)
			}
			checkBatchKernel(t, "stale", pipe, false, batches)
			checkBatchKernel(t, "stale-snapshot", pipe.Snapshot(), want.snap, batches)
		})
	}
}

// FuzzBatchProbeSum fuzzes the same oracle: the fuzzer chooses the content
// seed, an insert stream, and a raw query batch; the batch is sorted and
// evaluated through every backend's kernel against the per-key reference.
func FuzzBatchProbeSum(f *testing.F) {
	f.Add(uint64(11), []byte{})
	f.Add(uint64(7), []byte{0, 0, 0, 0, 0, 0, 0, 0, 255, 255, 255, 255, 255, 255, 255, 255})
	f.Add(uint64(42), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17})
	f.Fuzz(func(t *testing.T, seed uint64, raw []byte) {
		n := 80 + int(seed%120)
		rng := xrand.New(1 + seed%(1<<32))
		uniq := map[int64]bool{}
		ks := make([]int64, 0, n)
		for len(ks) < n {
			k := rng.Int63n(int64(n) * 40)
			if !uniq[k] {
				uniq[k] = true
				ks = append(ks, k)
			}
		}
		sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
		initial := keys.FromSorted(ks)

		// First half of the raw bytes drive inserts, second half the batch.
		var inserts, batch []int64
		for i := 0; i+8 <= len(raw); i += 8 {
			v := int64(binary.LittleEndian.Uint64(raw[i : i+8]))
			if (i/8)%2 == 0 {
				inserts = append(inserts, v)
			} else {
				batch = append(batch, v)
			}
		}
		// Always include some stored keys so the found path is exercised.
		batch = append(batch, ks[0], ks[len(ks)/2], ks[len(ks)-1])
		sort.Slice(batch, func(i, j int) bool { return batch[i] < batch[j] })

		for name, build := range backendFactories() {
			b, err := build(initial)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range inserts {
				b.Insert(k)
			}
			gotP, gotNF := index.ProbeSumSorted(b, batch)
			wantP, wantNF := index.ProbeSum(b, batch)
			if gotP != wantP || gotNF != wantNF {
				t.Fatalf("%s: ProbeSumSorted = (%d, %d), reference = (%d, %d)",
					name, gotP, gotNF, wantP, wantNF)
			}
			sp, snf := index.ProbeSumSorted(b.Snapshot(), batch)
			if sp != wantP || snf != wantNF {
				t.Fatalf("%s snapshot: ProbeSumSorted = (%d, %d), reference = (%d, %d)",
					name, sp, snf, wantP, wantNF)
			}
		}
	})
}
