package bench

import (
	"reflect"
	"testing"
)

// zeroWallClock strips the machine-dependent ops/sec figures (and the
// reader/batch echo fields) so sweeps taken with different reader counts
// can be compared byte for byte on the deterministic metrics.
func zeroWallClock(r ThroughputSweepResult) ThroughputSweepResult {
	r.Readers, r.BatchSize = 0, 0
	cells := make([]ThroughputCell, len(r.Cells))
	copy(cells, r.Cells)
	for i := range cells {
		cells[i].CleanOpsPerSec, cells[i].PoisonedOpsPerSec = 0, 0
	}
	r.Cells = cells
	return r
}

func TestThroughputSweepShape(t *testing.T) {
	res, err := ThroughputSweep(Options{Scale: ScaleQuick, Seed: 7, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 6 { // 3 workload mixes × 2 cost models
		t.Fatalf("%d cells, want 6", len(res.Cells))
	}
	// Quick scale runs 60 ops per epoch: one batch of 60 reads at most, so
	// one reader, whatever Workers asks for.
	if res.Readers != 1 || res.BatchSize != 60 {
		t.Fatalf("plane = %d readers × batch %d, want 1 × 60 (what a 60-op epoch runs)", res.Readers, res.BatchSize)
	}
	for _, c := range res.Cells {
		if len(c.Clean) != res.EpochsPerCell || len(c.Poisoned) != res.EpochsPerCell {
			t.Fatalf("cell %s/%s: %d/%d epochs, want %d",
				c.Workload, c.Cost, len(c.Clean), len(c.Poisoned), res.EpochsPerCell)
		}
		injected := 0
		for e, m := range c.Poisoned {
			injected += m.Injected
			if cl := c.Clean[e]; cl.Injected != 0 {
				t.Fatalf("clean run injected %d poison keys", cl.Injected)
			}
			if m.P50 > m.P99 || m.P99 > m.P999 || m.P999 > m.MaxProbes {
				t.Fatalf("cell %s/%s epoch %d: percentiles not monotone: %+v",
					c.Workload, c.Cost, e, m)
			}
		}
		if injected == 0 {
			t.Fatalf("cell %s/%s: poisoned run injected nothing (budget %g%%)",
				c.Workload, c.Cost, c.BudgetPct)
		}
		if c.CleanOpsPerSec <= 0 || c.PoisonedOpsPerSec <= 0 {
			t.Fatalf("cell %s/%s: non-positive wall-clock throughput", c.Workload, c.Cost)
		}
		if c.MaxP99Ratio <= 0 || c.MaxP999Ratio <= 0 {
			t.Fatalf("cell %s/%s: summary ratios not populated: %+v", c.Workload, c.Cost, c)
		}
	}
	if res.MaxP999Ratio() < 1 {
		t.Fatalf("headline p999 ratio %v < 1 — poisoning never degraded the tail", res.MaxP999Ratio())
	}
}

// TestThroughputSweepWorkerEquivalence: every deterministic field of the
// sweep is identical whatever the reader count — only the wall-clock
// ops/sec figures may differ. This is the bench-layer face of the
// scheduler-equivalence contract.
func TestThroughputSweepWorkerEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick sweep three times")
	}
	opts := Options{Scale: ScaleQuick, Seed: 11}
	opts.Workers = 1
	want, err := ThroughputSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{3, 0} { // 0 resolves to GOMAXPROCS
		opts.Workers = workers
		got, err := ThroughputSweep(opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(zeroWallClock(got), zeroWallClock(want)) {
			t.Fatalf("workers=%d sweep diverged from workers=1 on deterministic fields", workers)
		}
	}
}

// TestThroughputSweepDeterministic: same options, byte-identical sweep
// (modulo wall clock) across repeated runs in one process.
func TestThroughputSweepDeterministic(t *testing.T) {
	opts := Options{Scale: ScaleQuick, Seed: 3, Workers: 2}
	a, err := ThroughputSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ThroughputSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(zeroWallClock(a), zeroWallClock(b)) {
		t.Fatal("repeated sweep with identical options diverged")
	}
}
