package bench

import (
	"reflect"
	"runtime"
	"testing"
)

func TestServeSweepShape(t *testing.T) {
	opts := Options{Scale: ScaleQuick, Seed: 7}
	res, err := ServeSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 6 { // quick: shard counts {1, 4} × 3 workload mixes
		t.Fatalf("%d cells, want 6", len(res.Cells))
	}
	for _, c := range res.Cells {
		if len(c.Epochs) != res.EpochsPerCell {
			t.Fatalf("cell shards=%d %s: %d epochs, want %d",
				c.Shards, c.Workload, len(c.Epochs), res.EpochsPerCell)
		}
		if c.FinalRatio() < 1 {
			t.Fatalf("cell shards=%d %s: final ratio %v < 1", c.Shards, c.Workload, c.FinalRatio())
		}
		if c.MaxShardRatio() < c.MaxRatio() {
			t.Fatalf("cell shards=%d %s: worst shard %v below aggregate %v",
				c.Shards, c.Workload, c.MaxShardRatio(), c.MaxRatio())
		}
		if c.Shards > 1 && c.Epochs[len(c.Epochs)-1].Imbalance <= 0 {
			t.Fatalf("cell shards=%d %s: imbalance missing", c.Shards, c.Workload)
		}
		for _, e := range c.Epochs {
			if len(e.Shards) != c.Shards {
				t.Fatalf("cell shards=%d: epoch %d carries %d shard rows", c.Shards, e.Epoch, len(e.Shards))
			}
		}
	}
	if res.MaxFinalRatio() <= 1 {
		t.Fatalf("sweep headline %v — no cell registered damage", res.MaxFinalRatio())
	}
}

// TestServeSweepWorkerEquivalence: the sweep's cell fan-out preserves the
// determinism contract byte for byte.
func TestServeSweepWorkerEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick sweep three times")
	}
	opts := Options{Scale: ScaleQuick, Seed: 11}
	opts.Workers = 1
	want, err := ServeSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, runtime.NumCPU()} {
		opts.Workers = w
		got, err := ServeSweep(opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: serve sweep diverged from sequential", w)
		}
	}
}
