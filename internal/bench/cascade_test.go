package bench

import (
	"reflect"
	"runtime"
	"testing"
)

func TestCascadeSweepShape(t *testing.T) {
	opts := Options{Scale: ScaleQuick, Seed: 7}
	res, err := CascadeSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 { // quick: 2 leaf targets × 2 budgets
		t.Fatalf("%d cells, want 4", len(res.Cells))
	}
	for _, c := range res.Cells {
		if len(c.Epochs) != res.EpochsPerCell {
			t.Fatalf("cell leaf=%d budget=%g: %d epochs, want %d",
				c.LeafTarget, c.BudgetPct, len(c.Epochs), res.EpochsPerCell)
		}
		if c.VictimStruct.Splits == 0 {
			t.Fatalf("cell leaf=%d budget=%g: no split ever forced", c.LeafTarget, c.BudgetPct)
		}
		if c.VictimStruct.Cost() <= c.CleanStruct.Cost() {
			t.Fatalf("cell leaf=%d budget=%g: victim cost %d not above clean %d",
				c.LeafTarget, c.BudgetPct, c.VictimStruct.Cost(), c.CleanStruct.Cost())
		}
		if c.FinalStructRatio() <= 1 {
			t.Fatalf("cell leaf=%d budget=%g: struct ratio %v", c.LeafTarget, c.BudgetPct, c.FinalStructRatio())
		}
	}
	// The super-linearity the scenario exists to show: at a fixed leaf
	// target, a bigger budget buys a strictly bigger cost RATIO, not just
	// more absolute damage.
	byLeaf := map[int][]CascadeCell{}
	for _, c := range res.Cells {
		byLeaf[c.LeafTarget] = append(byLeaf[c.LeafTarget], c)
	}
	for leaf, cells := range byLeaf {
		for i := 1; i < len(cells); i++ {
			if cells[i].BudgetPct > cells[i-1].BudgetPct && cells[i].FinalStructRatio() <= cells[i-1].FinalStructRatio() {
				t.Errorf("leaf=%d: struct ratio %v at budget %g%% not above %v at budget %g%%",
					leaf, cells[i].FinalStructRatio(), cells[i].BudgetPct,
					cells[i-1].FinalStructRatio(), cells[i-1].BudgetPct)
			}
		}
	}
	// At quick scale the fanout cascade itself must land in at least one
	// cell — the sweep's reason to exist.
	if res.TotalCascades() <= 0 {
		t.Fatal("no attacker-forced cascade in any cell")
	}
	if res.MaxStructRatio() <= 1 {
		t.Fatalf("sweep headline %v — no structural damage", res.MaxStructRatio())
	}
}

// TestCascadeSweepWorkerEquivalence: the sweep's cell fan-out preserves the
// determinism contract byte for byte.
func TestCascadeSweepWorkerEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick sweep three times")
	}
	opts := Options{Scale: ScaleQuick, Seed: 11}
	opts.Workers = 1
	want, err := CascadeSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, runtime.NumCPU()} {
		opts.Workers = w
		got, err := CascadeSweep(opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: cascade sweep diverges from sequential", w)
		}
	}
}
