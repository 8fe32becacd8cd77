package nn

import (
	"math"
	"testing"
)

// FuzzTrain trains a tiny network twice on fuzz-derived data and checks
// that every prediction at the training inputs is finite and bit-identical
// across the two trainings: Train is deterministic given Config.Seed.
func FuzzTrain(f *testing.F) {
	f.Add([]byte{10, 20, 30, 40}, uint8(4))
	f.Add([]byte{1, 1, 1}, uint8(1))
	f.Fuzz(func(t *testing.T, deltas []byte, hiddenByte uint8) {
		if len(deltas) == 0 || len(deltas) > 256 {
			return
		}
		hidden := int(hiddenByte%8) + 1
		var x, y []float64
		cur := 0.0
		for i, d := range deltas {
			cur += float64(d) + 1
			x = append(x, cur)
			y = append(y, float64(i+1))
		}
		cfg := Config{Hidden: hidden, Epochs: 2}
		m, err := Train(x, y, cfg)
		if err != nil {
			t.Fatalf("Train: %v", err)
		}
		m2, err := Train(x, y, cfg)
		if err != nil {
			t.Fatalf("second Train: %v", err)
		}
		for _, k := range x {
			got, want := m2.Predict(k), m.Predict(k)
			if math.IsNaN(want) || math.IsInf(want, 0) {
				t.Fatalf("Predict(%v) = %v, want a finite value", k, want)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Predict(%v) differs across trainings: %v != %v", k, got, want)
			}
		}
	})
}
