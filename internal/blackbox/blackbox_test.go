package blackbox

import (
	"errors"
	"math"
	"testing"

	"cdfpoison/internal/core"
	"cdfpoison/internal/dataset"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/regression"
	"cdfpoison/internal/rmi"
	"cdfpoison/internal/xrand"
)

func buildIndex(t *testing.T, seed uint64, n, fanout int) (keys.Set, *rmi.Index) {
	t.Helper()
	rng := xrand.New(seed)
	ks, err := dataset.Uniform(rng, n, int64(n)*20)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := rmi.Build(ks, rmi.Config{Fanout: fanout})
	if err != nil {
		t.Fatal(err)
	}
	return ks, idx
}

func TestInferenceRecoversFanout(t *testing.T) {
	ks, idx := buildIndex(t, 1, 2000, 20)
	inf, err := InferSecondStage(idx, ks)
	if err != nil {
		t.Fatal(err)
	}
	// Distinct uniform partitions virtually never share an exact line, so
	// the inferred fanout should match the architecture.
	if inf.NumModels() != 20 {
		t.Fatalf("inferred %d models, want 20", inf.NumModels())
	}
	if inf.Probes != ks.Len() {
		t.Fatalf("probes %d, want n=%d", inf.Probes, ks.Len())
	}
	// Segments must partition [0, n) contiguously.
	next := 0
	for _, s := range inf.Segments {
		if s.Lo != next || s.Hi < s.Lo {
			t.Fatalf("segment gap/overlap at %d: %+v", next, s)
		}
		next = s.Hi + 1
	}
	if next != ks.Len() {
		t.Fatalf("segments cover %d of %d keys", next, ks.Len())
	}
}

func TestInferenceMatchesOracleExactly(t *testing.T) {
	ks, idx := buildIndex(t, 2, 1500, 15)
	inf, err := InferSecondStage(idx, ks)
	if err != nil {
		t.Fatal(err)
	}
	if worst := Verify(idx, ks, inf); worst > 1e-6 {
		t.Fatalf("inferred lines disagree with oracle by %v", worst)
	}
}

func TestInferenceSegmentBoundariesMatchPartition(t *testing.T) {
	ks, idx := buildIndex(t, 3, 1000, 10)
	inf, err := InferSecondStage(idx, ks)
	if err != nil {
		t.Fatal(err)
	}
	// The partition router splits 1000 keys into 10 chunks of exactly 100.
	for i, s := range inf.Segments {
		if s.Lo != i*100 || s.Hi != i*100+99 {
			t.Fatalf("segment %d = [%d,%d], want [%d,%d]", i, s.Lo, s.Hi, i*100, i*100+99)
		}
	}
}

func TestInferenceErrors(t *testing.T) {
	_, idx := buildIndex(t, 4, 100, 4)
	single, err := keys.New([]int64{5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := InferSecondStage(idx, single); !errors.Is(err, ErrNoKeys) {
		t.Fatalf("want ErrNoKeys, got %v", err)
	}
}

func TestBlackBoxAttackMatchesWhiteBox(t *testing.T) {
	ks, idx := buildIndex(t, 5, 2000, 20)
	opts := core.RMIAttackOptions{Percent: 10, Alpha: 3, MaxMoves: 20}

	bb, err := Attack(idx, ks, opts)
	if err != nil {
		t.Fatal(err)
	}
	wbOpts := opts
	wbOpts.NumModels = 20
	wb, err := core.RMIAttack(ks, wbOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(bb.Attack.Models) != 20 {
		t.Fatalf("inference fanout %d", len(bb.Attack.Models))
	}
	// Same data, same recovered architecture → identical attack outcome.
	if !bb.Attack.Poison.Equal(wb.Poison) {
		t.Fatal("black-box attack chose different poison keys than white-box")
	}
	if math.Abs(bb.Attack.RMIRatio()-wb.RMIRatio()) > 1e-12 {
		t.Fatalf("ratios differ: %v vs %v", bb.Attack.RMIRatio(), wb.RMIRatio())
	}
	if bb.Attack.RMIRatio() <= 1 {
		t.Fatalf("attack ineffective: %v", bb.Attack.RMIRatio())
	}
}

func TestInferenceWithLinearRoot(t *testing.T) {
	// A linear stage-1 router splits the key domain, not the keys, so its
	// models serve unequal runs and on skewed keys some serve none. This
	// oracle routes key/100 to one of four lines: the models serve 10, 0,
	// 3 and 5 of the known keys. Inference must still exactly replicate it.
	lines := []regression.Line{{W: 1, B: 1}, {W: 0.5, B: 3}, {W: 0.04, B: 2.8}, {W: 0.02, B: 8}}
	o := fakeOracle{f: func(k int64) float64 { return lines[min(k/100, 3)].Predict(k) }}
	ks, err := keys.New([]int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 205, 250, 290, 300, 320, 340, 360, 380})
	if err != nil {
		t.Fatal(err)
	}
	inf, err := InferSecondStage(o, ks)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct{ lo, hi, model int }{{0, 9, 0}, {10, 12, 2}, {13, 17, 3}}
	if inf.NumModels() != len(want) {
		t.Fatalf("inferred %d models, want %d: %+v", inf.NumModels(), len(want), inf.Segments)
	}
	for i, w := range want {
		s := inf.Segments[i]
		if s.Lo != w.lo || s.Hi != w.hi {
			t.Fatalf("segment %d covers [%d, %d], want [%d, %d]", i, s.Lo, s.Hi, w.lo, w.hi)
		}
		if l := lines[w.model]; math.Abs(s.Line.W-l.W) > 1e-9 || math.Abs(s.Line.B-l.B) > 1e-9 {
			t.Fatalf("segment %d line %+v, want model %d's %+v", i, s.Line, w.model, l)
		}
	}
	if worst := Verify(o, ks, inf); worst > 1e-6 {
		t.Fatalf("inference disagrees with the oracle by %v", worst)
	}
}

func TestTrailingSingletonSegment(t *testing.T) {
	// Craft an oracle whose last key sits alone in a segment.
	ks, err := keys.New([]int64{0, 10, 20, 1000})
	if err != nil {
		t.Fatal(err)
	}
	o := fakeOracle{f: func(k int64) float64 {
		if k >= 1000 {
			return 4
		}
		return float64(k)/10 + 1
	}}
	inf, err := InferSecondStage(o, ks)
	if err != nil {
		t.Fatal(err)
	}
	last := inf.Segments[len(inf.Segments)-1]
	if last.Lo != 3 || last.Hi != 3 {
		t.Fatalf("trailing segment = %+v", last)
	}
}

type fakeOracle struct{ f func(int64) float64 }

func (o fakeOracle) PredictPosition(k int64) float64 { return o.f(k) }
