package rmi

import (
	"errors"
	"math"
	"testing"

	"cdfpoison/internal/dataset"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/regression"
	"cdfpoison/internal/xrand"
)

func uniformSet(t *testing.T, seed uint64, n int, m int64) keys.Set {
	t.Helper()
	s, err := dataset.Uniform(xrand.New(seed), n, m)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// verifyAllFound asserts every stored key is found at its correct position.
func verifyAllFound(t *testing.T, idx *Index, ks keys.Set) {
	t.Helper()
	for i := 0; i < ks.Len(); i++ {
		r := idx.Lookup(ks.At(i))
		if !r.Found {
			t.Fatalf("stored key %d (pos %d) not found", ks.At(i), i)
		}
		if r.Pos != i {
			t.Fatalf("key %d found at pos %d, want %d", ks.At(i), r.Pos, i)
		}
		if r.Probes < 1 {
			t.Fatalf("found with %d probes", r.Probes)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	ks := uniformSet(t, 1, 100, 1000)
	if _, err := Build(keys.Set{}, Config{Fanout: 4}); !errors.Is(err, ErrEmpty) {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
	if _, err := Build(ks, Config{Fanout: 0}); err == nil {
		t.Fatal("fanout 0 accepted")
	}
}

func TestLookupAllRoots(t *testing.T) {
	ks := uniformSet(t, 2, 2000, 50000)
	idx, err := Build(ks, Config{Fanout: 20})
	if err != nil {
		t.Fatal(err)
	}
	verifyAllFound(t, idx, ks)
}

func TestLookupAbsentKeys(t *testing.T) {
	ks := uniformSet(t, 3, 500, 100000)
	idx, err := Build(ks, Config{Fanout: 10})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(4)
	misses := 0
	for i := 0; i < 2000; i++ {
		k := rng.Int63n(100000)
		if ks.Contains(k) {
			continue
		}
		misses++
		if r := idx.Lookup(k); r.Found {
			t.Fatalf("absent key %d reported found", k)
		}
	}
	if misses == 0 {
		t.Fatal("no absent keys sampled")
	}
}

func TestFanoutOne(t *testing.T) {
	ks := uniformSet(t, 5, 300, 3000)
	idx, err := Build(ks, Config{Fanout: 1})
	if err != nil {
		t.Fatal(err)
	}
	verifyAllFound(t, idx, ks)
	if m := len(idx.models); m != 1 {
		t.Fatalf("fanout %d", m)
	}
}

func TestFanoutLargerThanKeys(t *testing.T) {
	ks := uniformSet(t, 6, 10, 100)
	idx, err := Build(ks, Config{Fanout: 50})
	if err != nil {
		t.Fatal(err)
	}
	if m := len(idx.models); m != 10 { // clamped to n
		t.Fatalf("fanout %d, want clamp to 10", m)
	}
	verifyAllFound(t, idx, ks)
}

func TestSingletonIndex(t *testing.T) {
	ks, err := keys.New([]int64{42})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Build(ks, Config{Fanout: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r := idx.Lookup(42); !r.Found || r.Pos != 0 {
		t.Fatalf("singleton lookup: %+v", r)
	}
	if r := idx.Lookup(41); r.Found {
		t.Fatal("absent key found in singleton index")
	}
}

// TestBuildResidualsNearMaxInt64: keys whose float64 value rounds to 2^63
// still get their own residual, so the fanout-1 model's MSE (the paper's
// L_i) is the line's CDF loss and the error envelope is the exact min/max
// residual.
func TestBuildResidualsNearMaxInt64(t *testing.T) {
	clean := []int64{0, 5, 9, 100, math.MaxInt64 - 1, math.MaxInt64}
	for _, raw := range [][]int64{clean, append([]int64{50}, clean...)} {
		ks, err := keys.New(raw)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := Build(ks, Config{Fanout: 1})
		if err != nil {
			t.Fatal(err)
		}
		m := idx.models[0]
		loss, err := regression.EvaluateCDF(m.line, ks)
		if err != nil {
			t.Fatal(err)
		}
		if got := idx.SecondStageMSE(); got != loss {
			t.Errorf("n=%d: SecondStageMSE %v, EvaluateCDF of its line %v", ks.Len(), got, loss)
		}
		eLo, eHi := math.Inf(1), math.Inf(-1)
		for i := 0; i < ks.Len(); i++ {
			d := float64(i+1) - m.line.Predict(ks.At(i))
			eLo, eHi = math.Min(eLo, d), math.Max(eHi, d)
		}
		if m.eLo != eLo || m.eHi != eHi {
			t.Errorf("n=%d: envelope [%v, %v], exact residual range [%v, %v]", ks.Len(), m.eLo, m.eHi, eLo, eHi)
		}
		verifyAllFound(t, idx, ks)
	}
}

func TestSkewedDataLookup(t *testing.T) {
	set, err := dataset.LogNormal(xrand.New(7), 5000, 1000000, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Build(set, Config{Fanout: 50})
	if err != nil {
		t.Fatal(err)
	}
	verifyAllFound(t, idx, set)
}

func TestStats(t *testing.T) {
	ks := uniformSet(t, 8, 1000, 100000)
	idx, err := Build(ks, Config{Fanout: 10})
	if err != nil {
		t.Fatal(err)
	}
	st := idx.Stats()
	if len(idx.models) != 10 {
		t.Errorf("models %d", len(idx.models))
	}
	if st.MaxWindow < 1 || st.AvgWindow < 1 {
		t.Errorf("windows: %+v", st)
	}
	if st.SecondStageMSE <= 0 {
		t.Errorf("second-stage MSE %v on random data", st.SecondStageMSE)
	}
	if st.MemoryBytes <= 0 {
		t.Errorf("memory %d", st.MemoryBytes)
	}
}

func TestPerfectRootMatchesPartition(t *testing.T) {
	// Key i must be served by the model owning the equal-size partition
	// that contains i.
	ks := uniformSet(t, 9, 100, 10000)
	idx, err := Build(ks, Config{Fanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ks.Len(); i++ {
		want := i / 25
		if m := idx.route(ks.At(i)); m != want {
			t.Fatalf("key pos %d served by model %d, want %d", i, m, want)
		}
	}
}

func TestAvgProbes(t *testing.T) {
	ks := uniformSet(t, 10, 2000, 100000)
	idx, err := Build(ks, Config{Fanout: 20})
	if err != nil {
		t.Fatal(err)
	}
	mean, notFound := idx.AvgProbes(ks.Keys())
	if notFound != 0 {
		t.Fatalf("%d stored keys not found", notFound)
	}
	if mean < 1 || mean > 16 {
		t.Fatalf("avg probes %v implausible for n=2000, fanout=20", mean)
	}
	if m, nf := idx.AvgProbes(nil); m != 0 || nf != 0 {
		t.Fatal("empty query slice mishandled")
	}
}

func TestMorePoisonedDataMeansWiderWindows(t *testing.T) {
	// Sanity link to the attack: degrading the CDF linearity (here by
	// hand-crafting a pathological cluster) must widen search windows.
	even := make([]int64, 0, 400)
	for i := int64(0); i < 400; i++ {
		even = append(even, i*100)
	}
	evenSet, _ := keys.New(even)
	clustered := make([]int64, 0, 400)
	for i := int64(0); i < 200; i++ {
		clustered = append(clustered, i) // tight cluster
	}
	for i := int64(0); i < 200; i++ {
		clustered = append(clustered, 20000+i*1000) // sparse tail
	}
	clSet, _ := keys.New(clustered)

	// Fanout 1 so a single model spans both density regimes (with larger
	// fanouts each partition here would be internally linear again).
	idxEven, err := Build(evenSet, Config{Fanout: 1})
	if err != nil {
		t.Fatal(err)
	}
	idxCl, err := Build(clSet, Config{Fanout: 1})
	if err != nil {
		t.Fatal(err)
	}
	if idxCl.Stats().AvgWindow <= idxEven.Stats().AvgWindow {
		t.Fatalf("clustered windows (%v) not wider than even windows (%v)",
			idxCl.Stats().AvgWindow, idxEven.Stats().AvgWindow)
	}
}

func TestPredictPositionMatchesLookupWindowCenter(t *testing.T) {
	ks := uniformSet(t, 11, 1000, 50000)
	idx, err := Build(ks, Config{Fanout: 10})
	if err != nil {
		t.Fatal(err)
	}
	// The raw prediction must be a real rank estimate: within the model's
	// guaranteed error envelope of the true rank for every stored key.
	st := idx.Stats()
	for i := 0; i < ks.Len(); i++ {
		pred := idx.PredictPosition(ks.At(i))
		trueRank := float64(i + 1)
		if diff := pred - trueRank; diff > float64(st.MaxWindow) || diff < -float64(st.MaxWindow) {
			t.Fatalf("prediction %v for rank %v outside max window %d", pred, trueRank, st.MaxWindow)
		}
	}
}

func TestLookupOutOfRangeKeys(t *testing.T) {
	ks := uniformSet(t, 12, 500, 10000)
	idx, err := Build(ks, Config{Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Keys below min and above max must return not-found without panicking.
	for _, k := range []int64{0, ks.Min() - 1, ks.Max() + 1, 1 << 40} {
		if ks.Contains(k) {
			continue
		}
		if r := idx.Lookup(k); r.Found {
			t.Fatalf("out-of-range key %d found", k)
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	ks := uniformSet(t, 13, 800, 20000)
	a, err := Build(ks, Config{Fanout: 16})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(ks, Config{Fanout: 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ks.Len(); i += 13 {
		k := ks.At(i)
		if a.PredictPosition(k) != b.PredictPosition(k) {
			t.Fatal("build is not deterministic")
		}
	}
}

func TestConcurrentLookups(t *testing.T) {
	// The index is immutable after Build; concurrent readers must be safe
	// (run with -race in CI).
	ks := uniformSet(t, 33, 5000, 100000)
	idx, err := Build(ks, Config{Fanout: 50})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan bool)
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- true }()
			for i := w; i < ks.Len(); i += 4 {
				if r := idx.Lookup(ks.At(i)); !r.Found {
					t.Errorf("worker %d: key %d lost", w, ks.At(i))
					return
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
}
