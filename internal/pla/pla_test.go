package pla

import (
	"errors"
	"testing"
	"testing/quick"

	"cdfpoison/internal/core"
	"cdfpoison/internal/dataset"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/xrand"
)

func uniformSet(t *testing.T, seed uint64, n int, m int64) keys.Set {
	t.Helper()
	ks, err := dataset.Uniform(xrand.New(seed), n, m)
	if err != nil {
		t.Fatal(err)
	}
	return ks
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(keys.Set{}, 4); !errors.Is(err, ErrEmpty) {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
	ks := uniformSet(t, 1, 10, 100)
	if _, err := Build(ks, 0); err == nil {
		t.Fatal("epsilon 0 accepted")
	}
}

func TestAllKeysFound(t *testing.T) {
	for _, eps := range []int{1, 4, 16, 64} {
		ks := uniformSet(t, 2, 3000, 100000)
		idx, err := Build(ks, eps)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < ks.Len(); i++ {
			r := idx.Lookup(ks.At(i))
			if !r.Found || r.Pos != i {
				t.Fatalf("eps=%d: key %d (pos %d) -> %+v", eps, ks.At(i), i, r)
			}
		}
	}
}

func TestErrorBoundHolds(t *testing.T) {
	f := func(seed uint32, epsRaw uint8) bool {
		eps := int(epsRaw)%32 + 1
		rng := xrand.New(uint64(seed))
		n := 50 + rng.Intn(500)
		ks, err := dataset.Uniform(rng, n, int64(n)*20)
		if err != nil {
			return false
		}
		idx, err := Build(ks, eps)
		if err != nil {
			return false
		}
		return idx.VerifyErrorBound() <= float64(eps)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAbsentKeysNotFound(t *testing.T) {
	ks := uniformSet(t, 3, 500, 50000)
	idx, err := Build(ks, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(4)
	for i := 0; i < 1000; i++ {
		k := rng.Int63n(50000)
		if ks.Contains(k) {
			continue
		}
		if r := idx.Lookup(k); r.Found {
			t.Fatalf("absent key %d found", k)
		}
	}
	if r := idx.Lookup(ks.Min() - 1); r.Found {
		t.Fatal("key below min found")
	}
}

func TestFewerSegmentsWithLargerEpsilon(t *testing.T) {
	ks := uniformSet(t, 5, 5000, 100000)
	prev := ks.Len() + 1
	for _, eps := range []int{1, 4, 16, 64} {
		idx, err := Build(ks, eps)
		if err != nil {
			t.Fatal(err)
		}
		if idx.Segments() >= prev {
			t.Fatalf("eps=%d: segments %d did not decrease (prev %d)", eps, idx.Segments(), prev)
		}
		prev = idx.Segments()
	}
}

func TestPerfectlyLinearNeedsOneSegment(t *testing.T) {
	raw := make([]int64, 1000)
	for i := range raw {
		raw[i] = int64(i) * 7
	}
	ks, err := keys.New(raw)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Build(ks, 1)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Segments() != 1 {
		t.Fatalf("linear data needs %d segments, want 1", idx.Segments())
	}
}

func TestSingletonAndPair(t *testing.T) {
	one, _ := keys.New([]int64{42})
	idx, err := Build(one, 1)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Segments() != 1 || !idx.Lookup(42).Found {
		t.Fatal("singleton index broken")
	}
	two, _ := keys.New([]int64{10, 1000})
	idx, err = Build(two, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range two.Keys() {
		if r := idx.Lookup(k); !r.Found || r.Pos != i {
			t.Fatalf("pair lookup %d -> %+v", k, r)
		}
	}
}

func TestSegmentSizesSumToN(t *testing.T) {
	ks := uniformSet(t, 6, 2000, 30000)
	idx, err := Build(ks, 4)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for si, s := range idx.segs {
		end := ks.Len()
		if si+1 < len(idx.segs) {
			end = idx.segs[si+1].startPos
		}
		if end-s.startPos < 1 {
			t.Fatalf("empty segment")
		}
		total += end - s.startPos
	}
	if total != ks.Len() {
		t.Fatalf("segment sizes sum %d != n %d", total, ks.Len())
	}
	if idx.MemoryBytes() != idx.Segments()*32 {
		t.Fatal("memory accounting inconsistent")
	}
}

func TestPoisoningInflatesSegments(t *testing.T) {
	// The headline property: with the error bound enforced by construction,
	// CDF poisoning converts into segment-count (memory) inflation.
	ks := uniformSet(t, 7, 2000, 40000)
	atk, err := core.GreedyMultiPoint(ks, 200)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 16
	clean, err := Build(ks, eps)
	if err != nil {
		t.Fatal(err)
	}
	pois, err := Build(atk.Poisoned, eps)
	if err != nil {
		t.Fatal(err)
	}
	if pois.Segments() <= clean.Segments() {
		t.Fatalf("poisoning did not inflate segments: %d -> %d", clean.Segments(), pois.Segments())
	}
	// Lookup error stays bounded regardless.
	if pois.VerifyErrorBound() > eps {
		t.Fatal("error bound violated after poisoning")
	}
	// Legitimate keys still found in the poisoned index.
	for i := 0; i < ks.Len(); i += 37 {
		if r := pois.Lookup(ks.At(i)); !r.Found {
			t.Fatalf("legit key %d lost", ks.At(i))
		}
	}
}

// TestAvgProbes: every stored key is found, at a plausible mean probe
// count for eps=8.
func TestAvgProbes(t *testing.T) {
	ks := uniformSet(t, 8, 3000, 60000)
	idx, err := Build(ks, 8)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, k := range ks.Keys() {
		r := idx.Lookup(k)
		if !r.Found {
			t.Fatalf("stored key %d not found", k)
		}
		sum += r.Probes
	}
	if mean := float64(sum) / float64(ks.Len()); mean < 1 || mean > 40 {
		t.Fatalf("avg probes %v implausible", mean)
	}
}

func mustKeys(t *testing.T, raw []int64) keys.Set {
	t.Helper()
	ks, err := keys.New(raw)
	if err != nil {
		t.Fatal(err)
	}
	return ks
}
