package rmi

import (
	"errors"
	"math"
	"strings"
	"testing"

	"cdfpoison/internal/dataset"
	"cdfpoison/internal/dynamic"
	"cdfpoison/internal/index"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/regression"
	"cdfpoison/internal/xrand"
)

// TestSingleLookupMatchesIndex: the backend face serves base keys exactly
// as the underlying fanout-1 index does, with zero extra probes while the
// staging area is empty.
func TestSingleLookupMatchesIndex(t *testing.T) {
	ks, err := dataset.Uniform(xrand.New(7), 500, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSingle(ks)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Build(ks, Config{Fanout: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ks.Len(); i++ {
		k := ks.At(i)
		br, ir := s.Lookup(k), idx.Lookup(k)
		if !br.Found || br.Probes != ir.Probes {
			t.Fatalf("key %d: backend %+v vs index %+v", k, br, ir)
		}
	}
}

// TestSingleStagingAndRebuild: inserts stage without touching the model;
// Retrain absorbs them; duplicates and negatives are rejected at both
// levels.
func TestSingleStagingAndRebuild(t *testing.T) {
	ks, err := dataset.Uniform(xrand.New(8), 300, 9_000)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSingle(ks)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := s.Insert(-5); ok {
		t.Fatal("negative key accepted")
	}
	if ok, _ := s.Insert(ks.At(10)); ok {
		t.Fatal("base duplicate accepted")
	}
	fresh := freshInteriorKey(ks.Keys())
	if ok, retrained := s.Insert(fresh); !ok || retrained {
		t.Fatalf("fresh key: accepted=%v retrained=%v", ok, retrained)
	}
	if ok, _ := s.Insert(fresh); ok {
		t.Fatal("staged duplicate accepted")
	}
	r := s.Lookup(fresh)
	if !r.Found || !r.InBuffer {
		t.Fatalf("staged key lookup: %+v", r)
	}
	st := s.Stats()
	if st.Buffered != 1 || st.Keys != ks.Len()+1 || st.Retrains != 0 {
		t.Fatalf("pre-rebuild stats: %+v", st)
	}
	if st.ContentLoss <= 0 {
		t.Fatalf("staged key did not surface as content loss: %+v", st)
	}
	s.Retrain()
	st = s.Stats()
	if st.Buffered != 0 || st.Retrains != 1 {
		t.Fatalf("post-rebuild stats: %+v", st)
	}
	if r := s.Lookup(fresh); !r.Found || r.InBuffer {
		t.Fatalf("absorbed key lookup: %+v", r)
	}
}

func freshInteriorKey(sorted []int64) int64 {
	for i := 1; i < len(sorted); i++ {
		if sorted[i]-sorted[i-1] >= 2 {
			return sorted[i-1] + 1
		}
	}
	panic("no gap")
}

// TestSingleNeedsTwoKeys: like dynamic.New and shard.New, the single-model
// backend refuses a set too small to fit a CDF line.
func TestSingleNeedsTwoKeys(t *testing.T) {
	one, err := keys.New([]int64{42})
	if err != nil {
		t.Fatal(err)
	}
	for _, ks := range []keys.Set{{}, one} {
		if _, err := NewSingle(ks); !errors.Is(err, dynamic.ErrTooFew) {
			t.Errorf("%d keys: err = %v, want dynamic.ErrTooFew", ks.Len(), err)
		}
	}
}

// TestSingleMatchesFanoutOneBuild pins the single-model backend to the
// fanout-1 RMI it is defined by. In every state — fresh, with staged keys,
// retrained — each stored, staged and absent key's lookup, the batch probe
// sums, the stats and the optional faces equal what Build(…, Fanout 1)
// over the trained-on keys, followed by a binary search over the staged
// keys, gives.
func TestSingleMatchesFanoutOneBuild(t *testing.T) {
	sets := []struct {
		name string
		gen  func(*xrand.RNG) (keys.Set, error)
	}{
		{"uniform", func(r *xrand.RNG) (keys.Set, error) { return dataset.Uniform(r, 2_000, 100_000) }},
		{"normal", func(r *xrand.RNG) (keys.Set, error) { return dataset.Normal(r, 2_000, 100_000) }},
		{"lognormal", func(r *xrand.RNG) (keys.Set, error) { return dataset.LogNormal(r, 2_000, 1_000_000, 0, 2) }},
		{"near-maxint64", func(*xrand.RNG) (keys.Set, error) {
			return keys.New([]int64{0, 5, 9, 50, 100, math.MaxInt64 - 1, math.MaxInt64})
		}},
	}
	for i, c := range sets {
		rng := xrand.New(uint64(40 + i))
		ks, err := c.gen(rng)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSingle(ks)
		if err != nil {
			t.Fatal(err)
		}
		checkSingle(t, c.name+"/fresh", s, ks, nil, 0)
		staged := interiorAbsentKeys(rng, ks, 20)
		for _, k := range staged {
			if ok, retrained := s.Insert(k); !ok || retrained {
				t.Fatalf("%s: staging %d: accepted=%v retrained=%v", c.name, k, ok, retrained)
			}
		}
		checkSingle(t, c.name+"/staged", s, ks, staged, 0)
		s.Retrain()
		checkSingle(t, c.name+"/retrained", s, ks.Union(keys.FromSorted(staged)), nil, 1)
	}
}

// checkSingle compares b and a snapshot of it with the fanout-1 index over
// base plus a binary search over the sorted staged keys.
func checkSingle(t *testing.T, label string, b index.Backend, base keys.Set, staged []int64, retrains int) {
	t.Helper()
	ref, err := Build(base, Config{Fanout: 1})
	if err != nil {
		t.Fatal(err)
	}
	content := base.Union(keys.FromSorted(staged))
	want := func(k int64) index.LookupResult {
		r := ref.Lookup(k)
		res := index.LookupResult{Found: r.Found, Probes: r.Probes}
		for lo, hi := 0, len(staged)-1; !res.Found && lo <= hi; {
			mid := (lo + hi) / 2
			res.Probes++
			switch c := staged[mid]; {
			case c == k:
				res.Found, res.InBuffer = true, true
			case c < k:
				lo = mid + 1
			default:
				hi = mid - 1
			}
		}
		return res
	}

	// Every stored and staged key plus its absent successor, and -1.
	queries := []int64{-1}
	for i := 0; i < content.Len(); i++ {
		k := content.At(i)
		queries = append(queries, k)
		if k < math.MaxInt64 && !content.Contains(k+1) {
			queries = append(queries, k+1)
		}
	}
	// The reference pins what a reader sees (membership, buffer hits,
	// probes), not the backend's own search-window width.
	same := func(got, want index.LookupResult) bool {
		return got.Found == want.Found && got.InBuffer == want.InBuffer && got.Probes == want.Probes
	}
	snap := b.Snapshot()
	var wantProbes int64
	var wantNotFound int
	for _, k := range queries {
		w := want(k)
		if got := b.Lookup(k); !same(got, w) {
			t.Fatalf("%s: Lookup(%d) = %+v, fanout-1 reference %+v", label, k, got, w)
		}
		if got := snap.Lookup(k); !same(got, w) {
			t.Fatalf("%s: snapshot Lookup(%d) = %+v, fanout-1 reference %+v", label, k, got, w)
		}
		wantProbes += int64(w.Probes)
		if !w.Found {
			wantNotFound++
		}
	}
	for name, r := range map[string]index.PointReader{"backend": b, "snapshot": snap} {
		if p, nf := r.ProbeSum(queries); p != wantProbes || nf != wantNotFound {
			t.Errorf("%s: %s ProbeSum = (%d, %d), want (%d, %d)", label, name, p, nf, wantProbes, wantNotFound)
		}
		if p, nf := index.ProbeSumSorted(r, queries); p != wantProbes || nf != wantNotFound {
			t.Errorf("%s: %s ProbeSumSorted = (%d, %d), want (%d, %d)", label, name, p, nf, wantProbes, wantNotFound)
		}
	}

	contentLoss, err := regression.EvaluateCDF(ref.models[0].line, content)
	if err != nil {
		t.Fatal(err)
	}
	wantStats := index.Stats{
		Keys:        content.Len(),
		Buffered:    len(staged),
		Retrains:    retrains,
		ModelLoss:   ref.SecondStageMSE(),
		ContentLoss: contentLoss,
		Window:      ref.Stats().MaxWindow,
	}
	if st := b.Stats(); st != wantStats {
		t.Errorf("%s: Stats = %+v, want %+v", label, st, wantStats)
	}
	if got := b.Len(); got != content.Len() {
		t.Errorf("%s: Len = %d, want %d", label, got, content.Len())
	}
	if got := b.Keys(); !got.Equal(content) {
		t.Errorf("%s: Keys differ from base ∪ staged", label)
	}

	if got, want := faceSet(b), "BatchReader,RebuildSizer,TriggerPredictor"; got != want {
		t.Fatalf("%s: backend faces %q, want %q", label, got, want)
	}
	if got, want := faceSet(snap), "BatchReader"; got != want {
		t.Fatalf("%s: snapshot faces %q, want %q", label, got, want)
	}
	if got := b.(index.RebuildSizer).LastRebuildSize(); got != base.Len() {
		t.Errorf("%s: LastRebuildSize = %d, want %d", label, got, base.Len())
	}
	if b.(index.TriggerPredictor).RetrainPossible() {
		t.Errorf("%s: RetrainPossible = true on a manually retrained index", label)
	}
}

// faceSet names the optional index faces v implements.
func faceSet(v any) string {
	var fs []string
	if _, ok := v.(index.BatchReader); ok {
		fs = append(fs, "BatchReader")
	}
	if _, ok := v.(index.ParallelRetrainer); ok {
		fs = append(fs, "ParallelRetrainer")
	}
	if _, ok := v.(index.RebuildSizer); ok {
		fs = append(fs, "RebuildSizer")
	}
	if _, ok := v.(index.TriggerPredictor); ok {
		fs = append(fs, "TriggerPredictor")
	}
	return strings.Join(fs, ",")
}

// interiorAbsentKeys draws n distinct keys strictly between ks's minimum
// and maximum that ks does not hold, sorted.
func interiorAbsentKeys(rng *xrand.RNG, ks keys.Set, n int) []int64 {
	picked := keys.Set{}
	for picked.Len() < n {
		k := ks.Min() + 1 + rng.Int63n(ks.Max()-ks.Min()-1)
		if !ks.Contains(k) {
			picked, _ = picked.Insert(k)
		}
	}
	return picked.Keys()
}
