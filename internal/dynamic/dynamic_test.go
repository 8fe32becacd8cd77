package dynamic

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"cdfpoison/internal/keys"
	"cdfpoison/internal/regression"
	"cdfpoison/internal/xrand"
)

func mustSet(t *testing.T, ks []int64) keys.Set {
	t.Helper()
	s, err := keys.NewStrict(ks)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(mustSet(t, []int64{1}), ManualPolicy()); err == nil {
		t.Fatal("single-key index accepted")
	}
	if _, err := New(keys.Set{}, ManualPolicy()); err == nil {
		t.Fatal("empty index accepted")
	}
	if _, err := New(mustSet(t, []int64{1, 5}), EveryKInserts(0)); err == nil {
		t.Fatal("EveryK with K=0 accepted")
	}
	if _, err := New(mustSet(t, []int64{1, 5}), BufferLimit(-1)); err == nil {
		t.Fatal("BufferLimit with K=-1 accepted")
	}
	if _, err := New(mustSet(t, []int64{1, 5}), RetrainPolicy{Kind: PolicyKind(99)}); err == nil {
		t.Fatal("unknown policy kind accepted")
	}
}

func TestPolicyStrings(t *testing.T) {
	for _, tc := range []struct{ got, want string }{
		{ManualPolicy().String(), "manual"},
		{EveryKInserts(8).String(), "every-k-8"},
		{BufferLimit(64).String(), "buffer-64"},
		{Manual.String(), "manual"},
		{EveryK.String(), "every-k"},
		{BufferThreshold.String(), "buffer"},
		{PolicyKind(42).String(), "PolicyKind(42)"},
	} {
		if tc.got != tc.want {
			t.Errorf("policy string %q, want %q", tc.got, tc.want)
		}
	}
}

// TestEmptyBufferRetrain: retraining with nothing buffered must advance the
// retrain counter, keep the key content identical, and refit to the exact
// same model bytes (the fit is deterministic).
func TestEmptyBufferRetrain(t *testing.T) {
	ks := mustSet(t, []int64{2, 10, 11, 40, 41, 90})
	x, err := New(ks, ManualPolicy())
	if err != nil {
		t.Fatal(err)
	}
	before := x.v.model
	x.Retrain()
	x.Retrain()
	if x.Stats().Retrains != 2 {
		t.Fatalf("retrains = %d, want 2", x.Stats().Retrains)
	}
	if !reflect.DeepEqual(x.v.model, before) {
		t.Fatalf("empty-buffer retrain changed the model: %v -> %v", before, x.v.model)
	}
	if !x.Keys().Equal(ks) {
		t.Fatal("empty-buffer retrain changed the content")
	}
}

// TestRetrainOnEveryInsert: EveryKInserts(1) must merge immediately, so the
// buffer never survives an Insert call and every call retrains.
func TestRetrainOnEveryInsert(t *testing.T) {
	x, err := New(mustSet(t, []int64{0, 100}), EveryKInserts(1))
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range []int64{50, 25, 75} {
		accepted, retrained := x.Insert(k)
		if !accepted || !retrained {
			t.Fatalf("insert %d: accepted=%v retrained=%v, want true/true", k, accepted, retrained)
		}
		if x.BufferLen() != 0 {
			t.Fatalf("buffer holds %d keys after immediate-merge insert", x.BufferLen())
		}
		if x.Stats().Retrains != i+1 {
			t.Fatalf("retrains = %d after %d inserts", x.Stats().Retrains, i+1)
		}
	}
	if got := x.v.base.Len(); got != 5 {
		t.Fatalf("base has %d keys, want 5", got)
	}
}

// TestDuplicateInsert: duplicates are rejected; under EveryK they still
// advance the write counter (a write-count schedule ticks on writes), while
// under BufferThreshold they do not move the buffer toward its limit.
func TestDuplicateInsert(t *testing.T) {
	x, err := New(mustSet(t, []int64{0, 100}), EveryKInserts(2))
	if err != nil {
		t.Fatal(err)
	}
	if accepted, retrained := x.Insert(100); accepted || retrained {
		t.Fatalf("duplicate of base key: accepted=%v retrained=%v", accepted, retrained)
	}
	// The duplicate above counted as write #1; this accepted write is #2 and
	// must trigger the EveryK(2) retrain.
	if accepted, retrained := x.Insert(50); !accepted || !retrained {
		t.Fatalf("second write: accepted=%v retrained=%v, want true/true", accepted, retrained)
	}

	y, err := New(mustSet(t, []int64{0, 100}), BufferLimit(2))
	if err != nil {
		t.Fatal(err)
	}
	y.Insert(50)
	for i := 0; i < 5; i++ {
		if accepted, retrained := y.Insert(50); accepted || retrained {
			t.Fatalf("buffered duplicate: accepted=%v retrained=%v", accepted, retrained)
		}
	}
	if y.BufferLen() != 1 || y.Stats().Retrains != 0 {
		t.Fatalf("duplicates advanced the buffer policy: buffer=%d retrains=%d", y.BufferLen(), y.Stats().Retrains)
	}
	if _, retrained := y.Insert(60); !retrained {
		t.Fatal("buffer limit 2 did not trigger at the second distinct key")
	}

	if accepted, _ := x.Insert(-3); accepted {
		t.Fatal("negative key accepted")
	}
}

// TestBufferThresholdBoundary: the retrain fires exactly when the buffer
// REACHES the limit, not before.
func TestBufferThresholdBoundary(t *testing.T) {
	x, err := New(mustSet(t, []int64{0, 1000}), BufferLimit(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int64{10, 20} {
		if _, retrained := x.Insert(k); retrained {
			t.Fatalf("retrained at buffer size %d < 3", x.BufferLen())
		}
	}
	if x.BufferLen() != 2 {
		t.Fatalf("buffer = %d, want 2", x.BufferLen())
	}
	if _, retrained := x.Insert(30); !retrained {
		t.Fatal("no retrain at buffer size 3")
	}
	if x.BufferLen() != 0 || x.v.base.Len() != 5 {
		t.Fatalf("merge failed: buffer=%d base=%d", x.BufferLen(), x.v.base.Len())
	}
}

// TestMergedEqualsFreshBuild: after any insert/retrain sequence, the index
// must be indistinguishable from one built directly over the final content —
// same model, same envelope, same lookup costs (golden determinism).
func TestMergedEqualsFreshBuild(t *testing.T) {
	rng := xrand.New(7)
	initial, err := keys.New(xrand.SampleInt64s(rng, 500, 20_000))
	if err != nil {
		t.Fatal(err)
	}
	x, err := New(initial, BufferLimit(16))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		x.Insert(rng.Int63n(20_000))
	}
	x.Retrain() // flush the tail so base == full content

	fresh, err := New(x.Keys(), BufferLimit(16))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(x.v.model, fresh.v.model) {
		t.Fatalf("merged model %v != fresh model %v", x.v.model, fresh.v.model)
	}
	if x.v.eLo != fresh.v.eLo || x.v.eHi != fresh.v.eHi {
		t.Fatalf("envelope (%v,%v) != fresh (%v,%v)", x.v.eLo, x.v.eHi, fresh.v.eLo, fresh.v.eHi)
	}
	for i := 0; i < x.Keys().Len(); i += 7 {
		k := x.Keys().At(i)
		a, b := x.Lookup(k), fresh.Lookup(k)
		if a != b {
			t.Fatalf("lookup(%d): merged %+v != fresh %+v", k, a, b)
		}
	}
}

// TestLookupFindsEverything: every stored key is found (base keys through
// the model envelope, buffered keys through the buffer search), and absent
// keys are not.
func TestLookupFindsEverything(t *testing.T) {
	rng := xrand.New(3)
	initial, err := keys.New(xrand.SampleInt64s(rng, 300, 10_000))
	if err != nil {
		t.Fatal(err)
	}
	x, err := New(initial, ManualPolicy())
	if err != nil {
		t.Fatal(err)
	}
	var buffered []int64
	for len(buffered) < 40 {
		k := rng.Int63n(10_000)
		if accepted, _ := x.Insert(k); accepted {
			buffered = append(buffered, k)
		}
	}
	for i := 0; i < initial.Len(); i++ {
		r := x.Lookup(initial.At(i))
		if !r.Found || r.InBuffer {
			t.Fatalf("base key %d: %+v", initial.At(i), r)
		}
		if r.Probes < 1 {
			t.Fatalf("base key %d found with %d probes", initial.At(i), r.Probes)
		}
	}
	for _, k := range buffered {
		r := x.Lookup(k)
		if !r.Found || !r.InBuffer {
			t.Fatalf("buffered key %d: %+v", k, r)
		}
	}
	full := x.Keys()
	misses := 0
	for k := int64(0); k < 10_000 && misses < 50; k++ {
		if !full.Contains(k) {
			if r := x.Lookup(k); r.Found {
				t.Fatalf("absent key %d reported found", k)
			}
			misses++
		}
	}
}

// TestProbeSumMatchesLookups: ProbeSum must be the exact sum of per-key
// Lookup probes, and must be partition-invariant (the parallel-evaluation
// contract).
func TestProbeSumMatchesLookups(t *testing.T) {
	rng := xrand.New(11)
	initial, err := keys.New(xrand.SampleInt64s(rng, 400, 8_000))
	if err != nil {
		t.Fatal(err)
	}
	x, err := New(initial, ManualPolicy())
	if err != nil {
		t.Fatal(err)
	}
	queries := append(append([]int64{}, initial.Keys()...), 7777, 1)
	var want int64
	wantMiss := 0
	for _, k := range queries {
		r := x.Lookup(k)
		want += int64(r.Probes)
		if !r.Found {
			wantMiss++
		}
	}
	got, miss := x.ProbeSum(queries)
	if got != want || miss != wantMiss {
		t.Fatalf("ProbeSum = (%d, %d), want (%d, %d)", got, miss, want, wantMiss)
	}
	mid := len(queries) / 3
	a1, m1 := x.ProbeSum(queries[:mid])
	a2, m2 := x.ProbeSum(queries[mid:])
	if a1+a2 != want || m1+m2 != wantMiss {
		t.Fatal("ProbeSum is not partition-invariant")
	}
}

// TestStatsAndGrowth: growing the buffer degrades lookups measurably and
// Stats reports the state truthfully.
func TestStatsAndGrowth(t *testing.T) {
	initial := mustSet(t, []int64{0, 10, 20, 30, 40, 1000})
	x, err := New(initial, ManualPolicy())
	if err != nil {
		t.Fatal(err)
	}
	st := x.Stats()
	if st.Keys != 6 || st.Buffered != 0 || st.Retrains != 0 || st.Window < 1 {
		t.Fatalf("initial stats: %+v", st)
	}
	for k := int64(100); k < 140; k++ {
		x.Insert(k)
	}
	st = x.Stats()
	if st.Keys != 46 || st.Buffered != 40 {
		t.Fatalf("post-insert stats: %+v", st)
	}
	x.Retrain()
	st = x.Stats()
	if st.Buffered != 0 || st.Retrains != 1 || st.Keys != 46 {
		t.Fatalf("post-retrain stats: %+v", st)
	}
	if x.v.model.N != 46 {
		t.Fatalf("model trained on %d keys, want 46", x.v.model.N)
	}
}

// TestSnapshotReuse pins when a capture may return the view it handed out
// before: only while no write has reached the read state. A rejected
// duplicate is not such a write; an accepted insert and a retrain, with or
// without buffered keys, are. A held view keeps answering from its capture
// time whatever comes after.
func TestSnapshotReuse(t *testing.T) {
	x, err := New(mustSet(t, []int64{0, 10, 20, 30, 40, 50, 60, 70}), ManualPolicy())
	if err != nil {
		t.Fatal(err)
	}
	x.Insert(35)
	held := x.Snapshot()
	if x.Snapshot() != held {
		t.Fatal("two captures with no write between them returned different views")
	}
	queries := []int64{0, 5, 30, 35, 36, 70, 99}
	want := make([]LookupResult, len(queries))
	for i, k := range queries {
		want[i] = held.Lookup(k)
	}
	wantKeys := keys.FromSorted(slices.Clone(held.Keys().Keys()))

	if accepted, _ := x.Insert(35); accepted {
		t.Fatal("duplicate accepted")
	}
	if x.Snapshot() != held {
		t.Fatal("a rejected duplicate produced a new view")
	}
	prev := held
	for _, step := range []struct {
		name  string
		write func()
	}{
		{"accepted insert", func() { x.Insert(36) }},
		{"buffered retrain", x.Retrain},
		{"empty-buffer retrain", x.Retrain},
	} {
		step.write()
		s := x.Snapshot()
		if s == prev {
			t.Fatalf("%s: capture returned the view from before the write", step.name)
		}
		if x.Snapshot() != s {
			t.Fatalf("%s: two captures after the write returned different views", step.name)
		}
		prev = s
	}
	x.Insert(5)

	for i, k := range queries {
		if got := held.Lookup(k); got != want[i] {
			t.Fatalf("held view Lookup(%d) changed: %+v -> %+v", k, want[i], got)
		}
	}
	if !held.Keys().Equal(wantKeys) {
		t.Fatal("held view's Keys changed under later writes")
	}
	if got := prev.Len(); got != 10 {
		t.Fatalf("view after the retrains holds %d keys, want 10", got)
	}
}

// TestContentLossMatchesEvaluate: Stats' merge walk over base and buffer
// returns regression.EvaluateCDF over the materialized Keys() bit for bit,
// with the buffer empty, partly filled, filled to one below its retrain
// trigger, and holding keys below the base minimum and above its maximum.
func TestContentLossMatchesEvaluate(t *testing.T) {
	base := mustSet(t, []int64{100, 130, 170, 260, 300, 420, 430, 500, 710, 900})
	x, err := New(base, BufferLimit(8))
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string, buffered int) {
		t.Helper()
		want, err := regression.EvaluateCDF(x.v.model.Line, x.Keys())
		if err != nil {
			t.Fatal(err)
		}
		st := x.Stats()
		if st.Buffered != buffered {
			t.Fatalf("%s: %d keys buffered, want %d", when, st.Buffered, buffered)
		}
		if math.Float64bits(st.ContentLoss) != math.Float64bits(want) {
			t.Fatalf("%s: ContentLoss %v, EvaluateCDF over Keys() %v", when, st.ContentLoss, want)
		}
	}
	check("empty buffer", 0)
	for i, k := range []int64{7, 3, 950, 5, 131, 1_000_000, 299} {
		if ok, _ := x.Insert(k); !ok {
			t.Fatalf("Insert(%d) refused", k)
		}
		check(fmt.Sprintf("after %d buffered", i+1), i+1)
	}
}
