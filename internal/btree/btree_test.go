package btree

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"cdfpoison/internal/xrand"
)

func mustTree(t *testing.T, degree int) *Tree {
	t.Helper()
	tr, err := New(degree)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewRejectsBadDegree(t *testing.T) {
	for _, d := range []int{-1, 0, 1} {
		if _, err := New(d); err == nil {
			t.Errorf("degree %d accepted", d)
		}
	}
}

func TestInsertGetSmall(t *testing.T) {
	tr := mustTree(t, 2)
	keys := []int64{5, 3, 8, 1, 4, 9, 7, 2, 6, 0}
	for i, k := range keys {
		if ok, retrained := tr.Insert(k); !ok || retrained {
			t.Fatalf("insert %d: accepted=%v retrained=%v", k, ok, retrained)
		}
		if tr.Len() != i+1 {
			t.Fatalf("len %d after %d inserts", tr.Len(), i+1)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("after insert %d: %v", k, err)
		}
	}
	for _, k := range keys {
		if found, _ := tr.Get(k); !found {
			t.Errorf("key %d lost", k)
		}
	}
	if found, _ := tr.Get(42); found {
		t.Error("phantom key found")
	}
	if ok, _ := tr.Insert(5); ok {
		t.Error("duplicate insert succeeded")
	}
	if tr.Len() != 10 {
		t.Errorf("len %d after duplicate insert", tr.Len())
	}
}

func TestAscendSorted(t *testing.T) {
	tr := mustTree(t, 3)
	rng := xrand.New(1)
	want := xrand.SampleInt64s(rng, 500, 100000)
	for _, k := range want {
		tr.Insert(k)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	var got []int64
	tr.Ascend(func(k int64) bool {
		got = append(got, k)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("iterated %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order mismatch at %d: %d != %d", i, got[i], want[i])
		}
	}
}

func TestAscendEarlyStop(t *testing.T) {
	tr := mustTree(t, 2)
	for k := int64(0); k < 100; k++ {
		tr.Insert(k)
	}
	count := 0
	tr.Ascend(func(k int64) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestRandomizedAgainstMap(t *testing.T) {
	// Mixed insert/lookup workload validated against a map reference, with
	// invariant checks along the way.
	for _, degree := range []int{2, 3, 8, 32} {
		tr := mustTree(t, degree)
		ref := map[int64]bool{}
		rng := xrand.New(uint64(degree) * 97)
		for op := 0; op < 5000; op++ {
			k := rng.Int63n(800)
			if rng.Intn(2) == 0 {
				got, _ := tr.Insert(k)
				want := !ref[k]
				if got != want {
					t.Fatalf("degree %d op %d: Insert(%d) = %v, want %v", degree, op, k, got, want)
				}
				ref[k] = true
			} else {
				got, _ := tr.Get(k)
				if got != ref[k] {
					t.Fatalf("degree %d op %d: Get(%d) = %v, want %v", degree, op, k, got, ref[k])
				}
			}
			if tr.Len() != len(ref) {
				t.Fatalf("degree %d op %d: len %d, want %d", degree, op, tr.Len(), len(ref))
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("degree %d final invariants: %v", degree, err)
		}
		// In-order cross-check on the final state.
		var want, got []int64
		for k := range ref {
			want = append(want, k)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		tr.Ascend(func(k int64) bool {
			got = append(got, k)
			return true
		})
		if !slices.Equal(got, want) {
			t.Fatalf("degree %d: Ascend does not yield the reference keys in order (%d keys, want %d)", degree, len(got), len(want))
		}
	}
}

func TestQuickInsertAll(t *testing.T) {
	f := func(raw []int64) bool {
		tr, err := New(4)
		if err != nil {
			return false
		}
		ref := map[int64]bool{}
		for _, k := range raw {
			if k < 0 {
				// Outside the [0, m) key universe: must be rejected.
				if ok, _ := tr.Insert(k); ok {
					return false
				}
				continue
			}
			tr.Insert(k)
			ref[k] = true
		}
		if tr.Len() != len(ref) {
			return false
		}
		for k := range ref {
			if found, _ := tr.Get(k); !found {
				return false
			}
		}
		return tr.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHeightLogarithmic(t *testing.T) {
	tr := mustTree(t, 32)
	rng := xrand.New(3)
	for _, k := range xrand.SampleInt64s(rng, 100000, 1<<40) {
		tr.Insert(k)
	}
	if h := tr.Height(); h > 4 {
		t.Errorf("height %d too large for degree-32 tree with 1e5 keys", h)
	}
}

func TestGetProbesBounded(t *testing.T) {
	tr := mustTree(t, 32)
	rng := xrand.New(4)
	ks := xrand.SampleInt64s(rng, 50000, 1<<40)
	for _, k := range ks {
		tr.Insert(k)
	}
	worst := 0
	for _, k := range ks[:1000] {
		found, probes := tr.Get(k)
		if !found {
			t.Fatalf("key %d lost", k)
		}
		if probes > worst {
			worst = probes
		}
	}
	// Each level costs ~log2(2*32) ≈ 6 comparisons; 4 levels ≈ 24.
	if worst > 30 {
		t.Errorf("worst-case probes %d implausibly high", worst)
	}
}

func TestBulk(t *testing.T) {
	ks := []int64{9, 1, 5, 3}
	tr, err := Bulk(2, ks)
	if err != nil {
		t.Fatal(err)
	}
	if found, _ := tr.Get(3); tr.Len() != 4 || !found {
		t.Fatal("bulk build wrong")
	}
	if _, err := Bulk(1, ks); err == nil {
		t.Fatal("bad degree accepted")
	}
}

func TestEmptyTreeOps(t *testing.T) {
	tr := mustTree(t, 2)
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Error("empty tree shape wrong")
	}
	if found, _ := tr.Get(1); found {
		t.Error("empty tree found a key")
	}
	tr.Ascend(func(int64) bool { t.Error("empty tree iterated"); return false })
}
