package keys

import (
	"errors"
	"sort"
	"testing"
	"testing/quick"

	"cdfpoison/internal/xrand"
)

func mustNew(t *testing.T, ks []int64) Set {
	t.Helper()
	s, err := New(ks)
	if err != nil {
		t.Fatalf("New(%v): %v", ks, err)
	}
	return s
}

func TestNewSortsAndDedups(t *testing.T) {
	s := mustNew(t, []int64{5, 1, 3, 3, 1, 9})
	want := []int64{1, 3, 5, 9}
	if got := s.Keys(); len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("got %v, want %v", got, want)
			}
		}
	}
}

func TestNewRejectsNegative(t *testing.T) {
	if _, err := New([]int64{1, -2, 3}); !errors.Is(err, ErrNegative) {
		t.Fatalf("want ErrNegative, got %v", err)
	}
}

func TestNewStrictRejectsDuplicates(t *testing.T) {
	if _, err := NewStrict([]int64{1, 2, 2}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("want ErrDuplicate, got %v", err)
	}
	if _, err := NewStrict([]int64{3, 1, 2}); err != nil {
		t.Fatalf("NewStrict on distinct keys: %v", err)
	}
}

func TestFromSortedPanics(t *testing.T) {
	for name, ks := range map[string][]int64{
		"unsorted":  {2, 1},
		"duplicate": {1, 1},
		"negative":  {-1, 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FromSorted %s did not panic", name)
				}
			}()
			FromSorted(ks)
		}()
	}
}

func TestEmptySetAccessors(t *testing.T) {
	var s Set
	if s.Len() != 0 || s.Contains(1) || len(s.Gaps()) != 0 || s.FreeSlots() != 0 {
		t.Fatal("zero-value Set misbehaves")
	}
	if !s.Saturated() {
		t.Fatal("empty set should count as saturated (nowhere to poison)")
	}
}

func TestRankAndContains(t *testing.T) {
	s := mustNew(t, []int64{2, 6, 7, 12})
	cases := []struct {
		k    int64
		rank int
		ok   bool
	}{{2, 1, true}, {6, 2, true}, {7, 3, true}, {12, 4, true}, {1, 0, false}, {8, 0, false}, {13, 0, false}}
	for _, c := range cases {
		r, ok := s.Rank(c.k)
		if r != c.rank || ok != c.ok {
			t.Errorf("Rank(%d) = (%d,%v), want (%d,%v)", c.k, r, ok, c.rank, c.ok)
		}
		if s.Contains(c.k) != c.ok {
			t.Errorf("Contains(%d) = %v, want %v", c.k, !c.ok, c.ok)
		}
	}
}

func TestInsertedRank(t *testing.T) {
	s := mustNew(t, []int64{2, 6, 7, 12})
	cases := []struct {
		k    int64
		rank int
		ok   bool
	}{{0, 1, true}, {3, 2, true}, {5, 2, true}, {8, 4, true}, {13, 5, true}, {6, 0, false}}
	for _, c := range cases {
		r, ok := s.InsertedRank(c.k)
		if r != c.rank || ok != c.ok {
			t.Errorf("InsertedRank(%d) = (%d,%v), want (%d,%v)", c.k, r, ok, c.rank, c.ok)
		}
	}
}

func TestInsertImmutable(t *testing.T) {
	s := mustNew(t, []int64{1, 5})
	s2, ok := s.Insert(3)
	if !ok || s2.Len() != 3 || s.Len() != 2 {
		t.Fatal("Insert must produce a new 3-key set and leave the receiver intact")
	}
	if _, ok := s.Insert(5); ok {
		t.Fatal("Insert of existing key must report !ok")
	}
	if _, ok := s.Insert(-1); ok {
		t.Fatal("Insert of negative key must report !ok")
	}
}

func TestGapsExample(t *testing.T) {
	// The paper's running example (Section IV-C): keys 2,6,7,12 over [1,13]
	// have interior gaps {3,4,5} and {8,9,10,11}; the out-of-range slots
	// {1} and {13} are excluded by design.
	s := mustNew(t, []int64{2, 6, 7, 12})
	gaps := s.Gaps()
	want := []Gap{{Lo: 3, Hi: 5, Rank: 2}, {Lo: 8, Hi: 11, Rank: 4}}
	if len(gaps) != len(want) {
		t.Fatalf("gaps = %v, want %v", gaps, want)
	}
	for i := range want {
		if gaps[i] != want[i] {
			t.Errorf("gap %d = %v, want %v", i, gaps[i], want[i])
		}
	}
	if got := s.FreeSlots(); got != 7 {
		t.Errorf("FreeSlots = %d, want 7", got)
	}
}

func TestSaturated(t *testing.T) {
	if s := mustNew(t, []int64{4, 5, 6, 7}); !s.Saturated() {
		t.Error("consecutive run should be saturated")
	}
	if s := mustNew(t, []int64{4, 6}); s.Saturated() {
		t.Error("set with a gap should not be saturated")
	}
	if s := mustNew(t, []int64{9}); !s.Saturated() {
		t.Error("singleton has no interior and should be saturated")
	}
}

func TestPartitionSizes(t *testing.T) {
	s := mustNew(t, []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	parts := s.Partition(3)
	sizes := []int{4, 4, 3} // 11 = 4+4+3, first n%N get the extra
	if len(parts) != 3 {
		t.Fatalf("got %d parts", len(parts))
	}
	total := 0
	for i, p := range parts {
		if p.Len() != sizes[i] {
			t.Errorf("part %d size %d, want %d", i, p.Len(), sizes[i])
		}
		total += p.Len()
	}
	if total != s.Len() {
		t.Errorf("partition loses keys: %d != %d", total, s.Len())
	}
	// Contiguity: each part's max < next part's min.
	for i := 0; i+1 < len(parts); i++ {
		if parts[i].Max() >= parts[i+1].Min() {
			t.Errorf("parts %d and %d overlap", i, i+1)
		}
	}
}

func TestPartitionMoreModelsThanKeys(t *testing.T) {
	s := mustNew(t, []int64{10, 20})
	parts := s.Partition(5)
	nonEmpty := 0
	for _, p := range parts {
		if p.Len() > 0 {
			nonEmpty++
		}
	}
	if nonEmpty != 2 {
		t.Fatalf("want 2 non-empty parts, got %d", nonEmpty)
	}
}

func TestUnionAgainstReference(t *testing.T) {
	rng := xrand.New(99)
	f := func(aRaw, bRaw []uint16) bool {
		toSet := func(raw []uint16) Set {
			ks := make([]int64, len(raw))
			for i, v := range raw {
				ks[i] = int64(v)
			}
			s, err := New(ks)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			return s
		}
		a, b := toSet(aRaw), toSet(bRaw)
		u := a.Union(b)
		ref := map[int64]bool{}
		for _, k := range a.Keys() {
			ref[k] = true
		}
		for _, k := range b.Keys() {
			ref[k] = true
		}
		if u.Len() != len(ref) {
			return false
		}
		for _, k := range u.Keys() {
			if !ref[k] {
				return false
			}
		}
		return sort.SliceIsSorted(u.Keys(), func(i, j int) bool { return u.Keys()[i] < u.Keys()[j] })
	}
	_ = rng
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGapsCoverAllFreeSlots(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(50)
		raw := xrand.SampleInt64s(rng, n, 200)
		s := mustNew(t, raw)
		var fromGaps int64
		for _, g := range s.Gaps() {
			fromGaps += g.Width()
			// Every key in the gap must be absent and interior.
			if g.Lo <= s.Min() || g.Hi >= s.Max() {
				t.Fatalf("gap %v not interior for %v", g, s)
			}
			for k := g.Lo; k <= g.Hi; k++ {
				if s.Contains(k) {
					t.Fatalf("gap %v contains stored key %d", g, k)
				}
			}
			// Rank consistency with InsertedRank.
			r, ok := s.InsertedRank(g.Lo)
			if !ok || r != g.Rank {
				t.Fatalf("gap rank %d, InsertedRank %d", g.Rank, r)
			}
		}
		if fromGaps != s.FreeSlots() {
			t.Fatalf("gap widths %d != FreeSlots %d", fromGaps, s.FreeSlots())
		}
	}
}

// Clone returns a Set backed by a fresh copy of the keys: the tests'
// durable copy of a set whose storage moves on.
func (s Set) Clone() Set {
	ks := make([]int64, len(s.ks))
	copy(ks, s.ks)
	return Set{ks: ks}
}

func TestCloneAndEqual(t *testing.T) {
	s := mustNew(t, []int64{1, 2, 3})
	c := s.Clone()
	if !s.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.ks[0] = 99 // mutating the clone must not affect the original
	if s.At(0) != 1 {
		t.Fatal("clone shares storage with original")
	}
	if s.Equal(mustNew(t, []int64{1, 2})) || s.Equal(mustNew(t, []int64{1, 2, 4})) {
		t.Fatal("Equal false positives")
	}
}

func TestSliceSharesStorage(t *testing.T) {
	s := mustNew(t, []int64{1, 2, 3, 4, 5})
	sub := s.Slice(1, 4)
	if sub.Len() != 3 || sub.Min() != 2 || sub.Max() != 4 {
		t.Fatalf("Slice(1,4) = %v", sub)
	}
}

func TestDensity(t *testing.T) {
	s := mustNew(t, []int64{0, 1, 2, 3})
	if got := s.Density(16); got != 0.25 {
		t.Errorf("Density = %v, want 0.25", got)
	}
	if got := s.Density(0); got != 0 {
		t.Errorf("Density(0) = %v, want 0", got)
	}
}

func TestCountLess(t *testing.T) {
	s := mustNew(t, []int64{10, 20, 30})
	for _, c := range []struct {
		k    int64
		want int
	}{{5, 0}, {10, 0}, {11, 1}, {20, 1}, {25, 2}, {35, 3}} {
		if got := s.CountLess(c.k); got != c.want {
			t.Errorf("CountLess(%d) = %d, want %d", c.k, got, c.want)
		}
	}
}

func TestStringForms(t *testing.T) {
	small := mustNew(t, []int64{1, 2})
	if small.String() == "" {
		t.Error("small String empty")
	}
	big := make([]int64, 100)
	for i := range big {
		big[i] = int64(i)
	}
	if s := mustNew(t, big).String(); s == "" {
		t.Error("big String empty")
	}
}
