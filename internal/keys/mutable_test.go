package keys

import (
	"testing"
)

func TestRemove(t *testing.T) {
	s := mustNew(t, []int64{2, 5, 9, 14})
	got, ok := s.Remove(9)
	if !ok {
		t.Fatal("present key not removed")
	}
	if want := mustNew(t, []int64{2, 5, 14}); !got.Equal(want) {
		t.Fatalf("Remove(9) = %v, want %v", got, want)
	}
	// Receiver untouched.
	if !s.Equal(mustNew(t, []int64{2, 5, 9, 14})) {
		t.Fatal("Remove mutated the receiver")
	}
	// Absent key: unchanged, ok=false.
	if got, ok := s.Remove(7); ok || !got.Equal(s) {
		t.Fatalf("Remove(absent) = (%v, %v)", got, ok)
	}
	// Endpoints.
	if got, _ := s.Remove(2); !got.Equal(mustNew(t, []int64{5, 9, 14})) {
		t.Fatal("Remove(min) wrong")
	}
	if got, _ := s.Remove(14); !got.Equal(mustNew(t, []int64{2, 5, 9})) {
		t.Fatal("Remove(max) wrong")
	}
	// Down to empty.
	one := mustNew(t, []int64{3})
	if got, ok := one.Remove(3); !ok || got.Len() != 0 {
		t.Fatalf("Remove to empty = (%v, %v)", got, ok)
	}
	// Empty set.
	if _, ok := (Set{}).Remove(1); ok {
		t.Fatal("Remove on empty set claimed success")
	}
}

// TestRemoveMatchesRebuild: Remove must agree with the historical
// filter-and-revalidate construction on random sets.
func TestRemoveMatchesRebuild(t *testing.T) {
	s := mustNew(t, []int64{0, 3, 4, 8, 15, 16, 23, 42, 99})
	for i := 0; i < s.Len(); i++ {
		k := s.At(i)
		fast, ok := s.Remove(k)
		if !ok {
			t.Fatalf("Remove(%d) failed", k)
		}
		var filtered []int64
		for _, v := range s.Keys() {
			if v != k {
				filtered = append(filtered, v)
			}
		}
		want, err := NewStrict(filtered)
		if err != nil {
			t.Fatal(err)
		}
		if !fast.Equal(want) {
			t.Fatalf("Remove(%d) = %v, rebuild = %v", k, fast, want)
		}
	}
}

func TestMutableSetInsert(t *testing.T) {
	s := mustNew(t, []int64{10, 20, 30})
	m := NewMutable(s, 3)
	if m.Len() != 3 || m.Cap() != 6 {
		t.Fatalf("len/cap = %d/%d, want 3/6", m.Len(), m.Cap())
	}
	pos, ok := m.Insert(25)
	if !ok || pos != 2 {
		t.Fatalf("Insert(25) = (%d, %v), want (2, true)", pos, ok)
	}
	if _, ok := m.Insert(25); ok {
		t.Fatal("duplicate insert accepted")
	}
	if _, ok := m.Insert(-1); ok {
		t.Fatal("negative insert accepted")
	}
	if pos, ok := m.Insert(5); !ok || pos != 0 {
		t.Fatalf("Insert(5) = (%d, %v), want (0, true)", pos, ok)
	}
	if pos, ok := m.Insert(40); !ok || pos != 5 {
		t.Fatalf("Insert(40) = (%d, %v), want (5, true)", pos, ok)
	}
	want := mustNew(t, []int64{5, 10, 20, 25, 30, 40})
	if !m.View().Equal(want) {
		t.Fatalf("content %v, want %v", m.View(), want)
	}
	// NewMutable must not alias the source set.
	if !s.Equal(mustNew(t, []int64{10, 20, 30})) {
		t.Fatal("NewMutable mutated its source")
	}
}

func TestMutableSetInsertZeroAllocWithinReserve(t *testing.T) {
	s := mustNew(t, []int64{0, 1_000_000})
	// AllocsPerRun calls the function once extra as warm-up, so reserve two
	// batches of inserts.
	m := NewMutable(s, 128)
	next := int64(1)
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 64; i++ {
			if _, ok := m.Insert(next); !ok {
				t.Fatal("insert failed")
			}
			next += 7
		}
	})
	if allocs > 0 {
		t.Fatalf("Insert allocated %v times within the reserve", allocs)
	}
}

// TestMutableSetResetReusesStorage: Reset refills the set in place with a
// copy of its source, keeps the requested reserve, and allocates only when
// content plus reserve outgrow the capacity.
func TestMutableSetResetReusesStorage(t *testing.T) {
	m := NewMutable(mustNew(t, []int64{1, 2, 3, 4, 5, 6}), 10)
	small := mustNew(t, []int64{10, 20, 30})
	if allocs := testing.AllocsPerRun(5, func() { m.Reset(small, 4) }); allocs != 0 {
		t.Fatalf("Reset within capacity allocated %v times", allocs)
	}
	if !m.View().Equal(small) || m.Cap()-m.Len() < 4 {
		t.Fatalf("after Reset: %v", m)
	}
	if _, ok := m.Insert(15); !ok || !small.Equal(mustNew(t, []int64{10, 20, 30})) {
		t.Fatal("Reset aliased its source")
	}
	big := make([]int64, 20)
	for i := range big {
		big[i] = int64(3 * i)
	}
	m.Reset(mustNew(t, big), 3)
	if !m.View().Equal(mustNew(t, big)) || m.Cap()-m.Len() < 3 {
		t.Fatalf("after a growing Reset: %v", m)
	}
}

func TestMutableSetGrowthBeyondReserve(t *testing.T) {
	m := NewMutable(mustNew(t, []int64{0, 100}), 0)
	for _, k := range []int64{50, 25, 75} {
		if _, ok := m.Insert(k); !ok {
			t.Fatalf("growth insert %d failed", k)
		}
	}
	if !m.View().Equal(mustNew(t, []int64{0, 25, 50, 75, 100})) {
		t.Fatalf("content after growth: %v", m.View())
	}
}

// TestMutableSetViewCloneIsIndependent: a cloned view is the durable copy
// of a set that lives on; the next Insert moves keys under the view but
// not under the clone.
func TestMutableSetViewCloneIsIndependent(t *testing.T) {
	m := NewMutable(mustNew(t, []int64{1, 5}), 2)
	snap := m.View().Clone()
	m.Insert(3)
	if !snap.Equal(mustNew(t, []int64{1, 5})) {
		t.Fatalf("View().Clone() aliased the mutable storage: %v", snap)
	}
	if !m.View().Clone().Equal(mustNew(t, []int64{1, 3, 5})) {
		t.Fatal("post-insert clone wrong")
	}
}

func TestMutableSetRankHelpers(t *testing.T) {
	m := NewMutable(mustNew(t, []int64{10, 20}), 1)
	if c := m.CountLess(15); c != 1 {
		t.Fatalf("CountLess(15) = %d", c)
	}
	if r, free := m.InsertedRank(15); !free || r != 2 {
		t.Fatalf("InsertedRank(15) = (%d, %v)", r, free)
	}
	if _, free := m.InsertedRank(20); free {
		t.Fatal("InsertedRank on present key claimed free")
	}
	if m.At(1) != 20 {
		t.Fatalf("At(1) = %d", m.At(1))
	}
	if m.String() == "" {
		t.Fatal("String empty")
	}
	if NewMutable(Set{}, -5).Cap() != 0 {
		t.Fatal("negative reserve not clamped")
	}
}
