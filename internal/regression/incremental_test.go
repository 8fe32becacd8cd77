package regression

import (
	"math"
	"slices"
	"testing"

	"cdfpoison/internal/keys"
	"cdfpoison/internal/xrand"
)

// freshPrefix rebuilds a Prefix from scratch on an independent copy of the
// mutable set's current content — the reference the incremental kernel must
// match bit-for-bit.
func freshPrefix(t testing.TB, m *keys.MutableSet) *Prefix {
	t.Helper()
	p, err := NewPrefix(keys.FromSorted(slices.Clone(m.View().Keys())))
	if err != nil {
		t.Fatalf("fresh NewPrefix: %v", err)
	}
	return p
}

// assertPrefixBitIdentical compares every observable of the incremental and
// the from-scratch kernel with == (no tolerance): clean loss and a full
// sweep of candidate losses. This is the central guarantee that lets
// GreedyMultiPoint skip the per-step rebuild.
func assertPrefixBitIdentical(t *testing.T, inc, fresh *Prefix) {
	t.Helper()
	if inc.N() != fresh.N() {
		t.Fatalf("N: %d != %d", inc.N(), fresh.N())
	}
	if cl, fl := inc.CleanLoss(), fresh.CleanLoss(); cl != fl {
		t.Fatalf("CleanLoss: %v != %v (diff %g)", cl, fl, cl-fl)
	}
	ks := fresh.Set()
	for i := 0; i+1 < ks.Len(); i++ {
		lo, hi := ks.At(i)+1, ks.At(i+1)-1
		if lo > hi {
			continue
		}
		pos := i + 1
		for _, kp := range []int64{lo, hi, (lo + hi) / 2} {
			if li, lf := inc.PoisonedLoss(kp, pos), fresh.PoisonedLoss(kp, pos); li != lf {
				t.Fatalf("PoisonedLoss(%d, %d): %v != %v (diff %g)", kp, pos, li, lf, li-lf)
			}
		}
	}
}

// randomMutable draws a random sparse set sized for repeated insertion.
func randomMutable(rng *xrand.RNG, minN, maxN int, domain int64, reserve int) *keys.MutableSet {
	n := minN + rng.Intn(maxN-minN+1)
	s, err := keys.New(xrand.SampleInt64s(rng, n, domain))
	if err != nil {
		panic(err)
	}
	return keys.NewMutable(s, reserve)
}

// TestPrefixInsertMatchesFreshRebuild is the differential property test of
// the incremental kernel: random insert sequences through Prefix.Insert
// must leave the kernel's losses bit-identical to a from-scratch NewPrefix
// on the augmented set, at every step.
func TestPrefixInsertMatchesFreshRebuild(t *testing.T) {
	rng := xrand.New(515)
	for trial := 0; trial < 40; trial++ {
		const reserve = 12
		m := randomMutable(rng, 5, 60, 4000, reserve)
		inc, err := NewPrefixMutable(m)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < reserve; step++ {
			// Pick a random free interior key.
			view := m.View()
			span := view.Max() - view.Min()
			if span <= 1 {
				break
			}
			kp := view.Min() + 1 + rng.Int63n(span-1)
			if _, free := view.InsertedRank(kp); !free {
				continue
			}
			wantPos := view.CountLess(kp)
			pos, err := inc.Insert(kp)
			if err != nil {
				t.Fatalf("trial %d step %d: Insert(%d): %v", trial, step, kp, err)
			}
			if pos != wantPos {
				t.Fatalf("Insert(%d) returned pos %d, want %d", kp, pos, wantPos)
			}
			assertPrefixBitIdentical(t, inc, freshPrefix(t, m))
		}
	}
}

// assertSuffixNaive checks Suffix at every position 0..n against the naive
// Σ_{j≥pos}(k_j − min) over the backing set — a reference that shares
// nothing with the stored suffix sums, so a boundary bug common to
// NewPrefix and Insert cannot hide behind a differential comparison.
func assertSuffixNaive(t *testing.T, p *Prefix) {
	t.Helper()
	ks := p.Set().Keys()
	if len(ks) != p.N() {
		t.Fatalf("set holds %d keys, prefix counts %d", len(ks), p.N())
	}
	var want int64
	for pos := len(ks); pos >= 0; pos-- {
		if pos < len(ks) {
			want += ks[pos] - ks[0]
		}
		if got := p.Suffix(pos); got != want {
			t.Fatalf("n=%d: Suffix(%d) = %d, naive sum %d", len(ks), pos, got, want)
		}
	}
}

// TestPrefixSuffixMatchesNaive drives random Insert sequences from sets
// whose length starts just below, at, and just above a multiple of the
// suffix-sum stride, well past the reserve, and checks every suffix after
// every step against the naive sum.
func TestPrefixSuffixMatchesNaive(t *testing.T) {
	rng := xrand.New(1616)
	for _, n := range []int{
		sufStride - 1, sufStride, sufStride + 1,
		2*sufStride - 1, 2 * sufStride, 2*sufStride + 1,
		5*sufStride - 1, 5 * sufStride, 5*sufStride + 1,
	} {
		s, err := keys.New(xrand.SampleInt64s(rng, n, 20*int64(n)))
		if err != nil {
			t.Fatal(err)
		}
		const reserve = 3
		m := keys.NewMutable(s, reserve)
		p, err := NewPrefixMutable(m)
		if err != nil {
			t.Fatal(err)
		}
		assertSuffixNaive(t, p)
		for inserted := 0; inserted < 3*sufStride+reserve; {
			view := m.View()
			kp := view.Min() + 1 + rng.Int63n(view.Max()-view.Min()+sufStride)
			if _, free := view.InsertedRank(kp); !free {
				continue
			}
			if _, err := p.Insert(kp); err != nil {
				t.Fatalf("n=%d: Insert(%d): %v", n, kp, err)
			}
			inserted++
			assertSuffixNaive(t, p)
		}
	}
}

// TestPrefixInsertLargeMagnitude drives the kernel where float64
// accumulation would round (sums beyond 2⁵³): exact integer moments must
// keep incremental == fresh bit-identical even there.
func TestPrefixInsertLargeMagnitude(t *testing.T) {
	rng := xrand.New(77)
	base := int64(1) << 40
	raw := make([]int64, 0, 3000)
	for i := 0; i < 3000; i++ {
		raw = append(raw, base+rng.Int63n(1<<22))
	}
	s, err := keys.New(raw)
	if err != nil {
		t.Fatal(err)
	}
	m := keys.NewMutable(s, 8)
	inc, err := NewPrefixMutable(m)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 8; step++ {
		view := m.View()
		kp := view.Min() + 1 + rng.Int63n(view.Max()-view.Min()-1)
		if _, free := view.InsertedRank(kp); !free {
			continue
		}
		if _, err := inc.Insert(kp); err != nil {
			t.Fatal(err)
		}
		assertPrefixBitIdentical(t, inc, freshPrefix(t, m))
	}
}

// assertMomentsNaive recomputes Σx, Σx² and Σx·r with a plain forward
// sum over the centred keys, the reference the one-pass backward build
// must match exactly.
func assertMomentsNaive(t *testing.T, p *Prefix) {
	t.Helper()
	ks := p.Set().Keys()
	var sumX int64
	var sumXX, sumXR u128
	for i, k := range ks {
		x := uint64(k - ks[0])
		sumX += int64(x)
		sumXX = sumXX.add(u128Mul(x, x))
		sumXR = sumXR.add(u128Mul(x, uint64(i+1)))
	}
	if p.origin != ks[0] || p.sumX != sumX || p.sumXX != sumXX || p.sumXR != sumXR {
		t.Fatalf("n=%d: moments (%d, %d, %v, %v), naive (%d, %d, %v, %v)",
			len(ks), p.origin, p.sumX, p.sumXX, p.sumXR, ks[0], sumX, sumXX, sumXR)
	}
}

// TestPrefixResetMatchesFresh reuses one MutableSet and one Prefix across
// sets that shrink and grow around multiples of the suffix stride, as a
// greedy workspace does. After each Reset the moments must equal a naive
// forward sum, every suffix a naive suffix sum, and every loss the fresh
// kernel's; Inserts after the Reset must keep all three.
func TestPrefixResetMatchesFresh(t *testing.T) {
	rng := xrand.New(2323)
	var (
		m keys.MutableSet
		p Prefix
	)
	for _, n := range []int{5*sufStride + 3, 2 * sufStride, sufStride + 1, 7 * sufStride, 3, 4*sufStride - 1} {
		s, err := keys.New(xrand.SampleInt64s(rng, n, 50*int64(n)))
		if err != nil {
			t.Fatal(err)
		}
		const reserve = 4
		m.Reset(s, reserve)
		if err := p.Reset(&m); err != nil {
			t.Fatal(err)
		}
		for inserted := 0; ; {
			assertMomentsNaive(t, &p)
			assertSuffixNaive(t, &p)
			assertPrefixBitIdentical(t, &p, freshPrefix(t, &m))
			if inserted == reserve {
				break
			}
			view := m.View()
			kp := view.Min() + 1 + rng.Int63n(view.Max()-view.Min()-1)
			if _, free := view.InsertedRank(kp); !free {
				continue
			}
			if _, err := p.Insert(kp); err != nil {
				t.Fatalf("n=%d: Insert(%d): %v", n, kp, err)
			}
			inserted++
		}
	}
}

// TestPrefixInsertZeroAllocSteadyState: after setup, Insert within the
// reserve must not allocate — the kernel's headline contract.
func TestPrefixInsertZeroAllocSteadyState(t *testing.T) {
	s, err := keys.New(xrand.SampleInt64s(xrand.New(9), 2000, 1_000_000))
	if err != nil {
		t.Fatal(err)
	}
	// AllocsPerRun calls the function once extra as warm-up, so reserve two
	// batches of inserts.
	const batch = 50
	m := keys.NewMutable(s, 2*batch)
	inc, err := NewPrefixMutable(m)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(10)
	allocs := testing.AllocsPerRun(1, func() {
		for inserted := 0; inserted < batch; {
			view := m.View()
			kp := view.Min() + 1 + rng.Int63n(view.Max()-view.Min()-1)
			if inserted%10 == 9 && view.Min() > 0 {
				kp = view.Min() - 1 // a new minimum moves the origin
			}
			if _, free := view.InsertedRank(kp); !free {
				continue
			}
			if _, err := inc.Insert(kp); err != nil {
				t.Fatal(err)
			}
			inserted++
		}
	})
	if allocs > 0 {
		t.Fatalf("Insert allocated %v times inside the reserve", allocs)
	}
}

func TestPrefixInsertRejections(t *testing.T) {
	s, _ := keys.New([]int64{10, 20, 30, 40})
	m := keys.NewMutable(s, 4)
	inc, err := NewPrefixMutable(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Insert(20); err == nil {
		t.Fatal("present key accepted")
	}
	if _, err := inc.Insert(10); err == nil {
		t.Fatal("origin key accepted")
	}
	if _, err := inc.Insert(-5); err == nil {
		t.Fatal("negative key accepted")
	}
	imm, err := NewPrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := imm.Insert(25); err == nil {
		t.Fatal("immutable Prefix accepted Insert")
	}
	// Rejections must leave the kernel untouched.
	if _, err := inc.Insert(25); err != nil {
		t.Fatal(err)
	}
	assertPrefixBitIdentical(t, inc, freshPrefix(t, m))
}

// TestPrefixInsertBelowOrigin: a key below the set minimum moves the
// centering origin in place. Descending runs of new minimums, interleaved
// with interior keys, from sets whose length starts around multiples of
// the suffix stride and runs past the reserve, must leave the moments
// equal to a naive forward sum, every suffix equal to a naive sum, and
// every loss bit-identical to a from-scratch NewPrefix, after every step.
func TestPrefixInsertBelowOrigin(t *testing.T) {
	rng := xrand.New(4242)
	for _, n := range []int{2, 3, sufStride - 2, sufStride - 1, sufStride, 2*sufStride - 1, 3*sufStride + 5} {
		raw := xrand.SampleInt64s(rng, n, 40*int64(n))
		for i := range raw {
			raw[i] += 1_000 // room below for a run of new minimums
		}
		s, err := keys.New(raw)
		if err != nil {
			t.Fatal(err)
		}
		m := keys.NewMutable(s, 4)
		p, err := NewPrefixMutable(m)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 2*sufStride+3; step++ {
			view := m.View()
			kp := view.Min() - 1 - rng.Int63n(30)
			if step%5 == 4 { // an interior key between the new minimums
				kp = view.Min() + 1 + rng.Int63n(view.Max()-view.Min()-1)
				if _, free := view.InsertedRank(kp); !free {
					continue
				}
			}
			want := view.CountLess(kp)
			pos, err := p.Insert(kp)
			if err != nil {
				t.Fatalf("n=%d step %d: Insert(%d): %v", n, step, kp, err)
			}
			if pos != want {
				t.Fatalf("n=%d: Insert(%d) at %d, want %d", n, kp, pos, want)
			}
			assertMomentsNaive(t, p)
			assertSuffixNaive(t, p)
			assertPrefixBitIdentical(t, p, freshPrefix(t, m))
		}
	}
}

// TestPrefixInsertBelowOriginRange: a new minimum that would push Σx past
// int64 returns ErrRange and leaves the kernel as it was.
func TestPrefixInsertBelowOriginRange(t *testing.T) {
	huge := int64(math.MaxInt64) / 2
	s, _ := keys.New([]int64{huge, huge + 10, huge + 20})
	m := keys.NewMutable(s, 2)
	p, err := NewPrefixMutable(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Insert(0); err != ErrRange {
		t.Fatalf("Insert(0) under a huge origin: want ErrRange, got %v", err)
	}
	if m.Len() != 3 {
		t.Fatalf("failed Insert changed the set: %d keys", m.Len())
	}
	assertMomentsNaive(t, p)
	assertPrefixBitIdentical(t, p, freshPrefix(t, m))
	if _, err := p.Insert(huge - 7); err != nil {
		t.Fatal(err)
	}
	assertMomentsNaive(t, p)
	assertPrefixBitIdentical(t, p, freshPrefix(t, m))
}

// TestPrefixInsertBeyondReserve: exhausting the reserve degrades to growth,
// never to corruption.
func TestPrefixInsertBeyondReserve(t *testing.T) {
	s, _ := keys.New([]int64{0, 1000})
	m := keys.NewMutable(s, 1)
	inc, err := NewPrefixMutable(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, kp := range []int64{500, 250, 750, 125} {
		if _, err := inc.Insert(kp); err != nil {
			t.Fatalf("Insert(%d): %v", kp, err)
		}
		assertPrefixBitIdentical(t, inc, freshPrefix(t, m))
	}
}

func TestNewPrefixRangeGuard(t *testing.T) {
	// Two keys spanning nearly the whole int64 range: Σx fits (one term),
	// three such keys must trip ErrRange deterministically rather than
	// silently overflow.
	huge := int64(math.MaxInt64) - 1
	s, err := keys.New([]int64{0, huge - 1, huge})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPrefix(s); err != ErrRange {
		t.Fatalf("want ErrRange, got %v", err)
	}
	// And Insert must guard the same bound.
	s2, _ := keys.New([]int64{0, huge})
	m := keys.NewMutable(s2, 2)
	inc, err := NewPrefixMutable(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Insert(huge - 1); err != ErrRange {
		t.Fatalf("Insert overflow: want ErrRange, got %v", err)
	}
	// The failed Insert must not have mutated anything.
	assertPrefixBitIdentical(t, inc, freshPrefix(t, m))
}

// FuzzPrefixInsert feeds arbitrary byte strings as insert sequences: each
// pair of bytes selects a candidate key, interior or, when the first byte
// is 0xF0 or above, below the set minimum (which moves the origin); valid
// inserts must keep the incremental kernel bit-identical to the
// from-scratch rebuild.
func FuzzPrefixInsert(f *testing.F) {
	f.Add(uint64(1), []byte{0x00, 0x10, 0x80, 0xFF, 0x42, 0x07})
	f.Add(uint64(42), []byte{0xAA, 0xBB, 0xCC})
	f.Add(uint64(7), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Fuzz(func(t *testing.T, seed uint64, script []byte) {
		rng := xrand.New(seed%1024 + 1)
		m := randomMutable(rng, 4, 40, 2000, len(script)/2+1)
		inc, err := NewPrefixMutable(m)
		if err != nil {
			t.Skip()
		}
		for i := 0; i+1 < len(script); i += 2 {
			view := m.View()
			span := view.Max() - view.Min()
			if span <= 1 {
				break
			}
			sel := int64(script[i])<<8 | int64(script[i+1])
			kp := view.Min() + 1 + sel%(span-1)
			if script[i] >= 0xF0 {
				if view.Min() == 0 {
					continue
				}
				kp = sel % view.Min()
			}
			if _, free := view.InsertedRank(kp); !free {
				continue
			}
			if _, err := inc.Insert(kp); err != nil {
				t.Fatalf("Insert(%d): %v", kp, err)
			}
			fresh, err := NewPrefix(keys.FromSorted(slices.Clone(m.View().Keys())))
			if err != nil {
				t.Fatal(err)
			}
			if inc.CleanLoss() != fresh.CleanLoss() {
				t.Fatalf("CleanLoss diverged after Insert(%d): %v != %v",
					kp, inc.CleanLoss(), fresh.CleanLoss())
			}
			if l, ok := inc.PoisonedLossAuto(kp + 1); ok {
				lf, _ := fresh.PoisonedLossAuto(kp + 1)
				if l != lf {
					t.Fatalf("PoisonedLossAuto diverged: %v != %v", l, lf)
				}
			}
			assertMomentsNaive(t, inc)
		}
	})
}
