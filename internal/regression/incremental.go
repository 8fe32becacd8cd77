package regression

// The incremental attack kernel: Algorithm 1 historically paid three O(n)
// passes per greedy step — a copy-on-insert of the key set, a from-scratch
// NewPrefix rebuild, and the allocations backing both. Insert collapses a
// step to O(1) moment updates, one pass over the n/sufStride stored suffix
// sums and one key memmove into pre-reserved storage, with zero
// allocations after setup.
//
// Why this cannot change a single output bit: the moments are exact
// integers (see the Prefix type comment), so the state Insert produces is
// the same mathematical — and therefore the same machine — value NewPrefix
// computes from scratch on the augmented set. The differential property and
// fuzz tests in incremental_test.go pin that equivalence bit-for-bit at
// every step of random insertion sequences.

import (
	"fmt"
	"math"
	"math/bits"
)

// u128 is an unsigned 128-bit integer accumulator for the second-order
// moments Σx² and Σx·r, whose exact values overflow int64 at large key
// spans. With Σx guarded to fit int64 (ErrRange), both second-order sums
// are bounded by 2⁶³·2⁶³ = 2¹²⁶ and can never overflow u128.
type u128 struct{ hi, lo uint64 }

// u128Mul returns a×b as a u128.
func u128Mul(a, b uint64) u128 {
	hi, lo := bits.Mul64(a, b)
	return u128{hi, lo}
}

// add returns a+b, ignoring (impossible, see type comment) overflow.
func (a u128) add(b u128) u128 {
	lo, carry := bits.Add64(a.lo, b.lo, 0)
	hi, _ := bits.Add64(a.hi, b.hi, carry)
	return u128{hi, lo}
}

// addU64 returns a+v.
func (a u128) addU64(v uint64) u128 { return a.add(u128{0, v}) }

// float converts to float64. Values below 2⁵³ (every shipped experiment
// scale) convert exactly; larger values round deterministically, and both
// the incremental and the from-scratch path hold the same integer, so they
// round identically.
func (a u128) float() float64 {
	if a.hi == 0 {
		return float64(a.lo)
	}
	return float64(a.hi)*0x1p64 + float64(a.lo)
}

// Insert adds the poisoning key kp to the kernel in place: the underlying
// mutable key set absorbs kp with one memmove, the scalar moments update in
// O(1), and the ⌈(n+1)/sufStride⌉ stored suffix sums update in one pass —
// no allocation as long as the reserve NewMutable set aside has room. It
// returns the 0-based position kp took.
//
// A key below the set minimum moves the centering origin down to it
// (insertBelow); the paper's attacks only ever insert strictly interior
// keys, so their kernels never take that path.
//
// Requirements (all returned as errors, never silently mis-accounted):
// the Prefix must come from NewPrefixMutable or Reset; kp must be absent
// and non-negative; and the new Σx must still fit int64 (ErrRange).
func (p *Prefix) Insert(kp int64) (pos int, err error) {
	if p.mut == nil {
		return 0, fmt.Errorf("regression: Insert on an immutable Prefix (build with NewPrefixMutable or Reset)")
	}
	if kp < 0 {
		return 0, fmt.Errorf("regression: Insert of negative key %d", kp)
	}
	if kp < p.origin {
		return 0, p.insertBelow(kp)
	}
	rank, free := p.mut.InsertedRank(kp)
	if !free {
		return 0, fmt.Errorf("regression: Insert key %d already present", kp)
	}
	pos = rank - 1
	xp := kp - p.origin
	if p.sumX > math.MaxInt64-xp {
		return 0, ErrRange
	}
	// The keys at positions >= pos each gain one unit of rank; their key sum
	// is the old Suffix(pos), the exact term the rank shift adds to Σx·r.
	shifted := p.Suffix(pos)
	if _, ok := p.mut.Insert(kp); !ok {
		return 0, fmt.Errorf("regression: mutable set rejected key %d", kp)
	}
	p.ks = p.mut.View()

	// Stored suffix sums: one at a position at or below pos now also covers
	// kp; one above pos now starts one key earlier in the old order, so it
	// gains the old key to its left, which the memmove just placed at its
	// own position. Both updates are exact integer arithmetic, so the result
	// equals the from-scratch suffix scan bit-for-bit.
	ks := p.ks.Keys()
	split := pos/sufStride + 1
	for b := range p.sufB[:split] {
		p.sufB[b] += xp
	}
	for b := split; b < len(p.sufB); b++ {
		p.sufB[b] += ks[b*sufStride] - p.origin
	}
	p.growSuffixes()

	uxp := uint64(xp)
	p.sumX += xp
	p.sumXX = p.sumXX.add(u128Mul(uxp, uxp))
	p.sumXR = p.sumXR.add(u128Mul(uxp, uint64(pos+1))).addU64(uint64(shifted))
	p.n++
	return pos, nil
}

// insertBelow inserts kp, below the current origin, at position 0 and
// makes it the origin. With d = origin − kp, every old key's centred value
// x gains d and its rank gains one, and kp's own centred value is 0, so
// over the n old keys:
//
//	Σx   gains n·d
//	Σx²  gains 2d·Σx + n·d²
//	Σx·r gains Σx + d·n(n+3)/2        (Σ(x+d)(r+1) − Σx·r, Σr = n(n+1)/2)
//
// and the stored suffix at new position 16b ≥ 16 covers old positions
// 16b−1 onwards, so it gains the old key at 16b−1 plus d for each of its
// n+1−16b keys. All in exact integers: the result is the from-scratch
// build over the new set. The moments are exact integers bounded by the
// new Σx, so checking Σx for int64 overflow guards them all.
func (p *Prefix) insertBelow(kp int64) error {
	n, d := int64(p.n), p.origin-kp
	if d > (math.MaxInt64-p.sumX)/n {
		return ErrRange
	}
	if _, ok := p.mut.Insert(kp); !ok {
		return fmt.Errorf("regression: mutable set rejected key %d", kp)
	}
	p.ks = p.mut.View()
	ks := p.ks.Keys() // old position i is now at i+1
	for b := 1; b < len(p.sufB); b++ {
		p.sufB[b] += ks[b*sufStride] - p.origin + d*(n+1-int64(b*sufStride))
	}
	p.growSuffixes()

	ud, un, usum := uint64(d), uint64(n), uint64(p.sumX)
	p.sumXX = p.sumXX.add(u128Mul(ud, 2*usum)).add(u128Mul(un*ud, ud))
	half := un * ((un + 3) / 2) // n(n+3)/2: one of n, n+3 is even
	if un%2 == 0 {
		half = (un / 2) * (un + 3)
	}
	p.sumXR = p.sumXR.addU64(usum).add(u128Mul(ud, half))
	p.sumX += int64(un * ud)
	p.sufB[0] = p.sumX
	p.origin = kp
	p.n++
	return nil
}

// growSuffixes appends the empty suffix's stored sum, 0, when the key
// count about to be reached, n+1, is a multiple of the stride.
func (p *Prefix) growSuffixes() {
	if (p.n+1)%sufStride == 0 {
		p.sufB = append(p.sufB, 0)
	}
}
