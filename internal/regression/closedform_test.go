package regression

import (
	"testing"

	"cdfpoison/internal/keys"
	"cdfpoison/internal/xrand"
)

// sweepGapCandidates calls fn for every free candidate position of ks,
// passing (kp, pos, gap). It enumerates the exact domain PoisonedLoss
// accepts: interior keys of interior gaps.
func sweepGapCandidates(ks keys.Set, fn func(kp int64, pos, gap int)) {
	for g := 0; g+1 < ks.Len(); g++ {
		for kp := ks.At(g) + 1; kp < ks.At(g+1); kp++ {
			fn(kp, g+1, g)
		}
	}
}

// refPoisonedLoss is the historical Prefix.PoisonedLoss, kept verbatim as
// the bit-for-bit reference of the float operation sequence ClosedForm.Loss
// must reproduce. Its rank-shift term is summed naively over the key set,
// independently of the stored suffix sums.
func refPoisonedLoss(p *Prefix, kp int64, pos int) float64 {
	var suf int64
	for _, k := range p.Set().Keys()[pos:] {
		suf += k - p.origin
	}
	xp := float64(kp - p.origin)
	t := float64(pos + 1)
	n1 := float64(p.n + 1)

	sumX := float64(p.sumX) + xp
	sumXX := p.sumXX.float() + xp*xp
	sumXR := p.sumXR.float() + float64(suf) + xp*t

	mx := sumX / n1
	mxx := sumXX / n1
	mxr := sumXR / n1
	mr := rankMean(p.n + 1)

	varX := mxx - mx*mx
	cov := mxr - mx*mr
	varR := rankVar(p.n + 1)
	if varX <= 0 {
		return varR
	}
	loss := varR - cov*cov/varX
	if loss < 0 {
		return 0
	}
	return loss
}

// TestClosedFormLossMatchesPoisonedLoss: the snapshot evaluator, fed the
// stored suffix sums, and Prefix.PoisonedLoss must agree with the
// historical PoisonedLoss float sequence to the last bit on EVERY
// candidate of random sets — the foundation of the pruned scan's
// bit-identity claim.
func TestClosedFormLossMatchesPoisonedLoss(t *testing.T) {
	rng := xrand.New(808)
	for trial := 0; trial < 30; trial++ {
		m := randomMutable(rng, 5, 80, 5000, 4)
		p, err := NewPrefixMutable(m)
		if err != nil {
			t.Fatal(err)
		}
		cf := p.ClosedForm()
		sweepGapCandidates(p.Set(), func(kp int64, pos, _ int) {
			want := refPoisonedLoss(p, kp, pos)
			if got := cf.Loss(kp, pos, p.Suffix(pos)); got != want {
				t.Fatalf("trial %d: Loss(%d, %d) = %v, reference = %v (diff %g)",
					trial, kp, pos, got, want, got-want)
			}
			if got := p.PoisonedLoss(kp, pos); got != want {
				t.Fatalf("trial %d: PoisonedLoss(%d, %d) = %v, reference = %v (diff %g)",
					trial, kp, pos, got, want, got-want)
			}
		})
	}
}

// TestClosedFormBoundDominates is the correctness contract of the pruned
// scan: for arbitrary gap blocks of arbitrary width, Bound must dominate
// the float64-computed loss of every candidate the block covers. A single
// violation would let the scan prune the true maximizer.
func TestClosedFormBoundDominates(t *testing.T) {
	rng := xrand.New(2121)
	for trial := 0; trial < 25; trial++ {
		m := randomMutable(rng, 8, 120, 8000, 4)
		p, err := NewPrefixMutable(m)
		if err != nil {
			t.Fatal(err)
		}
		cf := p.ClosedForm()
		ks := p.Set()
		nGaps := ks.Len() - 1
		for _, width := range []int{1, 2, 3, 5, 8, 16, 64, nGaps} {
			if width > nGaps {
				continue
			}
			for gapLo := 0; gapLo < nGaps; gapLo += width {
				gapHi := gapLo + width
				if gapHi > nGaps {
					gapHi = nGaps
				}
				kLo, kHi := ks.At(gapLo)+1, ks.At(gapHi)-1
				if kLo > kHi {
					continue // saturated block: no candidates to cover
				}
				bound := cf.Bound(gapLo, gapHi, kLo, kHi)
				for g := gapLo; g < gapHi; g++ {
					for kp := ks.At(g) + 1; kp < ks.At(g+1); kp++ {
						if loss := p.PoisonedLoss(kp, g+1); loss > bound {
							t.Fatalf("trial %d block [%d,%d): Bound = %v < PoisonedLoss(%d, %d) = %v (excess %g)",
								trial, gapLo, gapHi, bound, kp, g+1, loss, loss-bound)
						}
					}
				}
			}
		}
	}
}

// TestClosedFormBoundAfterInsert re-checks domination on a prefix mutated
// through Insert — the exact state the greedy loop rebuilds snapshots from.
func TestClosedFormBoundAfterInsert(t *testing.T) {
	rng := xrand.New(3434)
	m := randomMutable(rng, 40, 60, 6000, 10)
	p, err := NewPrefixMutable(m)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 10; step++ {
		view := m.View()
		kp := view.Min() + 1 + rng.Int63n(view.Max()-view.Min()-1)
		if _, free := view.InsertedRank(kp); !free {
			continue
		}
		if _, err := p.Insert(kp); err != nil {
			t.Fatal(err)
		}
		cf := p.ClosedForm()
		ks := p.Set()
		nGaps := ks.Len() - 1
		const width = 7
		for gapLo := 0; gapLo < nGaps; gapLo += width {
			gapHi := gapLo + width
			if gapHi > nGaps {
				gapHi = nGaps
			}
			kLo, kHi := ks.At(gapLo)+1, ks.At(gapHi)-1
			if kLo > kHi {
				continue
			}
			bound := cf.Bound(gapLo, gapHi, kLo, kHi)
			for g := gapLo; g < gapHi; g++ {
				for k := ks.At(g) + 1; k < ks.At(g+1); k++ {
					if loss := p.PoisonedLoss(k, g+1); loss > bound {
						t.Fatalf("step %d block [%d,%d): Bound = %v < loss(%d) = %v",
							step, gapLo, gapHi, bound, k, loss)
					}
				}
			}
		}
	}
}

// TestClosedFormVarRCeiling: every candidate loss and every finite bound
// stays below varR plus the documented margin — the scale the pruning
// threshold arithmetic relies on.
func TestClosedFormVarRCeiling(t *testing.T) {
	rng := xrand.New(55)
	m := randomMutable(rng, 20, 50, 3000, 2)
	p, err := NewPrefixMutable(m)
	if err != nil {
		t.Fatal(err)
	}
	cf := p.ClosedForm()
	ceiling := cf.varR * (1 + 1e-6)
	sweepGapCandidates(p.Set(), func(kp int64, pos, _ int) {
		if l := cf.Loss(kp, pos, p.Suffix(pos)); l > ceiling || l < 0 {
			t.Fatalf("Loss(%d, %d) = %v outside [0, varR=%v]", kp, pos, l, cf.varR)
		}
	})
}

// FuzzClosedFormLoss is the differential fuzz of the closed-form evaluator:
// arbitrary byte scripts drive random key sets, candidate probes, and
// interleaved inserts; ClosedForm.Loss must equal the historical
// PoisonedLoss sequence (refPoisonedLoss) to the last bit on every probed
// candidate, and Bound must dominate every probed candidate it covers.
func FuzzClosedFormLoss(f *testing.F) {
	f.Add(uint64(1), []byte{0x00, 0x10, 0x80, 0xFF, 0x42, 0x07})
	f.Add(uint64(42), []byte{0xAA, 0xBB, 0xCC, 0x01, 0x02, 0x03})
	f.Add(uint64(7), []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0})
	f.Add(uint64(515), []byte{0xF0, 0x0F, 0x55, 0xAA, 0x33, 0xCC, 0x5A, 0xA5})
	f.Fuzz(func(t *testing.T, seed uint64, script []byte) {
		rng := xrand.New(seed%2048 + 1)
		m := randomMutable(rng, 4, 60, 3000, len(script)/4+1)
		p, err := NewPrefixMutable(m)
		if err != nil {
			t.Skip()
		}
		cf := p.ClosedForm()
		for i := 0; i+1 < len(script); i += 2 {
			ks := p.Set()
			nGaps := ks.Len() - 1
			sel := int(script[i])<<8 | int(script[i+1])
			if i%8 == 6 {
				// Every fourth pair mutates: insert a random free key and
				// re-derive the snapshot, as the greedy loop does.
				view := m.View()
				span := view.Max() - view.Min()
				if span <= 1 {
					break
				}
				kp := view.Min() + 1 + int64(sel)%(span-1)
				if _, free := view.InsertedRank(kp); !free {
					continue
				}
				if _, err := p.Insert(kp); err != nil {
					t.Fatalf("Insert(%d): %v", kp, err)
				}
				cf = p.ClosedForm()
				continue
			}
			// Probe: pick a gap and a candidate inside it.
			g := sel % nGaps
			lo, hi := ks.At(g)+1, ks.At(g+1)-1
			if lo > hi {
				continue
			}
			kp := lo + int64(sel)%(hi-lo+1)
			got, want := cf.Loss(kp, g+1, p.Suffix(g+1)), refPoisonedLoss(p, kp, g+1)
			if got != want {
				t.Fatalf("Loss(%d, %d) = %v, reference = %v (diff %g)",
					kp, g+1, got, want, got-want)
			}
			// Bound over a block containing the probed gap must cover it.
			width := 1 + sel%9
			gapLo := g - g%width
			gapHi := gapLo + width
			if gapHi > nGaps {
				gapHi = nGaps
			}
			kLo, kHi := ks.At(gapLo)+1, ks.At(gapHi)-1
			if kLo > kHi {
				continue
			}
			if bound := cf.Bound(gapLo, gapHi, kLo, kHi); want > bound {
				t.Fatalf("Bound([%d,%d)) = %v < PoisonedLoss(%d, %d) = %v",
					gapLo, gapHi, bound, kp, g+1, want)
			}
		}
	})
}
