// Package pla implements an error-bounded piecewise-linear learned index in
// the style of the FITing-tree and the PGM-index — the alternative learned
// index family the paper's related work surveys ([9], [38]) and its
// Discussion singles out as worth attacking ("recent works propose learned
// index structures based on different regression models… It is worthwhile
// studying the vulnerabilities of these models", Section VI).
//
// The index covers the sorted keys with the fewest greedy "shrinking cone"
// segments such that every key's predicted position is within epsilon of
// its true position. The experiments read the segment count; the package
// tests look keys up (binary-search the segment table, predict, finish
// with a bounded last-mile search) to check the bound end to end.
//
// Against this family, CDF poisoning shows up differently than against the
// fixed-fanout RMI: the error bound is enforced by construction, so the
// attacker cannot inflate lookup error — instead every poisoning key that
// breaks a cone forces an extra segment, inflating the index's MEMORY
// footprint. The price of tailoring, paid in space instead of time.
package pla

import (
	"errors"
	"fmt"
	"math"

	"cdfpoison/internal/keys"
)

// ErrEmpty is returned when building over an empty key set.
var ErrEmpty = errors.New("pla: cannot build over an empty key set")

// segment is one linear piece: positions predicted as
// pos ≈ slope·(key − startKey) + startPos for keys from startKey up to the
// next segment's.
type segment struct {
	startKey int64
	startPos int // 0-based position of startKey
	slope    float64
}

// Index is an immutable error-bounded piecewise-linear index.
type Index struct {
	ks      keys.Set
	segs    []segment
	epsilon int
}

// Build constructs the index with the given error bound epsilon >= 1 using
// the one-pass greedy shrinking-cone algorithm: the fewest segments such
// that |predicted − actual| <= epsilon for every stored key (optimal among
// one-pass left-to-right segmentations).
func Build(ks keys.Set, epsilon int) (*Index, error) {
	n := ks.Len()
	if n == 0 {
		return nil, ErrEmpty
	}
	if epsilon < 1 {
		return nil, fmt.Errorf("pla: epsilon must be >= 1, got %d", epsilon)
	}
	idx := &Index{ks: ks, epsilon: epsilon}

	start := 0
	for start < n {
		// Open a segment at (key_start, start).
		k0 := ks.At(start)
		loSlope := math.Inf(-1)
		hiSlope := math.Inf(1)
		end := start
		for next := start + 1; next < n; next++ {
			dx := float64(ks.At(next) - k0)
			dy := float64(next - start)
			lo := (dy - float64(epsilon)) / dx
			hi := (dy + float64(epsilon)) / dx
			newLo := math.Max(loSlope, lo)
			newHi := math.Min(hiSlope, hi)
			if newLo > newHi {
				break // cone collapsed: the segment ends at `end`
			}
			loSlope, hiSlope = newLo, newHi
			end = next
		}
		var slope float64
		switch {
		case end == start:
			slope = 0 // singleton segment
		case math.IsInf(loSlope, -1) || math.IsInf(hiSlope, 1):
			slope = 0 // unreachable: two points always bound the cone
		default:
			slope = (loSlope + hiSlope) / 2
		}
		idx.segs = append(idx.segs, segment{
			startKey: k0,
			startPos: start,
			slope:    slope,
		})
		start = end + 1
	}
	return idx, nil
}

// Segments returns the number of linear pieces — the quantity a poisoning
// adversary inflates.
func (idx *Index) Segments() int { return len(idx.segs) }

// MemoryBytes estimates the model storage: per segment one key (8B), one
// position (8B), and one slope (8B), plus the segment-table key array used
// for routing (8B) — matching how FITing-tree accounts its inner nodes.
func (idx *Index) MemoryBytes() int { return len(idx.segs) * 32 }

// VerifyErrorBound recomputes every key's prediction error and returns the
// worst observed |predicted − actual|. Build keeps it <= epsilon up to float
// rounding, which a lookup's floor/ceil window around the prediction absorbs.
func (idx *Index) VerifyErrorBound() float64 {
	worst := 0.0
	for si, s := range idx.segs {
		endPos := idx.ks.Len() - 1
		if si+1 < len(idx.segs) {
			endPos = idx.segs[si+1].startPos - 1
		}
		for p := s.startPos; p <= endPos; p++ {
			pred := float64(s.startPos) + s.slope*float64(idx.ks.At(p)-s.startKey)
			if d := math.Abs(pred - float64(p)); d > worst {
				worst = d
			}
		}
	}
	return worst
}
