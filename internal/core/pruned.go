// The pruned endpoint scan: per greedy step, instead of evaluating every
// gap endpoint (Θ(n) candidates), bound the attainable poisoned loss of
// blocks of gaps with regression.ClosedForm.Bound and evaluate only the
// blocks whose bound beats the current best. The bounds work on two
// levels. Coarse blocks of prunedCoarseLeaves·prunedLeafGaps gaps are all
// bounded first; 16-gap leaves are bounded only inside the coarse blocks
// that can matter, so the bound work stays near n/128 per step while the
// evaluated work shrinks to surviving leaves. The seed — the leaf with
// the best bound — is evaluated first to set the pruning threshold; it is
// found best-first, bounding the leaves of the best coarse block and then
// of any coarse block whose bound exceeds the best leaf bound so far.
// Surviving leaves are evaluated by the UNCHANGED endpointScan.chunk and
// fold through foldBest in leaf order, so the chosen key, rank, and losses
// are bit-identical to the sequential full scan — same first-maximum
// tie-break, same float operation order within a gap (DESIGN.md §11,
// "Closed-form oracle & pruned scan"; the equivalence is pinned by
// differential and property tests in pruned_test.go).
//
// Determinism: the bound sweeps, the seed selection, and the threshold
// pass run on the calling goroutine and depend only on (moments, key set,
// block sizes), so the visited-leaf set — and with it BlocksVisited and
// Candidates — is identical for every worker count. Only the survivor
// evaluation fans out across the pool, and its results fold in leaf order.

package core

import (
	"math"

	"cdfpoison/internal/engine"
	"cdfpoison/internal/regression"
)

// prunedLeafGaps is the number of gaps per leaf, the unit a survivor is
// evaluated in. Small enough that a surviving leaf costs only ~2× that
// many O(1) evaluations and that small sets (an RMI segment of a few
// hundred keys) still split into enough leaves to prune.
const prunedLeafGaps = 16

// prunedCoarseLeaves is the number of leaves per coarse block. Every
// coarse block is bounded each step, so its width sets the bound work
// (~n/128 bounds); a finer sweep over all leaves would cost n/16 bounds
// per step, which is more than the evaluations it saves.
const prunedCoarseLeaves = 8

// prunedTaskLeaves is the fewest surviving leaves one pool task evaluates:
// the same gap count as the full scan's chunk floor, so a step whose
// survivors fit one task runs them inline instead of paying a hand-off.
const prunedTaskLeaves = endpointGrainFloor / prunedLeafGaps

// prunedMinGaps is the set size below which the plain full scan runs
// instead: with only a handful of leaves the bound sweep costs as much as
// scanning. The threshold depends only on n, never on the worker count, so
// the dispatch itself cannot break determinism.
const prunedMinGaps = 4 * prunedLeafGaps

// prunedScan wraps an endpointScan with the two-level bound sweep. Like
// endpointScan, every buffer lives on the struct so the greedy loop
// reaches a zero-allocation steady state; run() refreshes the key view and
// the ClosedForm snapshot from the (possibly mutated) Prefix each call.
type prunedScan struct {
	scan      *endpointScan
	nGaps     int
	nLeaves   int
	seedLeaf  int           // leaf evaluated first
	seedBest  candidateBest // its local best: the pruning threshold
	seedGap   int           // gap index of seedBest (tie-break anchor)
	coarse    []coarseBlock
	leafBd    []float64 // per-leaf loss upper bounds, valid where expanded
	survivors []int     // visited leaves, seed included, ascending
	evalBuf   []candidateBest
	survFn    func(clo, chi int) (candidateBest, error)
}

// coarseBlock is one coarse block's state within a step.
type coarseBlock struct {
	bound    float64 // loss upper bound over the block's candidates
	expanded bool    // its leaves' bounds are in leafBd
}

func newPrunedScan(pre *regression.Prefix) *prunedScan {
	s := &prunedScan{scan: newEndpointScan(pre)}
	s.survFn = s.survChunk // bind once; a per-step method value would allocate
	return s
}

// span returns the gap range of block i when blocks are width gaps wide.
func (s *prunedScan) span(i, width int) (glo, ghi int) {
	glo = i * width
	return glo, min(glo+width, s.nGaps)
}

// leaves returns the leaf range of coarse block c.
func (s *prunedScan) leaves(c int) (l0, l1 int) {
	l0 = c * prunedCoarseLeaves
	return l0, min(l0+prunedCoarseLeaves, s.nLeaves)
}

// expand returns the leaf bounds of coarse block c, computing them on the
// first call of the step: the seed search and the threshold pass both
// need them.
func (s *prunedScan) expand(c int) []float64 {
	l0, l1 := s.leaves(c)
	if !s.coarse[c].expanded {
		s.coarse[c].expanded = true
		for l := l0; l < l1; l++ {
			s.leafBd[l] = s.bound(s.span(l, prunedLeafGaps))
		}
	}
	return s.leafBd[l0:l1]
}

// bound bounds the losses of every candidate in gaps [glo, ghi); a
// saturated range (every interior slot occupied) holds no candidate and
// gets −Inf.
func (s *prunedScan) bound(glo, ghi int) float64 {
	ks := s.scan.ks
	kA, kB := ks.At(glo), ks.At(ghi)
	if kB-kA == int64(ghi-glo) {
		return math.Inf(-1)
	}
	return s.scan.cf.Bound(glo, ghi, kA+1, kB-1)
}

// seedPick chooses the seed among the blocks offered, in any order: the
// largest FINITE bound (the lowest index among equal bounds), else the
// lowest-index +Inf one, never a saturated (−Inf) one. +Inf means "this
// bound is not informative", and seeding from one would anchor the
// threshold to an arbitrary block's best.
type seedPick struct {
	finite, open int // best finite block, lowest-index +Inf block; −1 if none
	best         float64
}

func newSeedPick() seedPick { return seedPick{finite: -1, open: -1, best: math.Inf(-1)} }

func (p *seedPick) offer(i int, bd float64) {
	switch {
	case math.IsInf(bd, 1):
		if p.open < 0 || i < p.open {
			p.open = i
		}
	case bd > p.best || bd == p.best && p.finite >= 0 && i < p.finite:
		p.finite, p.best = i, bd
	}
}

// choice returns the picked block, or −1 when every block was saturated.
func (p *seedPick) choice() int {
	if p.finite >= 0 {
		return p.finite
	}
	return p.open
}

// offerLeaves offers every leaf of coarse block c to p.
func (s *prunedScan) offerLeaves(p *seedPick, c int) {
	for i, bd := range s.expand(c) {
		p.offer(c*prunedCoarseLeaves+i, bd)
	}
}

// beats reports whether a block with bound bd whose first gap is glo can
// hold the fold winner: its bound exceeds the seed's best, or ties it from
// an earlier gap, since the first-maximum tie-break keeps the earlier
// candidate, so an equal-loss candidate at a later gap can never win.
func (s *prunedScan) beats(bd float64, glo int) bool {
	t := s.seedBest.loss
	return bd > t || (bd == t && glo < s.seedGap)
}

// survChunk evaluates visited leaves [clo, chi) through the unchanged
// endpoint chunk (the seed leaf's result is reused) and reduces them
// locally in leaf order, mirroring endpointScan.chunk's contract so any
// chunking folds identically.
func (s *prunedScan) survChunk(clo, chi int) (candidateBest, error) {
	out := candidateBest{loss: -1}
	for _, leaf := range s.survivors[clo:chi] {
		b := s.seedBest
		if leaf != s.seedLeaf {
			var err error
			if b, err = s.scan.chunk(s.span(leaf, prunedLeafGaps)); err != nil {
				return out, err
			}
		}
		out.candidates += b.candidates
		if b.candidates > 0 && b.loss > out.loss {
			out.key, out.rank, out.loss = b.key, b.rank, b.loss
		}
	}
	return out, nil
}

// run executes one pruned scan. Small sets and WithFullScan fall through to
// the plain sequential-equivalent full scan (BlocksVisited/BlocksTotal stay
// zero there: no pruning happened).
func (s *prunedScan) run(ex exec) (SinglePointResult, error) {
	sc := s.scan
	s.nGaps = sc.pre.Set().Len() - 1
	if ex.fullScan || s.nGaps < prunedMinGaps {
		return sc.run(ex)
	}
	sc.refresh()
	const coarseGaps = prunedCoarseLeaves * prunedLeafGaps
	nLeaves := (s.nGaps + prunedLeafGaps - 1) / prunedLeafGaps
	nCoarse := (nLeaves + prunedCoarseLeaves - 1) / prunedCoarseLeaves
	s.nLeaves = nLeaves
	if len(s.leafBd) < nLeaves {
		// Size the scratch buffers for twice the worst case (every leaf
		// survives) up front; the greedy loop grows the set one key per
		// step, so the block count crosses the capacity rarely and the
		// steady state stays allocation-free (DESIGN.md §2, "Allocation
		// budget"). The chunk results need only one entry per
		// prunedTaskLeaves survivors.
		s.coarse = make([]coarseBlock, 2*nCoarse)
		s.leafBd = make([]float64, 2*nLeaves)
		s.survivors = make([]int, 0, 2*nLeaves)
		s.evalBuf = make([]candidateBest, 0, 2*nLeaves/prunedTaskLeaves+1)
	}

	// Coarse sweep, then the seed: the best-bound leaf, found best-first.
	// Start from the leaves of the best-bound coarse block; a leaf elsewhere
	// can beat the best leaf bound so far only if its coarse block's bound
	// does, so only those blocks are bounded leaf by leaf. On large sets
	// the coarse bounds are tight and few blocks qualify; on small sets
	// they are loose and most do, which costs little there. A loose pick
	// cannot affect correctness — it only weakens the threshold, admitting
	// more survivors.
	coarsePick := newSeedPick()
	for c := 0; c < nCoarse; c++ {
		s.coarse[c] = coarseBlock{bound: s.bound(s.span(c, coarseGaps))}
		coarsePick.offer(c, s.coarse[c].bound)
	}
	seedCoarse := coarsePick.choice()
	if seedCoarse == -1 {
		return SinglePointResult{}, ErrNoGap // fully saturated key range
	}
	leafPick := newSeedPick()
	s.offerLeaves(&leafPick, seedCoarse)
	for c := 0; c < nCoarse; c++ {
		if c != seedCoarse && s.coarse[c].bound > leafPick.best {
			s.offerLeaves(&leafPick, c)
		}
	}
	s.seedLeaf = leafPick.choice() // an unsaturated block has an unsaturated leaf
	glo, ghi := s.span(s.seedLeaf, prunedLeafGaps)
	seed, err := sc.chunk(glo, ghi)
	if err != nil {
		return SinglePointResult{}, err
	}
	s.seedBest = seed
	s.seedGap = seed.rank - 2 // chunk sets rank = gap index + 2

	// Threshold pass: descend into each coarse block that beats the seed
	// and keep its leaves that do too. Visited leaves, the seed among them,
	// accumulate in leaf order.
	s.survivors = s.survivors[:0]
	for c := 0; c < nCoarse; c++ {
		if !s.beats(s.coarse[c].bound, c*coarseGaps) {
			if c == s.seedLeaf/prunedCoarseLeaves {
				s.survivors = append(s.survivors, s.seedLeaf)
			}
			continue
		}
		for i, bd := range s.expand(c) {
			if l := c*prunedCoarseLeaves + i; l == s.seedLeaf || s.beats(bd, l*prunedLeafGaps) {
				s.survivors = append(s.survivors, l)
			}
		}
	}

	// Evaluate the visited leaves across the pool; the chunk results come
	// back in leaf order, and foldBest reproduces the sequential scan's
	// first-maximum tie-break over the visited subset.
	grain := engine.GrainForMin(len(s.survivors), ex.pool, prunedTaskLeaves)
	chunks, err := engine.MapChunksInto(ex.ctx, ex.pool, len(s.survivors), grain, s.evalBuf, s.survFn)
	s.evalBuf = chunks
	if err != nil {
		return SinglePointResult{}, err
	}
	res := SinglePointResult{
		CleanLoss:     sc.pre.CleanLoss(),
		PoisonedLoss:  -1,
		BlocksVisited: len(s.survivors),
		BlocksTotal:   nLeaves,
	}
	foldBest(chunks, &res)
	if res.PoisonedLoss < 0 {
		return SinglePointResult{}, ErrNoGap
	}
	return res, nil
}
