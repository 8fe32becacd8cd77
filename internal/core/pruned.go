// The pruned endpoint scan: per greedy step, instead of evaluating every
// gap endpoint (Θ(n) candidates), bound the attainable poisoned loss of
// blocks of gaps with regression.ClosedForm.Bound and evaluate only the
// blocks whose bound beats the current best. The blocks form an implicit
// tree: 16-gap leaves, 128-gap blocks above them, and each further level
// prunedFanout times wider, added only while it keeps prunedMinBlocks
// blocks — so sets under about 65k gaps have exactly the two levels, and
// n=1e5 gets a third of 1,024-gap blocks. Every top-level block is
// bounded each step; a block's children are bounded only when a walk
// descends into it, at most once per step, so the bound work stays near
// the top level's size while the evaluated work shrinks to surviving
// leaves. The seed — the leaf with the best bound — is evaluated first to
// set the pruning threshold; it is found best-first, descending at every
// level into the best-bound child and then into any sibling whose bound
// exceeds the best leaf bound so far. A depth-first walk in gap order then
// keeps the leaves whose every enclosing block beats the threshold.
// Surviving leaves are evaluated by the UNCHANGED endpointScan.chunk and
// fold through foldBest in leaf order, so the chosen key, rank, and losses
// are bit-identical to the sequential full scan — same first-maximum
// tie-break, same float operation order within a gap (DESIGN.md §11,
// "Closed-form oracle & pruned scan"; the equivalence is pinned by
// differential and property tests in pruned_test.go).
//
// Determinism: the top-level sweep, the seed walk, and the threshold walk
// run on the calling goroutine and depend only on (moments, key set,
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

// prunedFanout is the number of blocks of one level inside a block of the
// next wider level. Every top-level block is bounded each step, so the
// widths set the bound work; a flat sweep over all leaves would cost n/16
// bounds per step, which is more than the evaluations it saves.
const prunedFanout = 8

// prunedMinBlocks is the fewest blocks a level above the 128-gap one must
// keep to be added. Wider blocks bound more loosely, so a top level of a
// handful of blocks would prune little and push the work down a level.
const prunedMinBlocks = 64

// prunedTaskLeaves is the fewest surviving leaves one pool task evaluates:
// the same gap count as the full scan's chunk floor, so a step whose
// survivors fit one task runs them inline instead of paying a hand-off.
const prunedTaskLeaves = endpointGrainFloor / prunedLeafGaps

// prunedMinGaps is the set size below which the plain full scan runs
// instead: with only a handful of leaves the bound sweep costs as much as
// scanning. The threshold depends only on n, never on the worker count, so
// the dispatch itself cannot break determinism.
const prunedMinGaps = 4 * prunedLeafGaps

// prunedScan wraps an endpointScan with the block-tree bound walks. Like
// endpointScan, every buffer lives on the struct so the greedy loop
// reaches a zero-allocation steady state; run() refreshes the key view and
// the ClosedForm snapshot from the (possibly mutated) Prefix each call.
type prunedScan struct {
	scan      endpointScan
	nGaps     int
	lv        []pruneLevel  // this step's levels, leaves first
	seedLeaf  int           // leaf evaluated first
	seedBest  candidateBest // its local best: the pruning threshold
	seedGap   int           // gap index of seedBest (tie-break anchor)
	bdBuf     []float64     // backing store of every level's bd
	openBuf   []bool        // backing store of every level's open
	survivors []int         // visited leaves, seed included, ascending
	evalBuf   []candidateBest
	survFn    func(clo, chi int) (candidateBest, error)
}

// pruneLevel is one level of the block tree within a step.
type pruneLevel struct {
	width int       // gaps per block
	bd    []float64 // per-block loss upper bounds, valid under an open parent
	open  []bool    // whether a block's children are bounded; nil at the leaves
}

func newPrunedScan(pre *regression.Prefix) *prunedScan {
	s := &prunedScan{}
	s.bind(pre)
	return s
}

// bind points s at pre and binds the chunk callbacks once; a per-step
// method value would allocate.
func (s *prunedScan) bind(pre *regression.Prefix) {
	s.scan.pre = pre
	s.scan.fn = s.scan.chunk
	s.survFn = s.survChunk
}

// span returns the gap range of block i when blocks are width gaps wide.
func (s *prunedScan) span(i, width int) (glo, ghi int) {
	glo = i * width
	return glo, min(glo+width, s.nGaps)
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

// layout sizes this step's block tree — the leaves, the 128-gap level,
// and each wider level that keeps prunedMinBlocks blocks — and carves
// every level's bounds and flags out of buffers kept across steps.
func (s *prunedScan) layout() {
	levels, nBd := 0, 0
	for w := prunedLeafGaps; levels < 2 || (s.nGaps+w-1)/w >= prunedMinBlocks; w *= prunedFanout {
		levels++
		nBd += (s.nGaps + w - 1) / w
	}
	nLeaves := (s.nGaps + prunedLeafGaps - 1) / prunedLeafGaps
	if cap(s.lv) < levels {
		s.lv = make([]pruneLevel, levels)
	}
	if len(s.bdBuf) < nBd || len(s.openBuf) < nBd-nLeaves || cap(s.survivors) < nLeaves {
		// Size the scratch buffers for twice the worst case (every leaf
		// survives) up front; the greedy loop grows the set one key per
		// step, so the block count crosses the capacity rarely and the
		// steady state stays allocation-free (DESIGN.md §2, "Allocation
		// budget"). The chunk results need only one entry per
		// prunedTaskLeaves survivors.
		s.bdBuf = make([]float64, 2*nBd)
		s.openBuf = make([]bool, 2*(nBd-nLeaves))
		s.survivors = make([]int, 0, 2*nLeaves)
		s.evalBuf = make([]candidateBest, 0, 2*nLeaves/prunedTaskLeaves+1)
	}
	s.lv = s.lv[:levels]
	bd, open := s.bdBuf, s.openBuf
	for k, w := 0, prunedLeafGaps; k < levels; k, w = k+1, w*prunedFanout {
		blocks := (s.nGaps + w - 1) / w
		s.lv[k] = pruneLevel{width: w, bd: bd[:blocks]}
		bd = bd[blocks:]
		if k > 0 {
			s.lv[k].open, open = open[:blocks], open[blocks:]
		}
	}
}

// children bounds the children of block b at level k >= 1 the first time a
// step asks — the seed walk and the threshold walk both need them — and
// returns their index range at level k−1.
func (s *prunedScan) children(k, b int) (c0, c1 int) {
	child := &s.lv[k-1]
	c0 = b * prunedFanout
	c1 = min(c0+prunedFanout, len(child.bd))
	if !s.lv[k].open[b] {
		s.lv[k].open[b] = true
		for c := c0; c < c1; c++ {
			child.bd[c] = s.bound(s.span(c, child.width))
			if child.open != nil {
				child.open[c] = false
			}
		}
	}
	return c0, c1
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

// seed offers the leaves under blocks [c0, c1) of level k, whose bounds
// are known, to leaf best-first: it descends into the best-bound block,
// then into each other block whose bound exceeds the best leaf bound so
// far. A leaf can beat that bound only if every block around it does. On
// large sets the bounds are tight and few blocks qualify; on small sets
// they are loose and most do, which costs little there. A loose pick
// cannot affect correctness — it only weakens the threshold, admitting
// more survivors.
func (s *prunedScan) seed(leaf *seedPick, k, c0, c1 int) {
	bd := s.lv[k].bd[c0:c1]
	if k == 0 {
		for i, b := range bd {
			leaf.offer(c0+i, b)
		}
		return
	}
	pick := newSeedPick()
	for i, b := range bd {
		pick.offer(i, b)
	}
	first := pick.choice() // −1 only when every block is saturated
	if first < 0 {
		return
	}
	s.seedUnder(leaf, k, c0+first)
	for i, b := range bd {
		if i != first && b > leaf.best {
			s.seedUnder(leaf, k, c0+i)
		}
	}
}

// seedUnder runs seed over the children of block b at level k.
func (s *prunedScan) seedUnder(leaf *seedPick, k, b int) {
	lo, hi := s.children(k, b)
	s.seed(leaf, k-1, lo, hi)
}

// beats reports whether a block with bound bd whose first gap is glo can
// hold the fold winner: its bound exceeds the seed's best, or ties it from
// an earlier gap, since the first-maximum tie-break keeps the earlier
// candidate, so an equal-loss candidate at a later gap can never win.
func (s *prunedScan) beats(bd float64, glo int) bool {
	t := s.seedBest.loss
	return bd > t || (bd == t && glo < s.seedGap)
}

// keep appends, in leaf order, the leaves under blocks [c0, c1) of level
// k that survive the threshold: it skips each block that fails beats with
// its whole subtree, keeping only the seed leaf if it lies inside.
func (s *prunedScan) keep(k, c0, c1 int) {
	l := &s.lv[k]
	leaves := l.width / prunedLeafGaps
	for c := c0; c < c1; c++ {
		switch {
		case !s.beats(l.bd[c], c*l.width):
			if s.seedLeaf/leaves == c {
				s.survivors = append(s.survivors, s.seedLeaf)
			}
		case k == 0:
			s.survivors = append(s.survivors, c)
		default:
			lo, hi := s.children(k, c)
			s.keep(k-1, lo, hi)
		}
	}
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

// run executes one pruned scan. Small sets and WithExhaustiveScan fall
// through to the plain sequential-equivalent full scan (BlocksVisited/
// BlocksTotal stay zero there: no pruning happened).
func (s *prunedScan) run(ex exec) (SinglePointResult, error) {
	sc := &s.scan
	s.nGaps = sc.pre.Set().Len() - 1
	if ex.exhaustiveScan || s.nGaps < prunedMinGaps {
		return sc.run(ex)
	}
	sc.refresh()
	s.layout()

	// Top-level sweep, then the seed: the best-bound leaf, found
	// best-first from the top.
	k := len(s.lv) - 1
	top := &s.lv[k]
	for b := range top.bd {
		top.bd[b] = s.bound(s.span(b, top.width))
		top.open[b] = false
	}
	leaf := newSeedPick()
	s.seed(&leaf, k, 0, len(top.bd))
	if s.seedLeaf = leaf.choice(); s.seedLeaf == -1 {
		return SinglePointResult{}, ErrNoGap // fully saturated key range
	}
	seed, err := sc.chunk(s.span(s.seedLeaf, prunedLeafGaps))
	if err != nil {
		return SinglePointResult{}, err
	}
	s.seedBest = seed
	s.seedGap = seed.rank - 2 // chunk sets rank = gap index + 2

	// Threshold walk: visited leaves, the seed among them, accumulate in
	// leaf order.
	s.survivors = s.survivors[:0]
	s.keep(k, 0, len(top.bd))

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
		BlocksTotal:   len(s.lv[0].bd),
	}
	foldBest(chunks, &res)
	if res.PoisonedLoss < 0 {
		return SinglePointResult{}, ErrNoGap
	}
	return res, nil
}
