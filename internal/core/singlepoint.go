// Package core implements the paper's primary contribution: poisoning
// attacks against linear regression models trained on CDFs, and their
// extension to the two-stage recursive model index (RMI).
//
// Contents:
//
//   - OptimalSinglePoint — Section IV-C: the O(n) optimal single-key attack,
//     exploiting the convexity of the loss sequence on each gap (Theorem 2)
//     to test only gap endpoints, each in O(1).
//   - BruteForceSinglePoint — the paper's "first attempt" oracle, used to
//     validate optimality and as the ablation baseline.
//   - GreedyMultiPoint — Algorithm 1: repeated locally-optimal insertion.
//   - LossSequence / DiscreteDerivative — the Figure 3 instrumentation.
//   - RMIAttack — Algorithm 2: greedy volume allocation across second-stage
//     models with per-model thresholds (in rmiattack.go).
package core

import (
	"errors"
	"fmt"
	"math"

	"cdfpoison/internal/engine"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/regression"
)

// ErrNoGap is returned when the key set has no unoccupied interior key, so
// no in-range poisoning key exists (the paper's feasibility constraint).
var ErrNoGap = errors.New("core: key set is saturated; no in-range poisoning key exists")

// ErrTooFew is returned when the key set is too small to attack (< 2 keys).
var ErrTooFew = errors.New("core: need at least two keys to poison a regression")

// SinglePointResult describes the outcome of a single-key attack.
type SinglePointResult struct {
	Key          int64   // the chosen poisoning key
	Rank         int     // 1-based rank the key takes upon insertion
	CleanLoss    float64 // MSE of the optimal regression before poisoning
	PoisonedLoss float64 // MSE of the optimal regression after poisoning
	Candidates   int     // number of candidate locations evaluated
	// Pruned-scan accounting (DESIGN.md §11): of BlocksTotal 16-gap leaf
	// blocks, BlocksVisited had their endpoints evaluated; the rest were
	// excluded by closed-form loss bounds, on the leaf itself or on a wider
	// block around it. Both stay zero when the full scan ran (small
	// sets, WithExhaustiveScan, BruteForceSinglePoint). The visited set is
	// deterministic — identical for every worker count.
	BlocksVisited int
	BlocksTotal   int
}

// RatioLoss returns PoisonedLoss/CleanLoss, the paper's evaluation metric.
// A zero clean loss with positive poisoned loss yields +Inf.
func (r SinglePointResult) RatioLoss() float64 { return SafeRatio(r.PoisonedLoss, r.CleanLoss) }

// SafeRatio returns poisoned/clean with the convention 0/0 = 1, x/0 = +Inf.
// (A clean loss of exactly zero happens only on perfectly linear CDFs, e.g.
// runs of consecutive integers.)
func SafeRatio(poisoned, clean float64) float64 {
	if clean == 0 {
		if poisoned == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return poisoned / clean
}

// OptimalSinglePoint finds the in-range poisoning key that maximizes the MSE
// of the re-trained regression.
//
// By Theorem 2 the loss sequence restricted to one gap (a maximal run of
// unoccupied keys) is convex, so its maximum over the gap is attained at one
// of the two endpoints; at most 2(n−1) candidates exist, each evaluated in
// O(1) via regression.ClosedForm. On sets of 64 gaps or more the pruned
// scan (pruned.go) excludes most gap blocks via closed-form loss bounds
// before any endpoint is touched, for the same — bit-identical — answer
// sublinearly in practice; WithExhaustiveScan forces the exhaustive O(n)
// endpoint sweep.
//
// Ties are broken toward the smaller key so results are deterministic, for
// any worker count (see WithWorkers).
func OptimalSinglePoint(ks keys.Set, opts ...Option) (SinglePointResult, error) {
	if ks.Len() < 2 {
		return SinglePointResult{}, ErrTooFew
	}
	pre, err := regression.NewPrefix(ks)
	if err != nil {
		return SinglePointResult{}, err
	}
	return newPrunedScan(pre).run(newExec(opts))
}

// candidateBest is one chunk's locally-best candidate. Reducing these in
// chunk order with a strict ">" comparison reproduces exactly the "first
// maximum in scan order" the sequential loop picks, because chunks cover
// contiguous, increasing index ranges.
type candidateBest struct {
	key        int64
	rank       int
	loss       float64
	candidates int
}

// foldBest reduces per-chunk bests into res in chunk order. The strict ">"
// preserves the sequential tie-break contract (first maximum in scan order);
// both single-point attacks must fold through here so the contract lives in
// one place.
func foldBest(chunks []candidateBest, res *SinglePointResult) {
	for _, b := range chunks {
		res.Candidates += b.candidates
		if b.candidates > 0 && b.loss > res.PoisonedLoss {
			res.Key, res.Rank, res.PoisonedLoss = b.key, b.rank, b.loss
		}
	}
}

// endpointGrainFloor keeps chunks of the O(1)-per-candidate endpoint scan
// large enough that scheduling overhead stays negligible. The incremental
// kernel shrank per-candidate work to a few dozen float operations, so the
// floor sits well above GrainFor's sweep default.
const endpointGrainFloor = 1024

// endpointScan is the optimal single-point inner loop bound to one Prefix:
// the chunk callback (bound once by prunedScan.bind) and the chunk-result
// buffer are allocated once per attack, not once per step, so the greedy
// loop — which runs one scan per inserted key — reaches a zero-allocation
// steady state. Each step refreshes the Prefix's (possibly mutable) key
// view and its ClosedForm snapshot, so the same scan instance stays valid
// across kernel Inserts.
type endpointScan struct {
	pre *regression.Prefix
	ks  keys.Set              // view refreshed by refresh(); read-only during a scan
	cf  regression.ClosedForm // this step's snapshot; read-only during a scan
	buf []candidateBest
	fn  func(clo, chi int) (candidateBest, error)
}

// refresh re-reads the key view and derives this step's ClosedForm.
func (s *endpointScan) refresh() {
	s.ks = s.pre.Set()
	s.cf = s.pre.ClosedForm()
}

// chunk scans neighbour pairs [clo, chi) and reduces them locally; chunk
// results fold in index order (foldBest), preserving the sequential
// tie-break contract. The rank-shift term is looked up once and then
// carried: each gap passed subtracts its upper key.
func (s *endpointScan) chunk(clo, chi int) (candidateBest, error) {
	ks := s.ks
	origin := ks.Min()
	suf := s.pre.Suffix(clo + 1)
	b := candidateBest{loss: -1}
	for i := clo; i < chi; i++ {
		next := ks.At(i + 1)
		lo, hi := ks.At(i)+1, next-1
		pos := i + 1 // keys strictly smaller than any key in this gap
		if lo <= hi {
			if l := s.cf.Loss(lo, pos, suf); l > b.loss {
				b.key, b.rank, b.loss = lo, pos+1, l
			}
			b.candidates++
			if hi != lo {
				if l := s.cf.Loss(hi, pos, suf); l > b.loss {
					b.key, b.rank, b.loss = hi, pos+1, l
				}
				b.candidates++
			}
		}
		suf -= next - origin
	}
	return b, nil
}

// run executes one chunked endpoint scan across the exec's worker pool.
func (s *endpointScan) run(ex exec) (SinglePointResult, error) {
	s.refresh()
	res := SinglePointResult{CleanLoss: s.pre.CleanLoss(), PoisonedLoss: -1}
	grain := engine.GrainForMin(s.ks.Len()-1, ex.pool, endpointGrainFloor)
	chunks, err := engine.MapChunksInto(ex.ctx, ex.pool, s.ks.Len()-1, grain, s.buf, s.fn)
	s.buf = chunks
	if err != nil {
		return SinglePointResult{}, err
	}
	foldBest(chunks, &res)
	if res.PoisonedLoss < 0 {
		return SinglePointResult{}, ErrNoGap
	}
	return res, nil
}

// BruteForceSinglePoint evaluates EVERY unoccupied interior key — the
// paper's "first attempt". With the O(1) per-candidate evaluation this is
// O(m + n) rather than the naive O(m·n), but it still touches the whole key
// domain; it exists as the correctness oracle for OptimalSinglePoint and as
// the measured baseline of the endpoint-enumeration ablation.
func BruteForceSinglePoint(ks keys.Set, opts ...Option) (SinglePointResult, error) {
	if ks.Len() < 2 {
		return SinglePointResult{}, ErrTooFew
	}
	pre, err := regression.NewPrefix(ks)
	if err != nil {
		return SinglePointResult{}, err
	}
	ex := newExec(opts)
	origin := ks.Min()
	res := SinglePointResult{CleanLoss: pre.CleanLoss(), PoisonedLoss: -1}
	// Chunk over neighbour pairs; per-pair cost is the gap width, so chunks
	// stay small (GrainFor) to let the pool balance wide gaps dynamically.
	// Each chunk derives its own O(1) ClosedForm, which stays on its stack.
	chunks, err := engine.MapChunks(ex.ctx, ex.pool, ks.Len()-1, engine.GrainFor(ks.Len()-1, ex.pool),
		func(clo, chi int) (candidateBest, error) {
			b := candidateBest{loss: -1}
			cf, suf := pre.ClosedForm(), pre.Suffix(clo+1)
			for i := clo; i < chi; i++ {
				pos := i + 1
				for k := ks.At(i) + 1; k < ks.At(i+1); k++ {
					if l := cf.Loss(k, pos, suf); l > b.loss {
						b.key, b.rank, b.loss = k, pos+1, l
					}
					b.candidates++
				}
				suf -= ks.At(i+1) - origin
			}
			return b, nil
		})
	if err != nil {
		return SinglePointResult{}, err
	}
	foldBest(chunks, &res)
	if res.PoisonedLoss < 0 {
		return SinglePointResult{}, ErrNoGap
	}
	return res, nil
}

// GreedyResult describes a multi-point attack (Algorithm 1).
type GreedyResult struct {
	Poison     []int64   // poisoning keys in insertion order
	Poisoned   keys.Set  // K ∪ P
	CleanLoss  float64   // MSE before any poisoning
	Trajectory []float64 // MSE after the 1st, 2nd, … insertion
	Truncated  bool      // true if the domain saturated before p keys fit
	// Stopped is true when the attack ended early because even the optimal
	// next insertion would have DECREASED the loss. The paper's pseudocode
	// inserts exactly p keys, but Definition 2 only constrains |P| <= λ; on
	// dense, strongly non-linear CDFs (e.g. 80%-density normal keys) every
	// feasible insertion straightens the CDF, so a rational attacker keeps
	// the smaller poison set. Stopping at the first harmful step makes the
	// trajectory non-decreasing and guarantees RatioLoss() >= 1.
	Stopped bool
	// Scan accounting, summed over all steps (DESIGN.md §11): Candidates
	// endpoint evaluations were spent in total; of BlocksTotal 16-gap leaf
	// blocks considered across the steps, BlocksVisited were actually
	// scanned.
	// The block counters stay zero when every step ran the full scan
	// (small sets or WithExhaustiveScan) — block accounting exists only
	// under pruning, while Candidates accumulates either way.
	Candidates    int
	BlocksVisited int
	BlocksTotal   int
}

// FinalLoss returns the MSE after the last insertion (CleanLoss when no key
// could be inserted).
func (g GreedyResult) FinalLoss() float64 {
	if len(g.Trajectory) == 0 {
		return g.CleanLoss
	}
	return g.Trajectory[len(g.Trajectory)-1]
}

// RatioLoss returns FinalLoss/CleanLoss, the paper's evaluation metric.
func (g GreedyResult) RatioLoss() float64 { return SafeRatio(g.FinalLoss(), g.CleanLoss) }

// GreedyMultiPoint implements Algorithm 1: insert p poisoning keys, each
// chosen by the optimal single-point attack against the current augmented
// set. Each step runs the pruned scan (sublinear in practice, O(n) worst
// case; DESIGN.md §11), so the whole attack costs O(p·n) worst case and far
// less on real key sets. If the key domain saturates early the result is
// truncated rather than failing: the attacker simply has nowhere left to
// inject, which the RMI volume allocator must be able to observe.
//
// This is the repository's hottest loop, and it runs on the incremental
// attack kernel: the key set and the regression moments live in mutable,
// capacity-reserved storage (keys.MutableSet + regression.Prefix.Reset)
// and absorb each chosen key in place, so a greedy step costs one candidate
// scan, one key memmove and one pass over the n/16 stored suffix sums — no
// per-step set copy, no O(n) prefix rebuild, and zero allocations after
// setup. The kernel's exact integer moments guarantee every chosen key,
// loss, and trajectory entry is bit-identical to rebuilding the prefix
// state from scratch each step (see DESIGN.md §2, "Incremental kernel
// invariants"; where the pre-kernel float64 accumulators had already lost
// exactness — sums beyond 2⁵³ — values can differ from THAT implementation
// in final ulps, in the exact arithmetic's favor).
//
// The per-step candidate scan parallelizes across WithWorkers(n) workers;
// the chosen keys, trajectory, and all losses are identical for every
// worker count (index-ordered reduction — see internal/engine).
func GreedyMultiPoint(ks keys.Set, p int, opts ...Option) (GreedyResult, error) {
	w := newGreedyWS()
	res, err := w.run(ks, p, newExec(opts))
	if err != nil {
		return GreedyResult{}, err
	}
	res.Poisoned = ks
	if len(res.Poison) > 0 {
		// The workspace dies with this call, so its key buffer is
		// Poisoned's own: no copy.
		res.Poisoned = w.mut.View()
	}
	return res, nil
}

// GreedyOracle adapts GreedyMultiPoint to the serving scenario's per-epoch
// poison oracle (serve.Oracle): the poison keys against the visible content.
func GreedyOracle(opts ...Option) func(visible keys.Set, budget int) ([]int64, error) {
	return func(visible keys.Set, budget int) ([]int64, error) {
		g, err := GreedyMultiPoint(visible, budget, opts...)
		if err != nil {
			return nil, err
		}
		return g.Poison, nil
	}
}

// greedyWS is one Algorithm 1 workspace: the key buffer, the incremental
// kernel over it, the pruned scan and the record of the chosen keys. run
// refills all of them in place, so a workspace reused across runs — as
// RMIAttack's pool workers reuse theirs across range runs — allocates only
// when a run outgrows every earlier one. A workspace serves one run at a
// time.
type greedyWS struct {
	mut    keys.MutableSet
	pre    regression.Prefix
	scan   prunedScan
	poison []int64   // keys inserted by the last run, in insertion order
	traj   []float64 // the loss after each of them
}

func newGreedyWS() *greedyWS {
	w := &greedyWS{}
	w.scan.bind(&w.pre)
	return w
}

// run executes Algorithm 1 on ks with budget p. The returned Poison and
// Trajectory alias the workspace and stay valid only until its next run;
// Poisoned is left unset.
func (w *greedyWS) run(ks keys.Set, p int, ex exec) (GreedyResult, error) {
	if p < 0 {
		return GreedyResult{}, fmt.Errorf("core: negative poison budget %d", p)
	}
	if ks.Len() < 2 {
		return GreedyResult{}, ErrTooFew
	}
	// Reserve for at most n poison keys, a 100% budget. A larger budget can
	// exceed the free slots by far, so it must not be allocated up front;
	// past the reserve the kernel grows by append.
	reserve := min(p, ks.Len())
	w.mut.Reset(ks, reserve)
	if err := w.pre.Reset(&w.mut); err != nil {
		return GreedyResult{}, err
	}
	w.poison, w.traj = w.poison[:0], w.traj[:0]
	res := GreedyResult{CleanLoss: w.pre.CleanLoss()}
	current := res.CleanLoss
	for j := 0; j < p; j++ {
		step, err := w.scan.run(ex)
		if errors.Is(err, ErrNoGap) {
			res.Truncated = true
			break
		}
		if err != nil {
			return GreedyResult{}, err
		}
		res.Candidates += step.Candidates
		res.BlocksVisited += step.BlocksVisited
		res.BlocksTotal += step.BlocksTotal
		if step.PoisonedLoss < current {
			res.Stopped = true
			break
		}
		current = step.PoisonedLoss
		if _, err := w.pre.Insert(step.Key); err != nil {
			return GreedyResult{}, fmt.Errorf("core: internal error inserting chosen poison key: %w", err)
		}
		if len(w.poison) == 0 && cap(w.poison) < reserve {
			w.poison = make([]int64, 0, reserve)
			w.traj = make([]float64, 0, reserve)
		}
		w.poison = append(w.poison, step.Key)
		w.traj = append(w.traj, step.PoisonedLoss)
	}
	if len(w.poison) > 0 {
		res.Poison, res.Trajectory = w.poison, w.traj
	}
	return res, nil
}
