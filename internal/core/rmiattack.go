package core

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"cdfpoison/internal/engine"
	"cdfpoison/internal/keys"
)

// exchangeEpsilon is Algorithm 2's termination bound: the greedy exchange
// loop stops when the best available move improves the summed
// second-stage loss by less than this.
const exchangeEpsilon = 1e-9

// RMIAttackOptions parameterizes Algorithm 2 (GreedyPoisoningRMI).
type RMIAttackOptions struct {
	// NumModels is the number N of second-stage models (the RMI fanout).
	NumModels int
	// Percent is the overall poisoning percentage φ·100 relative to the
	// number of legitimate keys; the paper evaluates 1–20%.
	Percent float64
	// Alpha is the per-model threshold multiplier: each model may receive at
	// most t = ceil(Alpha·φ·n/N) poisoning keys (Section V, "Poisoning
	// Threshold per Regression Model"). Alpha <= 0 disables the cap
	// (used by the ablation).
	Alpha float64
	// MaxMoves bounds the number of greedy exchanges; 0 means the default
	// 8·N. Exchanges also stop when no move clears exchangeEpsilon.
	MaxMoves int
	// DisableExchanges skips the exchange phase entirely, leaving the
	// uniform "natural first attempt" allocation — the volume-allocation
	// ablation baseline.
	DisableExchanges bool
}

func (o RMIAttackOptions) validate(n int) error {
	if o.NumModels < 1 {
		return fmt.Errorf("core: RMI attack needs NumModels >= 1, got %d", o.NumModels)
	}
	if o.NumModels > n {
		return fmt.Errorf("core: NumModels %d exceeds key count %d", o.NumModels, n)
	}
	if o.Percent <= 0 || o.Percent > 100 {
		return fmt.Errorf("core: poisoning percent must be in (0, 100], got %v", o.Percent)
	}
	return o.validateAlpha()
}

// validateAlpha rejects a NaN Alpha, which no cap comparison would catch.
// The online scenario calls it up front, since its epochs run Algorithm 2
// only when their budget rounds to at least one key.
func (o RMIAttackOptions) validateAlpha() error {
	if math.IsNaN(o.Alpha) {
		return fmt.Errorf("core: RMI attack Alpha must be a number, got %v", o.Alpha)
	}
	return nil
}

// ModelReport describes one second-stage model after the attack.
type ModelReport struct {
	Index        int     // model position in the second stage
	LegitKeys    int     // legitimate keys assigned after boundary moves
	Budget       int     // poisoning keys allocated by volume allocation
	Injected     int     // poisoning keys actually inserted (≤ Budget)
	CleanLoss    float64 // MSE of the model trained on its legit keys only
	PoisonedLoss float64 // MSE of the model trained on legit ∪ poison
	RatioLoss    float64 // PoisonedLoss / CleanLoss (SafeRatio convention)
	Poison       []int64 // injected keys, in insertion order
}

// RMIAttackResult is the outcome of Algorithm 2.
type RMIAttackResult struct {
	Models []ModelReport
	// Poison is the union of all injected keys.
	Poison keys.Set
	// CleanRMILoss is L_RMI of the unpoisoned index: the mean second-stage
	// loss over the ORIGINAL equal-size partitioning of K (the baseline the
	// paper's black horizontal line divides by).
	CleanRMILoss float64
	// PoisonedRMILoss is the mean second-stage loss after the attack.
	PoisonedRMILoss float64
	// Budget and Injected are the requested (φ·n) and achieved totals.
	Budget, Injected int
	// Moves counts applied greedy exchanges; Threshold is t, capped at
	// Budget (0 when Alpha disables the cap).
	Moves, Threshold int
}

// RMIRatio returns PoisonedRMILoss/CleanRMILoss, the paper's headline metric
// for the two-stage attack (up to 300× on synthetic log-normal data).
func (r RMIAttackResult) RMIRatio() float64 { return SafeRatio(r.PoisonedRMILoss, r.CleanRMILoss) }

// PerModelRatios returns the ratio losses of all models that admit a finite
// ratio, the series summarized by the paper's boxplots.
func (r RMIAttackResult) PerModelRatios() []float64 {
	out := make([]float64, 0, len(r.Models))
	for _, m := range r.Models {
		if !math.IsInf(m.RatioLoss, 0) && !math.IsNaN(m.RatioLoss) {
			out = append(out, m.RatioLoss)
		}
	}
	return out
}

// memoKey identifies a (key range, budget) attack evaluation. Boundary
// moves shift ranges by single keys, so the exchange loop re-queries the
// same triples constantly; memoization turns that into cache hits.
type memoKey struct {
	lo, hi, budget int
}

// memoShardCount shards the range-attack memo so Algorithm 2's parallel
// per-segment phases stop serializing on a single map mutex at high worker
// counts: adjacent segments hash to independent locks, and the exchange
// loop's constant re-queries of hot triples contend only within a shard.
// 64 shards keep the fixed cost trivial while exceeding any realistic
// worker count. Power of two so the hash folds with a mask.
const memoShardCount = 64

// rangeMemo is the sharded (lo, hi, budget) → poisoned-loss cache.
// Values are deterministic, so two workers racing to evaluate the same
// triple store identical bytes and the race is harmless; the shards exist
// purely to cut lock contention (BenchmarkRangeMemoContention measures it).
type rangeMemo struct {
	shards [memoShardCount]struct {
		mu sync.Mutex
		m  map[memoKey]float64
	}
}

func newRangeMemo(sizeHint int) *rangeMemo {
	rm := &rangeMemo{}
	per := sizeHint/memoShardCount + 1
	for i := range rm.shards {
		rm.shards[i].m = make(map[memoKey]float64, per)
	}
	return rm
}

// shard mixes the triple with splitmix64 constants; quality matters only
// enough to spread adjacent (lo, hi) ranges across shards.
func (k memoKey) shard() uint64 {
	h := uint64(k.lo)*0x9e3779b97f4a7c15 ^ uint64(k.hi)*0xbf58476d1ce4e5b9 ^ uint64(k.budget)*0x94d049bb133111eb
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h & (memoShardCount - 1)
}

func (rm *rangeMemo) get(k memoKey) (float64, bool) {
	s := &rm.shards[k.shard()]
	s.mu.Lock()
	v, ok := s.m[k]
	s.mu.Unlock()
	return v, ok
}

func (rm *rangeMemo) put(k memoKey, v float64) {
	s := &rm.shards[k.shard()]
	s.mu.Lock()
	s.m[k] = v
	s.mu.Unlock()
}

// rmiAttackState carries Algorithm 2's mutable state.
type rmiAttackState struct {
	ks     keys.Set
	bounds []int // model i owns sorted positions [bounds[i], bounds[i+1])
	budget []int
	loss   []float64 // current poisoned loss per model
	thresh int
	ex     exec
	inner  exec // the range runs': sequential, under ex's context

	memo *rangeMemo
	// ws holds one greedy workspace per pool worker for the whole call; a
	// range run takes one and puts it back. A slot starts nil and gets its
	// workspace on first use. No Map phase runs more tasks at once than the
	// pool has workers, and a task holds one workspace at a time, so a
	// take never waits.
	ws chan *greedyWS
}

// take returns one of the call's workspaces; put it back with st.ws <- w.
func (st *rmiAttackState) take() *greedyWS {
	if w := <-st.ws; w != nil {
		return w
	}
	return newGreedyWS()
}

// evalRange runs the greedy attack (Algorithm 1) on the key range
// [lo, hi) with the given budget, memoized. Degenerate ranges (< 2 keys)
// evaluate to zero loss and zero injections.
//
// Safe for concurrent use: the memo is shard-locked and the greedy attack
// itself runs outside any lock. Two workers may race to evaluate the same
// triple, but the greedy attack is deterministic, so both compute the same
// value and the double store is harmless.
//
// The attack context is threaded into the inner greedy attack so a
// cancellation aborts mid-segment rather than after the full O(p·n) run;
// the poisoned value is NOT memoized in that case, and the surrounding
// engine.Map surfaces ctx.Err() at its next task boundary, discarding it.
func (st *rmiAttackState) evalRange(lo, hi, budget int) float64 {
	k := memoKey{lo, hi, budget}
	if v, ok := st.memo.get(k); ok {
		return v
	}
	var v float64
	if hi-lo >= 2 {
		w := st.take()
		g, err := w.run(st.ks.Slice(lo, hi), budget, st.inner)
		v = g.FinalLoss()
		st.ws <- w
		if err != nil {
			// Cancelled mid-attack (ErrTooFew is excluded by the guard
			// above): return a zero value without memoizing it.
			return 0
		}
	}
	st.memo.put(k, v)
	return v
}

// exchange describes one candidate CHANGELOSS entry: moving a poisoning-key
// slot across the boundary between models i and i+1, paired with the reverse
// move of one boundary legitimate key, keeping every model's total size
// fixed (Section V-A).
type exchange struct {
	valid  bool
	delta  float64 // change in Σ second-stage losses if applied
	li, lj float64 // hypothetical new losses of models i and i+1
}

// computeForward evaluates the i → i+1 exchange: model i+1 gains a poison
// slot and loses its smallest legitimate key to model i; model i loses a
// poison slot.
func (st *rmiAttackState) computeForward(i int) exchange {
	if st.budget[i] < 1 {
		return exchange{}
	}
	if st.thresh > 0 && st.budget[i+1]+1 > st.thresh {
		return exchange{}
	}
	// Model i+1 must retain at least 2 legitimate keys to stay a regression.
	if st.bounds[i+2]-(st.bounds[i+1]+1) < 2 {
		return exchange{}
	}
	li := st.evalRange(st.bounds[i], st.bounds[i+1]+1, st.budget[i]-1)
	lj := st.evalRange(st.bounds[i+1]+1, st.bounds[i+2], st.budget[i+1]+1)
	return exchange{
		valid: true,
		delta: (li + lj) - (st.loss[i] + st.loss[i+1]),
		li:    li,
		lj:    lj,
	}
}

// computeBackward evaluates the i ← i+1 exchange: model i gains a poison
// slot and its largest legitimate key migrates to model i+1; model i+1 loses
// a poison slot.
func (st *rmiAttackState) computeBackward(i int) exchange {
	if st.budget[i+1] < 1 {
		return exchange{}
	}
	if st.thresh > 0 && st.budget[i]+1 > st.thresh {
		return exchange{}
	}
	if (st.bounds[i+1]-1)-st.bounds[i] < 2 {
		return exchange{}
	}
	li := st.evalRange(st.bounds[i], st.bounds[i+1]-1, st.budget[i]+1)
	lj := st.evalRange(st.bounds[i+1]-1, st.bounds[i+2], st.budget[i+1]-1)
	return exchange{
		valid: true,
		delta: (li + lj) - (st.loss[i] + st.loss[i+1]),
		li:    li,
		lj:    lj,
	}
}

// RMIAttack implements Algorithm 2 (GreedyPoisoningRMI): poison the
// second-stage linear regression models of a two-stage RMI built over ks.
//
// Phases:
//  1. Partition K into N equal contiguous chunks (the designer's
//     initialization step) and give each model φ·n/N poisoning keys,
//     injected by Algorithm 1 ("Initial Volume Allocation").
//  2. Populate the CHANGELOSS table for every adjacent-model exchange in
//     both directions.
//  3. Greedily apply the exchange with the largest positive loss change,
//     subject to the per-model threshold t = ceil(α·φ·n/N); after each move
//     only the ≤6 entries referencing the touched models are recomputed.
//  4. Stop when the best move improves by less than ε or MaxMoves is hit.
//
// The returned result contains per-model reports, the union of poisoning
// keys, and the RMI-level loss ratio.
//
// Per-segment work — the clean baseline, the initial volume allocation, the
// CHANGELOSS table, the post-move recomputes, and the final materialization
// — fans out across WithWorkers(n) workers. Results are reduced in model
// index order, so the outcome is identical for every worker count.
func RMIAttack(ks keys.Set, opts RMIAttackOptions, execOpts ...Option) (RMIAttackResult, error) {
	n := ks.Len()
	if err := opts.validate(n); err != nil {
		return RMIAttackResult{}, err
	}
	N := opts.NumModels
	total := int(math.Round(opts.Percent / 100 * float64(n)))
	if total < 1 {
		return RMIAttackResult{}, fmt.Errorf("core: poisoning budget rounds to zero (n=%d, percent=%v)", n, opts.Percent)
	}
	maxMoves := opts.MaxMoves
	if maxMoves == 0 {
		maxMoves = 8 * N
	}

	ex := newExec(execOpts)
	st := &rmiAttackState{
		ks:     ks,
		bounds: make([]int, N+1),
		budget: make([]int, N),
		loss:   make([]float64, N),
		memo:   newRangeMemo(4 * N),
		ex:     ex,
		inner:  newExec([]Option{WithContext(ex.ctx)}),
		ws:     make(chan *greedyWS, min(ex.pool.Workers(), N)),
	}
	for range cap(st.ws) {
		st.ws <- nil
	}

	// Equal-size contiguous partitioning, first n%N chunks one key larger
	// (matching keys.Set.Partition).
	base, extra := n/N, n%N
	for i := 0; i < N; i++ {
		size := base
		if i < extra {
			size++
		}
		st.bounds[i+1] = st.bounds[i] + size
	}

	// Uniform initial budget, remainder spread over the first models.
	bBase, bExtra := total/N, total%N
	for i := 0; i < N; i++ {
		st.budget[i] = bBase
		if i < bExtra {
			st.budget[i]++
		}
	}

	// Per-model threshold t = ceil(α·φ·n/N). The uniform share is φ·n/N, so
	// α=2,3 allow skewing up to 2–3× the even split. t is computed in
	// float64 and capped at the total budget, which no model can exceed, so
	// the cap never binds and a huge α cannot wrap the int conversion.
	if opts.Alpha > 0 {
		st.thresh = int(min(math.Ceil(opts.Alpha*float64(total)/float64(N)), float64(total)))
		if st.thresh < 1 {
			st.thresh = 1
		}
		// An initial remainder bump may not exceed t; clamp defensively and
		// return surplus to the largest-room models.
		surplus := 0
		for i := range st.budget {
			if st.budget[i] > st.thresh {
				surplus += st.budget[i] - st.thresh
				st.budget[i] = st.thresh
			}
		}
		for i := 0; i < N && surplus > 0; i++ {
			room := st.thresh - st.budget[i]
			if room > 0 {
				add := room
				if add > surplus {
					add = surplus
				}
				st.budget[i] += add
				surplus -= add
			}
		}
	}

	// Clean RMI loss on the original partitioning (the attack baseline).
	// Per-model attacks are independent; fan them out and sum the returned
	// losses in model order so the float accumulation is order-stable.
	cleanLosses, err := engine.Map(st.ex.ctx, st.ex.pool, N, func(i int) (float64, error) {
		return st.evalRange(st.bounds[i], st.bounds[i+1], 0), nil
	})
	if err != nil {
		return RMIAttackResult{}, err
	}
	cleanSum := 0.0
	for _, l := range cleanLosses {
		cleanSum += l
	}
	cleanRMI := cleanSum / float64(N)

	// Phase 1: initial volume allocation via Algorithm 1 on every model.
	initLosses, err := engine.Map(st.ex.ctx, st.ex.pool, N, func(i int) (float64, error) {
		return st.evalRange(st.bounds[i], st.bounds[i+1], st.budget[i]), nil
	})
	if err != nil {
		return RMIAttackResult{}, err
	}
	copy(st.loss, initLosses)

	// Phases 2–4: CHANGELOSS table + greedy exchanges.
	moves := 0
	if !opts.DisableExchanges && N > 1 {
		fwd := make([]exchange, N-1)
		bwd := make([]exchange, N-1)
		// fill recomputes the entries [lo, hi) concurrently. Its task
		// closure is built once, so a move allocates only the result slice.
		type fbPair struct{ f, b exchange }
		var j0 int // the first entry of the current fill
		pair := func(t int) (fbPair, error) {
			return fbPair{st.computeForward(j0 + t), st.computeBackward(j0 + t)}, nil
		}
		fill := func(lo, hi int) error {
			j0 = lo
			pairs, err := engine.Map(st.ex.ctx, st.ex.pool, hi-lo, pair)
			for t, p := range pairs {
				fwd[lo+t], bwd[lo+t] = p.f, p.b
			}
			return err
		}
		if err := fill(0, N-1); err != nil {
			return RMIAttackResult{}, err
		}
		for moves < maxMoves {
			bestDelta := exchangeEpsilon
			bestIdx, bestDir := -1, 0
			for i := 0; i < N-1; i++ {
				if fwd[i].valid && fwd[i].delta > bestDelta {
					bestDelta, bestIdx, bestDir = fwd[i].delta, i, +1
				}
				if bwd[i].valid && bwd[i].delta > bestDelta {
					bestDelta, bestIdx, bestDir = bwd[i].delta, i, -1
				}
			}
			if bestIdx < 0 {
				break
			}
			i := bestIdx
			if bestDir > 0 {
				st.loss[i], st.loss[i+1] = fwd[i].li, fwd[i].lj
				st.bounds[i+1]++
				st.budget[i]--
				st.budget[i+1]++
			} else {
				st.loss[i], st.loss[i+1] = bwd[i].li, bwd[i].lj
				st.bounds[i+1]--
				st.budget[i]++
				st.budget[i+1]--
			}
			moves++
			// Only entries referencing models i−1, i, i+1, i+2 changed;
			// recompute those (up to three fwd/bwd pairs) concurrently.
			if err := fill(max(i-1, 0), min(i+2, N-1)); err != nil {
				return RMIAttackResult{}, err
			}
		}
	}

	// Materialize the final attack: per-model poison keys and reports.
	res := RMIAttackResult{
		Models:       make([]ModelReport, N),
		CleanRMILoss: cleanRMI,
		Budget:       total,
		Moves:        moves,
		Threshold:    st.thresh,
	}
	reports, err := engine.Map(st.ex.ctx, st.ex.pool, N, func(i int) (ModelReport, error) {
		lo, hi := st.bounds[i], st.bounds[i+1]
		rep := ModelReport{
			Index:     i,
			LegitKeys: hi - lo,
			Budget:    st.budget[i],
		}
		rep.CleanLoss = st.evalRange(lo, hi, 0)
		rep.PoisonedLoss = rep.CleanLoss
		if hi-lo >= 2 && st.budget[i] > 0 {
			w := st.take()
			g, err := w.run(st.ks.Slice(lo, hi), st.budget[i], st.inner)
			rep.Injected, rep.PoisonedLoss = len(g.Poison), g.FinalLoss()
			if rep.Injected > 0 {
				rep.Poison = slices.Clone(g.Poison) // g aliases the workspace
			}
			st.ws <- w
			if err != nil {
				return ModelReport{}, fmt.Errorf("core: final attack on model %d: %w", i, err)
			}
		}
		rep.RatioLoss = SafeRatio(rep.PoisonedLoss, rep.CleanLoss)
		return rep, nil
	})
	if err != nil {
		return RMIAttackResult{}, err
	}
	// A cancellation inside the LAST task of a phase yields a zero-valued
	// evalRange with no Map task left to surface ctx.Err(); never let such
	// a partial result escape as a success.
	if err := st.ex.ctx.Err(); err != nil {
		return RMIAttackResult{}, err
	}
	poisonedSum := 0.0
	var allPoison []int64
	for i, rep := range reports {
		poisonedSum += rep.PoisonedLoss
		res.Injected += rep.Injected
		allPoison = append(allPoison, rep.Poison...)
		res.Models[i] = rep
	}
	res.PoisonedRMILoss = poisonedSum / float64(N)
	ps, err := keys.NewStrict(allPoison)
	if err != nil {
		return RMIAttackResult{}, fmt.Errorf("core: poison keys collide across models: %w", err)
	}
	res.Poison = ps
	return res, nil
}
