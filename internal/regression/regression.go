// Package regression implements linear regression on cumulative distribution
// functions (CDFs), the building block of learned index structures that the
// paper attacks.
//
// Definition 1 of the paper: given keys k_1 < … < k_n with ranks r_i = i,
// find (w, b) minimizing the mean squared error Σ(w·k_i + b − r_i)²/n.
// Theorem 1 gives the closed form
//
//	w* = Cov_KR / Var_K,   b* = M_R − w*·M_K,
//	L(K, R, w*, b*) = Var_R − Cov²_KR / Var_K.
//
// (The paper's Theorem 1 statement carries a typo — its own incremental
// equations in Section IV-C use the form above, which is the standard
// least-squares optimum.)
//
// Numerical design: second-stage RMI models see keys in the billions spread
// across windows a few thousand wide, where raw moments like M_K² − (M_K)²
// cancel catastrophically. Every computation here therefore centers keys at
// the set minimum first. The fitted line, the loss, and the optimal poisoning
// location are all invariant under that translation (property-tested).
package regression

import (
	"errors"
	"fmt"
	"math"

	"cdfpoison/internal/keys"
)

// ErrTooFew is returned when a fit is requested on fewer than one key.
var ErrTooFew = errors.New("regression: need at least one key")

// Line is a fitted line rank ≈ W·key + B over *uncentered* keys.
type Line struct {
	W, B float64
}

// Predict returns the predicted (fractional) rank of key k.
func (l Line) Predict(k int64) float64 { return l.W*float64(k) + l.B }

// Model is the result of fitting a CDF: the line, the optimal in-sample MSE
// (mean, not sum), and the number of points it was fitted on.
type Model struct {
	Line
	Loss float64
	N    int
}

// String renders the model compactly for logs and examples.
func (m Model) String() string {
	return fmt.Sprintf("rank ≈ %.6g·key %+.6g  (n=%d, mse=%.6g)", m.W, m.B, m.N, m.Loss)
}

// rankMean is the exact mean of the rank multiset {1, …, n}: after any
// insertion the ranks are again exactly {1, …, n+1}, which is the
// structural fact (paper, Section IV-C) that makes O(1) candidate
// evaluation possible.
func rankMean(n int) float64 { return float64(n+1) / 2 }

// rankVar = Var of {1..n} = (n²−1)/12.
func rankVar(n int) float64 {
	nf := float64(n)
	return (nf*nf - 1) / 12
}

// FitCDF fits the linear regression of Definition 1 on the key set: x-values
// are the keys, y-values are the 1-based ranks. n == 1 yields the degenerate
// exact fit (w=0, b=1, loss 0). n == 0 returns ErrTooFew.
func FitCDF(ks keys.Set) (Model, error) {
	n := ks.Len()
	if n == 0 {
		return Model{}, ErrTooFew
	}
	if n == 1 {
		return Model{Line: Line{W: 0, B: 1}, Loss: 0, N: 1}, nil
	}
	origin := ks.Min()
	var sumX, sumXX, sumXR float64
	for i := 0; i < n; i++ {
		x := float64(ks.At(i) - origin)
		r := float64(i + 1)
		sumX += x
		sumXX += x * x
		sumXR += x * r
	}
	nf := float64(n)
	mx := sumX / nf
	mxx := sumXX / nf
	mxr := sumXR / nf
	mr := rankMean(n)
	varX := mxx - mx*mx
	cov := mxr - mx*mr
	varR := rankVar(n)
	if varX <= 0 {
		// Distinct keys guarantee varX > 0 for n >= 2; defend anyway.
		return Model{Line: Line{W: 0, B: mr}, Loss: varR, N: n}, nil
	}
	w := cov / varX
	bCentered := mr - w*mx
	loss := varR - cov*cov/varX
	if loss < 0 { // floating-point guard: MSE is non-negative by construction
		loss = 0
	}
	return Model{
		Line: Line{W: w, B: bCentered - w*float64(origin)},
		Loss: loss,
		N:    n,
	}, nil
}

// EvaluateCDF returns the MSE of an arbitrary line on the key set's CDF
// (ranks 1..n). It is used by the defense evaluation, where a model fitted
// on one set is scored against another. Returns ErrTooFew on an empty set.
func EvaluateCDF(l Line, ks keys.Set) (float64, error) {
	n := ks.Len()
	if n == 0 {
		return 0, ErrTooFew
	}
	var sum float64
	for i := 0; i < n; i++ {
		d := l.Predict(ks.At(i)) - float64(i+1)
		sum += d * d
	}
	return sum / float64(n), nil
}

// FitXY is a general simple least-squares fit y ≈ w·x + b used by substrate
// components (e.g. the RMI stage-1 linear router). It centers x at its mean
// for stability. len(x) must equal len(y) and be >= 1.
func FitXY(x, y []float64) (Line, error) {
	if len(x) != len(y) {
		return Line{}, fmt.Errorf("regression: FitXY length mismatch %d != %d", len(x), len(y))
	}
	n := len(x)
	if n == 0 {
		return Line{}, ErrTooFew
	}
	var mx, my float64
	for i := range x {
		mx += x[i]
		my += y[i]
	}
	mx /= float64(n)
	my /= float64(n)
	var sxx, sxy float64
	for i := range x {
		dx := x[i] - mx
		sxx += dx * dx
		sxy += dx * (y[i] - my)
	}
	if sxx == 0 {
		return Line{W: 0, B: my}, nil
	}
	w := sxy / sxx
	return Line{W: w, B: my - w*mx}, nil
}

// Prefix precomputes, in O(n), everything needed to evaluate the poisoned
// loss for ANY candidate poisoning key in O(1): centered prefix moments and
// the suffix key sums that capture the compound rank shift.
//
// This is the paper's observation 2 ("the value of L(kp) can be re-used")
// realized with exact per-candidate formulas instead of running discrete
// derivatives, which is equally fast and immune to drift across gap
// boundaries.
//
// Numerical design, second layer (see DESIGN.md §2, "Incremental kernel
// invariants"): all moments are accumulated in EXACT integer arithmetic —
// sumX and the suffix sums in int64, the second-order sums in 128-bit — and
// converted to float64 only at evaluation time. Centered keys are integers,
// so every moment is an integer, and integer addition is associative: the
// state after Insert (the incremental kernel) is bit-identical to the state
// NewPrefix would build from scratch on the augmented set, for any insertion
// order and at any magnitude. That identity is what lets the greedy attack
// skip the per-step O(n) rebuild without perturbing a single output bit
// relative to a rebuild (property-tested in incremental_test.go).
//
// Relative to the HISTORICAL float64 accumulators the comparison is scoped:
// wherever float64 accumulation never rounded (all partial sums below 2⁵³,
// which covers every quick-scale experiment and recorded CSV fingerprint in
// EXPERIMENTS.md), the evaluated losses are bit-identical to the old
// implementation. At larger products — e.g. Σx² ≈ 3.3×10¹⁸ for the n=10⁵,
// span-10⁷ acceptance dataset — the old float64 sums had already rounded,
// order-sensitively; the exact sums differ from them in the final ulps
// (and are the correctly-rounded values).
type Prefix struct {
	origin int64
	n      int
	sumX   int64 // Σ x_i, exact (guarded against int64 overflow)
	sumXX  u128  // Σ x_i², exact
	sumXR  u128  // Σ x_i·r_i, exact
	// sufB[b] = Σ_{j >= b·sufStride} x_j (0-based positions): the suffix
	// sums at every sufStride-th position up to n, where the sum is 0. When
	// a poisoning key lands at position i (i keys strictly smaller),
	// exactly the keys at positions i..n−1 gain one unit of rank,
	// contributing Suffix(i) to Σ x·r. Entries are bounded by sumX, so
	// int64 is safe wherever sumX is.
	sufB []int64
	ks   keys.Set
	// mut is non-nil when the Prefix was built by NewPrefixMutable or Reset
	// and owns an insertable key set; ks is then a live view of it (see
	// Insert).
	mut *keys.MutableSet
}

// sufStride is the spacing of the stored suffix sums. Any other suffix is
// the stored one at or below it minus at most sufStride−1 keys, and Insert
// updates only the ⌈(n+1)/sufStride⌉ stored sums.
const sufStride = 16

// ErrRange is returned when the centered key sum Σ(kᵢ−min) does not fit in
// int64, the bound under which the exact kernel's accumulators cannot
// overflow. Every dataset in this repository sits orders of magnitude below
// it; hitting it means the key span × count product exceeds ~9.2×10¹⁸.
var ErrRange = errors.New("regression: key span too large for the exact kernel (Σ centered keys exceeds int64)")

// NewPrefix builds the O(1)-evaluation state for the key set.
// The set must contain at least two keys to admit a meaningful regression.
func NewPrefix(ks keys.Set) (*Prefix, error) {
	p := new(Prefix)
	if err := p.build(ks, nil, ks.Len()); err != nil {
		return nil, err
	}
	return p, nil
}

// NewPrefixMutable builds the incremental attack kernel over a mutable key
// set: the returned Prefix supports Insert, with suffix capacity reserved
// for the set's spare capacity so that a greedy step never allocates. The
// caller must not mutate m except through Prefix.Insert.
func NewPrefixMutable(m *keys.MutableSet) (*Prefix, error) {
	p := new(Prefix)
	if err := p.Reset(m); err != nil {
		return nil, err
	}
	return p, nil
}

// Reset rebuilds p in place as the incremental kernel over m, exactly as
// NewPrefixMutable(m) would, reusing p's suffix-sum storage when it has
// room for m's capacity. A greedy workspace resets one Prefix per run
// instead of allocating a fresh one. After an error p is unusable until
// the next successful Reset.
func (p *Prefix) Reset(m *keys.MutableSet) error {
	return p.build(m.View(), m, m.Cap())
}

// build accumulates the exact moments in one backward pass; sufCap
// reserves suffix-sum capacity for sufCap keys (≥ n), pre-paying Insert
// growth. The running suffix is Σx at the end and the stored suffix sums
// on the way, and Σx·r is the sum of the running suffixes
// (Σᵢ xᵢ·(i+1) = Σₚ Suffix(p)), so only Σx² needs a 128-bit product. Keys
// are sorted, so x >= 0 and the running suffix overflows int64 exactly
// when Σx does.
func (p *Prefix) build(ks keys.Set, mut *keys.MutableSet, sufCap int) error {
	n := ks.Len()
	if n < 2 {
		return fmt.Errorf("regression: NewPrefix needs n >= 2, got %d", n)
	}
	sufB := p.sufB
	if cap(sufB) < sufCap/sufStride+1 {
		sufB = make([]int64, 0, sufCap/sufStride+1)
	}
	sufB = sufB[:n/sufStride+1]
	origin, xs := ks.Min(), ks.Keys()
	var (
		suf          int64
		sumXX, sumXR u128
	)
	for b := len(sufB) - 1; b >= 0; b-- {
		for i := min(n, (b+1)*sufStride) - 1; i >= b*sufStride; i-- {
			x := xs[i] - origin
			if suf > math.MaxInt64-x {
				return ErrRange
			}
			suf += x
			ux := uint64(x)
			sumXX = sumXX.add(u128Mul(ux, ux))
			sumXR = sumXR.addU64(uint64(suf))
		}
		sufB[b] = suf // the empty suffix, 0, when b·sufStride == n
	}
	*p = Prefix{origin: origin, n: n, sumX: suf, sumXX: sumXX, sumXR: sumXR,
		sufB: sufB, ks: ks, mut: mut}
	return nil
}

// N returns the number of legitimate keys backing the prefix.
func (p *Prefix) N() int { return p.n }

// Set returns the key set backing the prefix. For a mutable Prefix this is
// a live view: it reflects Inserts and shares their backing array, so it is
// only valid until the next Insert (copy it with keys.New if needed longer).
func (p *Prefix) Set() keys.Set { return p.ks }

// Suffix returns Σ_{j >= pos} x_j over the centered keys, 0 <= pos <= n:
// the exact rank-shift term of a candidate that takes 0-based position pos.
// It subtracts at most sufStride−1 keys from the stored sum at or below
// pos. A scan over consecutive gaps calls it once and then carries the
// value, subtracting one key per gap (Suffix(i+1) = Suffix(i) − x_i).
func (p *Prefix) Suffix(pos int) int64 {
	b := pos / sufStride
	s := p.sufB[b]
	for _, k := range p.ks.Keys()[b*sufStride : pos] {
		s -= k - p.origin
	}
	return s
}

// CleanLoss returns the MSE of the optimal regression on the unpoisoned set.
func (p *Prefix) CleanLoss() float64 {
	nf := float64(p.n)
	mx := float64(p.sumX) / nf
	mxx := p.sumXX.float() / nf
	mxr := p.sumXR.float() / nf
	mr := rankMean(p.n)
	varX := mxx - mx*mx
	cov := mxr - mx*mr
	loss := rankVar(p.n) - cov*cov/varX
	if loss < 0 {
		return 0
	}
	return loss
}

// PoisonedLoss returns the optimal-regression MSE of K ∪ {kp}, where kp is a
// key NOT in the set and pos is the number of keys strictly smaller than kp
// (i.e. kp would take 1-based rank pos+1). It is ClosedForm.Loss on a fresh
// snapshot, O(1); scans over many candidates hold one snapshot and carry
// the suffix instead.
func (p *Prefix) PoisonedLoss(kp int64, pos int) float64 {
	cf := p.ClosedForm()
	return cf.Loss(kp, pos, p.Suffix(pos))
}

// PoisonedLossAuto is PoisonedLoss with the insertion position looked up via
// binary search (O(log n)); ok is false if kp already occupies a slot.
func (p *Prefix) PoisonedLossAuto(kp int64) (loss float64, ok bool) {
	rank, free := p.ks.InsertedRank(kp)
	if !free {
		return 0, false
	}
	return p.PoisonedLoss(kp, rank-1), true
}
