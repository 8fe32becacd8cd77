// Package defense implements the mitigation side of the paper's Discussion
// (Section VI): the TRIM robust-regression defense of Jagielski et al.
// adapted to CDF training data, plus two simpler sanitizers (range filtering
// and local-density flagging).
//
// TRIM's premise is that poisoning points incur large residuals under the
// model fitted on the clean majority, so iteratively keeping the n
// best-fitting points recovers the clean set. On CDFs the adaptation is
// expensive and fragile, exactly as the paper predicts: ranks depend on
// *which* subset is kept, so every iteration must re-rank its candidate
// subset, and the attack's poison keys sit inside dense legitimate regions
// where their residuals look ordinary. This package exists to make those
// claims measurable.
package defense

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"cdfpoison/internal/keys"
	"cdfpoison/internal/regression"
	"cdfpoison/internal/xrand"
)

// ErrBadCount is returned when the presumed clean count is not in
// (1, len(poisoned)].
var ErrBadCount = errors.New("defense: clean count must be in (1, n_poisoned]")

// trimMaxIters bounds each TRIM run's refit loop.
const trimMaxIters = 64

// TrimOptions tunes TrimCDF.
type TrimOptions struct {
	// Restarts runs TRIM from additional random initial subsets and keeps
	// the lowest-loss outcome (the original paper's stochastic variant);
	// default 0 (single deterministic run from the best-residual init).
	Restarts int
	// Seed drives the random restarts.
	Seed uint64
}

func (o *TrimOptions) fill() {
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// TrimResult reports the outcome of the TRIM defense.
type TrimResult struct {
	// Kept is the subset TRIM believes is clean (size == cleanCount).
	Kept keys.Set
	// Removed is everything flagged as poisoning.
	Removed keys.Set
	// Model is the regression fitted on Kept (with Kept's own re-ranking).
	Model regression.Model
	// Iterations counts refit rounds across all restarts; Converged reports
	// whether the final run reached a fixed point within trimMaxIters.
	Iterations int
	Converged  bool
}

// TrimCDF runs the TRIM defense against a (possibly) poisoned key set,
// keeping cleanCount keys. The defender re-ranks every candidate subset
// before fitting — the re-calibration overhead the paper highlights — and
// scores excluded keys by the rank they would take if inserted.
func TrimCDF(poisoned keys.Set, cleanCount int, opts TrimOptions) (TrimResult, error) {
	total := poisoned.Len()
	if cleanCount <= 1 || cleanCount > total {
		return TrimResult{}, fmt.Errorf("%w: clean=%d, total=%d", ErrBadCount, cleanCount, total)
	}
	opts.fill()

	best := TrimResult{}
	bestLoss := math.Inf(1)
	run := func(initial []int64) error {
		kept, model, iters, converged, err := trimOnce(poisoned, initial, cleanCount)
		if err != nil {
			return err
		}
		best.Iterations += iters
		if model.Loss < bestLoss {
			bestLoss = model.Loss
			best.Kept = kept
			best.Model = model
			best.Converged = converged
		}
		return nil
	}

	// Deterministic init: fit on everything, keep the cleanCount keys with
	// the smallest residuals against the full set's own ranks.
	full, err := regression.FitCDF(poisoned)
	if err != nil {
		return TrimResult{}, err
	}
	init := selectSmallestResiduals(poisoned, poisoned, full.Line, cleanCount)
	if err := run(init); err != nil {
		return TrimResult{}, err
	}

	rng := xrand.New(opts.Seed)
	for r := 0; r < opts.Restarts; r++ {
		perm := rng.Perm(total)
		sub := make([]int64, cleanCount)
		for i := 0; i < cleanCount; i++ {
			sub[i] = poisoned.At(perm[i])
		}
		sort.Slice(sub, func(i, j int) bool { return sub[i] < sub[j] })
		if err := run(sub); err != nil {
			return TrimResult{}, err
		}
	}

	// Removed = poisoned \ kept.
	removedRaw := make([]int64, 0, total-cleanCount)
	for _, k := range poisoned.Keys() {
		if !best.Kept.Contains(k) {
			removedRaw = append(removedRaw, k)
		}
	}
	removed, err := keys.NewStrict(removedRaw)
	if err != nil {
		return TrimResult{}, fmt.Errorf("defense: internal: %w", err)
	}
	best.Removed = removed
	return best, nil
}

// trimOnce iterates fit → re-rank → reselect until the kept subset is a
// fixed point, for at most trimMaxIters rounds.
func trimOnce(poisoned keys.Set, initial []int64, cleanCount int) (keys.Set, regression.Model, int, bool, error) {
	kept, err := keys.NewStrict(initial)
	if err != nil {
		return keys.Set{}, regression.Model{}, 0, false, fmt.Errorf("defense: bad initial subset: %w", err)
	}
	var model regression.Model
	for iter := 1; iter <= trimMaxIters; iter++ {
		model, err = regression.FitCDF(kept)
		if err != nil {
			return keys.Set{}, regression.Model{}, iter, false, err
		}
		next := selectSmallestResiduals(poisoned, kept, model.Line, cleanCount)
		nextSet, err := keys.NewStrict(next)
		if err != nil {
			return keys.Set{}, regression.Model{}, iter, false, fmt.Errorf("defense: internal: %w", err)
		}
		if nextSet.Equal(kept) {
			return kept, model, iter, true, nil
		}
		kept = nextSet
	}
	model, err = regression.FitCDF(kept)
	if err != nil {
		return keys.Set{}, regression.Model{}, trimMaxIters, false, err
	}
	return kept, model, trimMaxIters, false, nil
}

// selectSmallestResiduals returns the cleanCount keys with the smallest
// absolute residual under the line, where each key is scored against the
// rank it holds in — or would take upon insertion into — the reference set
// the line was fitted on. Re-ranking every candidate against the current
// kept subset is the re-calibration step unique to CDF TRIM, and the source
// of the per-iteration overhead the paper points out.
func selectSmallestResiduals(poisoned, ref keys.Set, line regression.Line, cleanCount int) []int64 {
	type scored struct {
		key int64
		res float64
	}
	all := make([]scored, poisoned.Len())
	for i := 0; i < poisoned.Len(); i++ {
		k := poisoned.At(i)
		r, member := ref.Rank(k)
		if !member {
			r, _ = ref.InsertedRank(k)
		}
		all[i] = scored{key: k, res: math.Abs(line.Predict(k) - float64(r))}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].res != all[j].res {
			return all[i].res < all[j].res
		}
		return all[i].key < all[j].key
	})
	out := make([]int64, cleanCount)
	for i := 0; i < cleanCount; i++ {
		out[i] = all[i].key
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RangeFilter is the trivial sanitizer the attack is designed to evade:
// drop keys outside [lo, hi]. With the paper's in-range poisoning keys it
// removes nothing.
func RangeFilter(ks keys.Set, lo, hi int64) (kept keys.Set, removed keys.Set) {
	var keep, drop []int64
	for _, k := range ks.Keys() {
		if k < lo || k > hi {
			drop = append(drop, k)
		} else {
			keep = append(keep, k)
		}
	}
	kept, _ = keys.New(keep)
	removed, _ = keys.New(drop)
	return kept, removed
}

// DensityFlagger flags keys that sit in abnormally dense neighbourhoods —
// a heuristic detector motivated by the observation that the greedy attack
// clusters poison keys in dense regions (Figure 4). Window is the
// half-width (in rank space) of the neighbourhood; a key is flagged when
// its local density exceeds zThreshold standard deviations above the mean
// local density. Even so, the attack's poisons hide next to legitimate
// dense regions, so recall stays poor — which is the point being measured.
func DensityFlagger(ks keys.Set, window int, zThreshold float64) keys.Set {
	n := ks.Len()
	if n < 3 || window < 1 {
		empty, _ := keys.New(nil)
		return empty
	}
	dens := make([]float64, n)
	for i := 0; i < n; i++ {
		lo, hi := i-window, i+window
		if lo < 0 {
			lo = 0
		}
		if hi > n-1 {
			hi = n - 1
		}
		span := ks.At(hi) - ks.At(lo)
		if span <= 0 {
			span = 1
		}
		dens[i] = float64(hi-lo) / float64(span)
	}
	var mean, m2 float64
	for i, d := range dens {
		delta := d - mean
		mean += delta / float64(i+1)
		m2 += delta * (d - mean)
	}
	std := math.Sqrt(m2 / float64(n))
	var flagged []int64
	for i, d := range dens {
		if std > 0 && (d-mean)/std > zThreshold {
			flagged = append(flagged, ks.At(i))
		}
	}
	out, _ := keys.New(flagged)
	return out
}

// Eval quantifies a defense outcome against ground truth.
type Eval struct {
	TruePoison     int // actual poison keys present
	Flagged        int // keys the defense removed/flagged
	TruePositives  int // flagged keys that really are poison
	FalsePositives int // legitimate keys wrongly flagged
	Precision      float64
	Recall         float64
	// CleanLossBefore/After: MSE of the regression over the true clean set
	// vs over the defense's kept set — collateral damage shows up as kept
	// sets whose loss is far from the clean baseline.
	CleanLossBefore float64
	KeptLoss        float64
}

// Evaluate scores flagged keys against the known poison set, and the kept
// set's regression against the clean baseline. clean ∪ poison must be the
// poisoned input the defense saw.
func Evaluate(clean, poison, flagged, kept keys.Set) (Eval, error) {
	ev := Eval{TruePoison: poison.Len(), Flagged: flagged.Len()}
	for _, k := range flagged.Keys() {
		if poison.Contains(k) {
			ev.TruePositives++
		} else if clean.Contains(k) {
			ev.FalsePositives++
		}
	}
	if ev.Flagged > 0 {
		ev.Precision = float64(ev.TruePositives) / float64(ev.Flagged)
	}
	if ev.TruePoison > 0 {
		ev.Recall = float64(ev.TruePositives) / float64(ev.TruePoison)
	}
	cm, err := regression.FitCDF(clean)
	if err != nil {
		return Eval{}, err
	}
	ev.CleanLossBefore = cm.Loss
	if kept.Len() > 0 {
		km, err := regression.FitCDF(kept)
		if err != nil {
			return Eval{}, err
		}
		ev.KeptLoss = km.Loss
	}
	return ev, nil
}
