// Package robust provides poisoning-resistant CDF fitters behind a common
// Fitter interface, pluggable into every learned substrate's retrain path
// (dynamic.NewWithFit, shard.NewWithFit). The OLS fit
// the paper attacks minimizes squared error, so a handful of adversarial
// keys can swing the slope arbitrarily; the estimators here bound a single
// key's influence instead — Theil–Sen by taking a median over pairwise
// slopes, trimmed least squares by refitting after discarding the
// worst-residual keys ("Testing the Robustness of Learned Index
// Structures", PAPERS.md).
//
// Every fitter is deterministic (no RNG, no map iteration) and runs on the
// caller's goroutine, as every retrain does.
//
// Order statistics come from one bounded selection over float64 values,
// not a sort: Trimmed selects its keepN-th smallest residual r and keeps,
// in index order, every key below r plus the first keys equal to r, as
// many as it still needs; TheilSen selects its medians. Poison keys choose
// the values being ranked, so the selection falls back to sorting after
// 2·bits.Len(n) unbalanced partitions: O(n) on typical inputs, O(n log n)
// on a crafted key set, never quadratic. See DESIGN.md §10 for the fitter
// contract.
package robust

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"cdfpoison/internal/keys"
	"cdfpoison/internal/regression"
)

// Fitter is the pluggable CDF-training contract: given a sorted key set,
// produce a regression.Model predicting 1-based ranks. Name() is the
// canonical spec form and round-trips through ParseFitter.
//
// Model semantics match regression.FitCDF: Loss is the MSE of the returned
// line over the FULL input set (poison included — the fit may ignore keys,
// the loss may not, so ContentLoss comparisons across fitters stay
// apples-to-apples) and N is the full input size.
type Fitter interface {
	Name() string
	Fit(ks keys.Set) (regression.Model, error)
}

// OLS is the undefended baseline: the exact least-squares fit the paper
// attacks (regression.FitCDF). Its presence makes "no robust training" a
// point on the same sweep axis as the robust estimators.
type OLS struct{}

// Name returns the canonical spec "ols".
func (OLS) Name() string { return "ols" }

// Fit delegates to the closed-form least-squares fit.
func (OLS) Fit(ks keys.Set) (regression.Model, error) { return regression.FitCDF(ks) }

// TheilSen is a deterministic Theil–Sen CDF estimator: the slope is the
// median of the n/2 disjoint pairwise slopes (key i paired with key i+n/2 —
// the Siegel-style pairing that keeps the estimator O(n log n) at worst
// instead of O(n²) while preserving the 29% breakdown point), and the
// intercept is the median residual at that slope. A poisoning key moves one slope and one
// residual — never the median by more than one order statistic.
type TheilSen struct{}

// Name returns the canonical spec "theilsen".
func (TheilSen) Name() string { return "theilsen" }

// Fit runs the estimator.
func (TheilSen) Fit(ks keys.Set) (regression.Model, error) {
	n := ks.Len()
	if n == 0 {
		return regression.Model{}, regression.ErrTooFew
	}
	if n == 1 {
		// Degenerate single-key fit, mirroring regression.FitCDF: predict
		// rank 1 everywhere.
		return regression.Model{Line: regression.Line{W: 0, B: 1}, Loss: 0, N: 1}, nil
	}
	h := n / 2
	// One buffer serves both medians: median reorders it in place, and the
	// residuals overwrite the slopes once the slope median is taken.
	buf := make([]float64, n)
	// Disjoint-pair slopes: rank distance is exactly h, key distance is
	// positive (keys are strictly increasing), so every slope is finite.
	slopes := buf[:n-h]
	for i := range slopes {
		slopes[i] = float64(h) / float64(ks.At(i+h)-ks.At(i))
	}
	w := median(slopes)
	for i := range buf {
		buf[i] = float64(i+1) - w*float64(ks.At(i))
	}
	b := median(buf)
	line := regression.Line{W: w, B: b}
	loss, err := regression.EvaluateCDF(line, ks)
	if err != nil {
		return regression.Model{}, err
	}
	return regression.Model{Line: line, Loss: loss, N: n}, nil
}

// Trimmed is iterated trimmed least squares: fit, discard the Pct% of keys
// with the largest absolute rank residuals, refit on the survivors against
// their ORIGINAL ranks, for a fixed two rounds. Discarded keys still count
// in the reported Loss — the defense may refuse to train on a key, but the
// key is still stored and still costs probes.
type Trimmed struct {
	// Pct is the percentage of keys discarded per round, in (0, 50).
	Pct float64
}

// Name returns the canonical spec "trimmed:P".
func (t Trimmed) Name() string { return fmt.Sprintf("trimmed:%g", t.Pct) }

const trimRounds = 2

// Fit runs the estimator.
func (t Trimmed) Fit(ks keys.Set) (regression.Model, error) {
	if math.IsNaN(t.Pct) || t.Pct <= 0 || t.Pct >= 50 {
		return regression.Model{}, fmt.Errorf("robust: trim percentage %g outside (0, 50)", t.Pct)
	}
	n := ks.Len()
	full, err := regression.FitCDF(ks)
	if err != nil || n <= 2 {
		return full, err
	}
	drop := int(float64(n) * t.Pct / 100)
	if n-drop < 2 {
		drop = n - 2
	}
	if drop == 0 {
		return full, nil
	}
	// x and y hold the surviving keys and their ORIGINAL 1-based ranks (the
	// refit must still predict positions in the full stored array), always
	// in ascending index order, and each round compacts them in place;
	// resid is the selection's scratch. Two allocations rather than one of
	// 3n: past 32 KB the allocator rounds to whole pages, and the two size
	// classes waste less.
	resid := make([]float64, n)
	xy := make([]float64, 2*n)
	x, y := xy[:n], xy[n:]
	for i := range x {
		x[i] = float64(ks.At(i))
		y[i] = float64(i + 1)
	}
	line := full.Line
	for round := 0; round < trimRounds; round++ {
		m := len(x)
		for j := range m {
			resid[j] = math.Abs(line.W*x[j] + line.B - y[j])
		}
		keepN := max(m-drop, 2)
		// Keep the keepN smallest residuals, ties broken on the lower
		// original index: every residual below the keepN-th smallest value
		// r, then the first keepN-less residuals equal to r in index order.
		// The selection leaves every value below r in resid[:keepN-1].
		r := selectKth(resid[:m], keepN-1)
		less := 0
		for _, v := range resid[:keepN-1] {
			if v < r {
				less++
			}
		}
		ties := keepN - less
		w := 0
		for j := range m {
			// The expression that filled resid, so the same bits.
			d := math.Abs(line.W*x[j] + line.B - y[j])
			if d < r || (d == r && ties > 0) {
				if d == r {
					ties--
				}
				x[w], y[w] = x[j], y[j]
				w++
			}
		}
		x, y = x[:w], y[:w]
		line, err = regression.FitXY(x, y)
		if err != nil {
			return regression.Model{}, err
		}
	}
	loss, err := regression.EvaluateCDF(line, ks)
	if err != nil {
		return regression.Model{}, err
	}
	return regression.Model{Line: line, Loss: loss, N: n}, nil
}

// median returns the median of xs (mean of the central pair for even
// lengths), reordering xs in place. xs must be non-empty.
func median(xs []float64) float64 {
	m := len(xs)
	upper := selectKth(xs, m/2)
	if m%2 == 1 {
		return upper
	}
	// selectKth left the m/2 smallest values below upper, so the lower
	// central value is their maximum.
	return (slices.Max(xs[:m/2]) + upper) / 2
}

// selectSortCutoff is the range length below which selectKth just sorts.
const selectSortCutoff = 12

// selectKth reorders s so that s[k] holds what sorting s would put there,
// with no larger value before it and no smaller value after it, and
// returns s[k]. It is quickselect; a partition that keeps more than 7/8 of
// its range is unbalanced, and after 2·bits.Len(len(s)) of those the
// remaining range is sorted with slices.Sort instead. The keys being
// fitted choose the values ranked here, so this bound keeps a crafted key
// set at O(n log n) comparisons rather than O(n²); typical inputs take
// O(n). s must hold no NaN.
func selectKth(s []float64, k int) float64 {
	lo, hi := 0, len(s)
	unbalanced := 2 * bits.Len(uint(len(s)))
	for hi-lo > selectSortCutoff && unbalanced > 0 {
		size := hi - lo
		p := lo + partition(s[lo:hi])
		switch {
		case k < p:
			hi = p
		case k > p:
			lo = p + 1
		default:
			return s[k]
		}
		if 8*(hi-lo) > 7*size {
			unbalanced--
		}
	}
	slices.Sort(s[lo:hi])
	return s[k]
}

// partition takes the median of the elements at s's quartile positions as
// the pivot, moves it to the position p it holds in sorted order and
// returns p, with no element of s[:p] above it and no element of s[p+1:]
// below it. Sampling the quartiles rather than the ends keeps pivots
// central on residuals that rise or fall smoothly with the key index.
// Elements equal to the pivot stop both scans and are swapped, so runs of
// equal values split evenly instead of all landing on one side. len(s)
// must be at least 3.
func partition(s []float64) int {
	a, b, c := len(s)/4, len(s)/2, len(s)*3/4
	// Order s[a], s[b], s[c]; the median ends up at b.
	if s[b] < s[a] {
		s[a], s[b] = s[b], s[a]
	}
	if s[c] < s[b] {
		s[b], s[c] = s[c], s[b]
		if s[b] < s[a] {
			s[a], s[b] = s[b], s[a]
		}
	}
	s[0], s[b] = s[b], s[0]
	pivot := s[0]
	i, j := 1, len(s)-1
	for {
		for i <= j && s[i] < pivot {
			i++
		}
		for i <= j && s[j] > pivot {
			j--
		}
		if i >= j {
			break
		}
		s[i], s[j] = s[j], s[i]
		i++
		j--
	}
	s[0], s[j] = s[j], s[0]
	return j
}

// ParseFitter parses the fitter spec syntax shared by the defense sweep and
// the lispoison defense subcommand:
//
//	ols              the undefended least-squares baseline
//	theilsen         deterministic Theil–Sen median-of-slopes
//	trimmed:P        trimmed least squares discarding P% per round (0<P<50)
//
// ParseFitter is total: any input yields a Fitter or an error, never a
// panic, and Fitter.Name round-trips through it.
func ParseFitter(s string) (Fitter, error) {
	fields := strings.Split(s, ":")
	switch fields[0] {
	case "ols":
		if len(fields) > 1 {
			return nil, fmt.Errorf("fitter %q: ols takes no parameters", s)
		}
		return OLS{}, nil
	case "theilsen":
		if len(fields) > 1 {
			return nil, fmt.Errorf("fitter %q: theilsen takes no parameters", s)
		}
		return TheilSen{}, nil
	case "trimmed":
		if len(fields) != 2 {
			return nil, fmt.Errorf("fitter %q: want trimmed:P", s)
		}
		p, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("fitter %q: bad percentage %q", s, fields[1])
		}
		if math.IsNaN(p) || p <= 0 || p >= 50 {
			return nil, fmt.Errorf("fitter %q: percentage %g outside (0, 50)", s, p)
		}
		return Trimmed{Pct: p}, nil
	default:
		return nil, fmt.Errorf("unknown fitter %q (want ols | theilsen | trimmed:P)", s)
	}
}
