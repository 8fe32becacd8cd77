// Package dataset generates the workloads of the paper's evaluation:
// uniform, log-normal(0,2), and normal key distributions over configurable
// integer domains, plus seeded simulators of the two real-world datasets
// (Miami-Dade employee salaries and OpenStreetMap school latitudes).
//
// Every generator returns a keys.Set of exactly n unique non-negative
// integer keys and is fully deterministic given the RNG.
//
// # Unique-integer quantization
//
// Continuous samples must become unique integers. Dropping duplicates would
// change n, so we use monotone quantization: sort the samples, assign
// k_i = max(round(s_i), k_{i-1}+1), then run a backward pass clamping from
// the domain top so everything fits in [0, m). Heavily saturated regions
// become runs of consecutive keys — exactly what deduplicated real data
// looks like at those densities.
//
// For the log-normal workload with sigma = 2, naive domain-filling scaling
// is infeasible: half the mass lands in an exponentially small prefix of
// the domain, which cannot host n/2 unique integers. feasibleScale picks
// the smallest scale factor under which every prefix AND every local window
// of the sorted sample has enough integer slots (with a headroom so gaps
// remain interleaved through dense regions for the attacker to use), and
// samples beyond the domain top -- or beyond the 99.5% quantile -- are
// redrawn (a truncated log-normal). This preserves the property the
// paper's experiments rely on: concentrated regions with small clean loss
// that are still poisonable, next to sparse tails. See EXPERIMENTS.md for
// how the residual differences from the paper's (unspecified) generator
// show up at reduced scales.
package dataset

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"cdfpoison/internal/keys"
	"cdfpoison/internal/xrand"
)

// ErrInfeasible is returned when n unique keys cannot be placed in the
// requested domain (n > m) or a generator exhausted its redraw budget.
var ErrInfeasible = errors.New("dataset: cannot place n unique keys in domain")

// Uniform returns n unique keys drawn uniformly without replacement from
// [0, m). This is the workload of Figures 2–6 (uniform rows).
func Uniform(rng *xrand.RNG, n int, m int64) (keys.Set, error) {
	if err := checkNM(n, m); err != nil {
		return keys.Set{}, err
	}
	raw := xrand.SampleInt64s(rng, n, m)
	return keys.New(raw)
}

// Normal returns n unique keys in [0, m) distributed according to the
// paper's Figure 8 parameterization: a normal with mean mu = m/2 and
// standard deviation sigma = m/3, truncated to the domain (out-of-range
// draws are rejected and redrawn).
func Normal(rng *xrand.RNG, n int, m int64) (keys.Set, error) {
	if err := checkNM(n, m); err != nil {
		return keys.Set{}, err
	}
	mu := float64(m) / 2
	sigma := float64(m) / 3
	samples := make([]float64, n)
	const maxAttemptsPerSample = 10000
	for i := range samples {
		ok := false
		for a := 0; a < maxAttemptsPerSample; a++ {
			v := mu + sigma*rng.NormFloat64()
			if v >= 0 && v < float64(m) {
				samples[i] = v
				ok = true
				break
			}
		}
		if !ok {
			return keys.Set{}, fmt.Errorf("%w: truncated normal rejection stuck", ErrInfeasible)
		}
	}
	sort.Float64s(samples)
	ks, err := quantizeMonotone(samples, m)
	if err != nil {
		return keys.Set{}, err
	}
	return keys.FromSorted(ks), nil
}

// LogNormal returns n unique keys in [0, m) whose continuous law is
// log-normal with log-space parameters (mu, sigma); the paper's skewed
// synthetic workload uses mu=0, sigma=2 (Section V-B). mu must be finite
// and sigma finite and positive. The scale factor mapping variates to keys
// is chosen by feasibleScale, with the domain acting as an upper bound only;
// variates that would land at or beyond m are redrawn (truncated upper
// tail).
func LogNormal(rng *xrand.RNG, n int, m int64, mu, sigma float64) (keys.Set, error) {
	if err := checkNM(n, m); err != nil {
		return keys.Set{}, err
	}
	if math.IsNaN(mu) || math.IsInf(mu, 0) {
		return keys.Set{}, fmt.Errorf("dataset: log-normal mu must be finite, got %v", mu)
	}
	if !(sigma > 0) || math.IsInf(sigma, 1) {
		return keys.Set{}, fmt.Errorf("dataset: log-normal sigma must be finite and > 0, got %v", sigma)
	}
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = rng.LogNormFloat64(mu, sigma)
	}
	sort.Float64s(samples)

	const headroom = 1.25 // keep >=20% free slots in saturated regions
	scale := feasibleScale(samples, headroom)
	// Truncate the extreme upper tail: samples beyond the domain top under
	// the chosen scale are redrawn, and independently of the domain the top
	// 0.5% quantile is clipped. A sigma=2 log-normal's maximum grows like
	// exp(2·z_max) and a single straggler key would stretch the last
	// second-stage model across a nearly empty range, drowning every other
	// model's loss in the L_RMI average — a tail artifact, not the
	// distributional shape the paper's experiments target.
	qCap := samples[(len(samples)-1)*995/1000]
	// Each redraw round may shift feasibleScale slightly; iterate to a
	// fixed point.
	const maxRounds = 32
	for round := 0; ; round++ {
		if round == maxRounds {
			return keys.Set{}, fmt.Errorf("%w: log-normal truncation did not converge", ErrInfeasible)
		}
		limit := (float64(m) - 1) / scale
		if qCap < limit {
			limit = qCap
		}
		redrawn := false
		for i := range samples {
			if samples[i] > limit {
				redrawn = true
				v := samples[i]
				for a := 0; a < 100000 && v > limit; a++ {
					v = rng.LogNormFloat64(mu, sigma)
				}
				if v > limit {
					return keys.Set{}, fmt.Errorf("%w: log-normal redraw stuck", ErrInfeasible)
				}
				samples[i] = v
			}
		}
		if !redrawn {
			break
		}
		sort.Float64s(samples)
		scale = feasibleScale(samples, headroom)
	}
	scaled := make([]float64, n)
	for i, s := range samples {
		scaled[i] = s * scale
	}
	ks, err := quantizeMonotone(scaled, m)
	if err != nil {
		return keys.Set{}, err
	}
	return keys.FromSorted(ks), nil
}

func checkNM(n int, m int64) error {
	if n < 0 {
		return fmt.Errorf("dataset: negative key count %d", n)
	}
	if int64(n) > m {
		return fmt.Errorf("%w: n=%d, m=%d", ErrInfeasible, n, m)
	}
	return nil
}

// feasibleScale returns a multiplier c under which the sample can be
// quantized to unique integers with the given headroom of free slots, both
// globally and locally:
//
//   - prefix feasibility: c·s_i >= (i+1)·headroom for all i, so every
//     prefix of the concentrated low end has room;
//   - windowed feasibility: for sliding windows of geometrically growing
//     widths, c·(s_j − s_i) >= (j−i)·headroom, so free slots are
//     interleaved *throughout* dense regions instead of accumulating at
//     region boundaries.
//
// The windowed constraint is what preserves the paper's log-normal regime:
// second-stage models over concentrated keys must have tiny clean loss AND
// remain poisonable (gaps inside the dense run). Without it, monotone
// quantization turns the whole dense center into one saturated consecutive
// run that no attacker can touch.
func feasibleScale(sorted []float64, headroom float64) float64 {
	c := 0.0
	for i, s := range sorted {
		if s <= 0 {
			continue
		}
		if need := float64(i+1) * headroom / s; need > c {
			c = need
		}
	}
	// Windows narrower than ~32 samples are dominated by order-statistic
	// noise (near-ties would blow the scale up); solid runs below that
	// length are harmless, since they are far shorter than any second-stage
	// model the experiments use.
	n := len(sorted)
	for w := 32; w < n/2; w *= 2 {
		for i := 0; i+w < n; i += w / 2 {
			span := sorted[i+w] - sorted[i]
			if span <= 0 {
				continue
			}
			if need := float64(w) * headroom / span; need > c {
				c = need
			}
		}
	}
	if c == 0 {
		c = 1
	}
	return c
}

// quantizeMonotone turns ascending float samples into strictly increasing
// integer keys in [0, m): a forward pass rounds and pushes collisions up,
// and, if the top overflows the domain, a backward pass pushes keys down
// from m−1. Feasible whenever len(samples) <= m.
func quantizeMonotone(sorted []float64, m int64) ([]int64, error) {
	n := len(sorted)
	if int64(n) > m {
		return nil, fmt.Errorf("%w: n=%d, m=%d", ErrInfeasible, n, m)
	}
	out := make([]int64, n)
	prev := int64(-1)
	for i, s := range sorted {
		k := int64(s + 0.5)
		if k <= prev {
			k = prev + 1
		}
		if k < 0 {
			k = 0
			if k <= prev {
				k = prev + 1
			}
		}
		out[i] = k
		prev = k
	}
	// Backward pass: clamp into the domain from the top.
	limit := m - 1
	for i := n - 1; i >= 0; i-- {
		if out[i] > limit {
			out[i] = limit
		}
		limit = out[i] - 1
	}
	if n > 0 && out[0] < 0 {
		return nil, fmt.Errorf("%w: backward pass underflow", ErrInfeasible)
	}
	return out, nil
}

// Miami-Dade salary simulation (Figure 7, dataset A). The paper filters the
// public salary records to n=5,300 unique salaries between $22,733 and
// $190,034, a key universe of m=167,301 interior values (3–4% density).
// We have no license to redistribute the CSV, so we simulate the same CDF
// shape: a right-skewed log-normal salary distribution with the median near
// $55k, truncated to the same range, quantized to unique integers.
const (
	SalaryMin   = 22733
	SalaryMax   = 190034
	SalaryCount = 5300
	// SalaryDomain is the size of the key universe as the paper states it.
	SalaryDomain = 167301
)

// MiamiSalaries returns the simulated salary key set: exactly SalaryCount
// unique keys in [SalaryMin, SalaryMax].
func MiamiSalaries(rng *xrand.RNG) (keys.Set, error) {
	return MiamiSalariesN(rng, SalaryCount)
}

// MiamiSalariesN is MiamiSalaries with a configurable key count (scaled-down
// experiment cells); the domain stays [SalaryMin, SalaryMax].
func MiamiSalariesN(rng *xrand.RNG, n int) (keys.Set, error) {
	width := int64(SalaryMax - SalaryMin + 1)
	if err := checkNM(n, width); err != nil {
		return keys.Set{}, err
	}
	const (
		logMedian = 10.37 // exp ≈ $32k above SalaryMin → median salary ≈ $55k
		logSigma  = 0.45
	)
	samples := make([]float64, n)
	for i := range samples {
		ok := false
		for a := 0; a < 10000; a++ {
			v := rng.LogNormFloat64(logMedian, logSigma)
			if v < float64(width) {
				samples[i] = v
				ok = true
				break
			}
		}
		if !ok {
			return keys.Set{}, fmt.Errorf("%w: salary redraw stuck", ErrInfeasible)
		}
	}
	sort.Float64s(samples)
	ks, err := quantizeMonotone(samples, width)
	if err != nil {
		return keys.Set{}, err
	}
	for i := range ks {
		ks[i] += SalaryMin
	}
	return keys.FromSorted(ks), nil
}

// OpenStreetMap school-latitude simulation (Figure 7, dataset B). The paper
// takes school locations with latitude in [−30, +50], scales by 15,000 and
// rounds, yielding n=302,973 unique keys in a universe of m=1,200,000
// (25.25% density). We simulate the same multimodal CDF with a mixture of
// normals centered on the real population belts, truncated to the same
// range and scaled identically.
const (
	OSMCount  = 302973
	OSMDomain = 1200000
	osmLatLo  = -30.0
	osmLatHi  = 50.0
	osmScale  = 15000.0
)

// latBelt is one mixture component of the latitude model.
type latBelt struct {
	center float64 // degrees latitude
	std    float64
	weight float64
}

var osmBelts = []latBelt{
	{center: 48, std: 5, weight: 0.28},  // Europe
	{center: 23, std: 7, weight: 0.24},  // India / SE Asia
	{center: 35, std: 5, weight: 0.18},  // East Asia
	{center: 39, std: 6, weight: 0.14},  // North America
	{center: -15, std: 7, weight: 0.08}, // South America
	{center: 5, std: 10, weight: 0.08},  // Africa
}

// OSMLatitudes returns the simulated school-latitude key set at the paper's
// full size (n=302,973 keys in [0, 1,200,000)).
func OSMLatitudes(rng *xrand.RNG) (keys.Set, error) {
	return OSMLatitudesN(rng, OSMCount)
}

// OSMLatitudesN is OSMLatitudes with a configurable key count; the domain
// stays [0, OSMDomain) so that density scales with n.
func OSMLatitudesN(rng *xrand.RNG, n int) (keys.Set, error) {
	if err := checkNM(n, OSMDomain); err != nil {
		return keys.Set{}, err
	}
	samples := make([]float64, n)
	for i := range samples {
		ok := false
		for a := 0; a < 10000; a++ {
			b := pickBelt(rng)
			lat := b.center + b.std*rng.NormFloat64()
			if lat >= osmLatLo && lat <= osmLatHi {
				samples[i] = (lat - osmLatLo) * osmScale
				ok = true
				break
			}
		}
		if !ok {
			return keys.Set{}, fmt.Errorf("%w: latitude redraw stuck", ErrInfeasible)
		}
	}
	sort.Float64s(samples)
	ks, err := quantizeMonotone(samples, OSMDomain)
	if err != nil {
		return keys.Set{}, err
	}
	return keys.FromSorted(ks), nil
}

func pickBelt(rng *xrand.RNG) latBelt {
	u := rng.Float64()
	acc := 0.0
	for _, b := range osmBelts {
		acc += b.weight
		if u < acc {
			return b
		}
	}
	return osmBelts[len(osmBelts)-1]
}
