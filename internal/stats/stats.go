// Package stats supplies the five-number boxplot summary the experiments
// report: the paper shows every evaluation as a boxplot of ratio losses.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quantileSorted returns the q-th quantile (0 <= q <= 1) of sorted data
// using linear interpolation between order statistics (type-7, the common
// default).
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Boxplot is the five-number summary plus Tukey whiskers and outliers — the
// exact information a matplotlib-style boxplot (as in Figures 5–8) draws.
type Boxplot struct {
	N                   int
	Min, Q1, Median, Q3 float64
	Max                 float64
	WhiskerLo           float64 // smallest observation >= Q1 − 1.5·IQR
	WhiskerHi           float64 // largest observation <= Q3 + 1.5·IQR
	Outliers            []float64
	Mean                float64
}

// NewBoxplot computes the summary of xs. It panics on empty input.
func NewBoxplot(xs []float64) Boxplot {
	if len(xs) == 0 {
		panic("stats: NewBoxplot of empty slice")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	b := Boxplot{
		N:      len(sorted),
		Min:    sorted[0],
		Q1:     quantileSorted(sorted, 0.25),
		Median: quantileSorted(sorted, 0.5),
		Q3:     quantileSorted(sorted, 0.75),
		Max:    sorted[len(sorted)-1],
		Mean:   Mean(sorted),
	}
	iqr := b.Q3 - b.Q1
	loFence := b.Q1 - 1.5*iqr
	hiFence := b.Q3 + 1.5*iqr
	b.WhiskerLo = b.Max
	b.WhiskerHi = b.Min
	for _, x := range sorted {
		if x >= loFence && x < b.WhiskerLo {
			b.WhiskerLo = x
		}
		if x <= hiFence && x > b.WhiskerHi {
			b.WhiskerHi = x
		}
		if x < loFence || x > hiFence {
			b.Outliers = append(b.Outliers, x)
		}
	}
	return b
}

// String renders the summary on one line.
func (b Boxplot) String() string {
	return fmt.Sprintf("n=%d min=%.3g q1=%.3g med=%.3g q3=%.3g max=%.3g mean=%.3g",
		b.N, b.Min, b.Q1, b.Median, b.Q3, b.Max, b.Mean)
}
