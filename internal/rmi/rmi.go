// Package rmi implements the two-stage recursive model index of Kraska et
// al. — the learned index structure the paper attacks. The stage-1 model,
// the partition router, directs a queried key to one of N stage-2 linear
// regression models: it is the equal-size partition the paper's
// Algorithm 2 assumes, with the stage-1 "always directs to the correct
// model" assumption made literal. The chosen model predicts the key's
// position in the sorted key array; a bounded "last-mile" binary search
// around the prediction finds the record.
//
// The index tracks per-model min/max prediction error bounds at build time,
// so lookups of stored keys are guaranteed to succeed, and it counts key
// comparisons ("probes") so that the performance damage of a poisoning
// attack is measurable in an implementation-independent way — the very
// metric the paper resorts to because the original authors' optimized C++
// harness is unpublished (Section III-C).
//
// NewSingle puts the fanout-1 index behind index.Backend as a dynamic.Index
// trained by Build's stage-2 fit, so the updatable single-regression
// substrate exists once, in internal/dynamic.
package rmi

import (
	"errors"
	"fmt"
	"math"

	"cdfpoison/internal/keys"
	"cdfpoison/internal/regression"
)

// Config parameterizes Build.
type Config struct {
	// Fanout is the number of second-stage models (N). Required >= 1.
	Fanout int
}

// ErrEmpty is returned when building over an empty key set.
var ErrEmpty = errors.New("rmi: cannot build over an empty key set")

// stage2 is one second-stage model: a line predicting the global 1-based
// rank, plus its guaranteed error envelope over the keys assigned to it.
type stage2 struct {
	line     regression.Line
	eLo, eHi float64 // min/max of (actual − predicted) over assigned keys
	assigned int
	localMSE float64 // second-stage MSE on local ranks (the paper's L_i)
}

// Index is an immutable two-stage RMI over a sorted key set.
type Index struct {
	ks         keys.Set
	models     []stage2
	boundaries []int64 // the partition router: first key of each partition
}

// Build constructs the index. Keys are assigned to second-stage models by
// the partition router itself (so build-time and query-time routing agree
// and stored-key lookups always succeed): the equal-size partition of the
// paper.
func Build(ks keys.Set, cfg Config) (*Index, error) {
	n := ks.Len()
	if n == 0 {
		return nil, ErrEmpty
	}
	if cfg.Fanout < 1 {
		return nil, fmt.Errorf("rmi: fanout must be >= 1, got %d", cfg.Fanout)
	}
	if cfg.Fanout > n {
		cfg.Fanout = n // more experts than keys is wasteful but legal
	}
	idx := &Index{ks: ks, boundaries: make([]int64, 0, cfg.Fanout)}
	for _, p := range ks.Partition(cfg.Fanout) {
		if p.Len() > 0 {
			idx.boundaries = append(idx.boundaries, p.Min())
		} else {
			// Empty tail partitions route nothing; repeat last boundary.
			idx.boundaries = append(idx.boundaries, math.MaxInt64)
		}
	}

	// Assign every key to the model the router sends it to, then fit one
	// linear regression per model on (key → global rank).
	assign := make([][]int, cfg.Fanout) // model → sorted key positions
	for i := 0; i < n; i++ {
		m := idx.route(ks.At(i))
		assign[m] = append(assign[m], i)
	}
	idx.models = make([]stage2, cfg.Fanout)
	for m, rows := range assign {
		idx.models[m] = fitStage2(ks, rows)
	}
	return idx, nil
}

// fitStage2 fits one second-stage model over the given sorted key positions.
func fitStage2(ks keys.Set, rows []int) stage2 {
	s := stage2{assigned: len(rows)}
	if len(rows) == 0 {
		return s
	}
	if len(rows) == 1 {
		s.line = regression.Line{W: 0, B: float64(rows[0] + 1)}
		return s
	}
	xs := make([]float64, len(rows))
	ys := make([]float64, len(rows))
	for i, r := range rows {
		xs[i] = float64(ks.At(r))
		ys[i] = float64(r + 1) // global 1-based rank
	}
	line, err := regression.FitXY(xs, ys)
	if err != nil { // unreachable: len(rows) >= 2
		line = regression.Line{}
	}
	s.line = line
	s.eLo, s.eHi = math.Inf(1), math.Inf(-1)
	var mse float64
	for i, r := range rows {
		// Predict from the key itself: int64(xs[i]) overflows for keys
		// whose float64 value rounds up to 2^63.
		d := ys[i] - line.Predict(ks.At(r))
		if d < s.eLo {
			s.eLo = d
		}
		if d > s.eHi {
			s.eHi = d
		}
		mse += d * d
	}
	s.localMSE = mse / float64(len(rows))
	return s
}

// route maps a key to a second-stage model index: the last partition
// whose first key is <= k (boundaries are ascending partition minima).
func (idx *Index) route(k int64) int {
	lo, hi := 0, len(idx.boundaries)
	for lo < hi {
		mid := (lo + hi) / 2
		if idx.boundaries[mid] <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return max(lo-1, 0)
}

// LookupResult reports the outcome and cost of a point query.
type LookupResult struct {
	Pos    int // 0-based position among the sorted keys (valid when Found)
	Found  bool
	Probes int // key comparisons performed by the last-mile search
}

// Lookup finds a key. Stored keys are always found (the model that serves
// the query is the one that trained on the key, and its error bounds are a
// guaranteed envelope).
func (idx *Index) Lookup(k int64) LookupResult {
	m := idx.route(k)
	s := &idx.models[m]
	res := LookupResult{Pos: -1}
	if s.assigned == 0 {
		return res // nothing was ever routed here; key cannot be stored
	}
	pred := s.line.Predict(k)
	lo := int(math.Floor(pred+s.eLo)) - 1 // 1-based rank → 0-based index
	hi := int(math.Ceil(pred+s.eHi)) - 1
	if lo < 0 {
		lo = 0
	}
	if hi > idx.ks.Len()-1 {
		hi = idx.ks.Len() - 1
	}
	if lo > hi {
		return res
	}
	// Last-mile binary search within [lo, hi].
	for lo <= hi {
		mid := (lo + hi) / 2
		res.Probes++
		switch c := idx.ks.At(mid); {
		case c == k:
			res.Pos, res.Found = mid, true
			return res
		case c < k:
			lo = mid + 1
		default:
			hi = mid - 1
		}
	}
	return res
}

// PredictPosition returns the raw second-stage prediction for k — the
// 1-based rank estimate at the center of the last-mile search window —
// without performing the search. This is the observable a black-box
// adversary gets per query (e.g. by timing or cache-probing the memory
// location the index touches first), and what the parameter-inference
// attack in internal/blackbox consumes.
func (idx *Index) PredictPosition(k int64) float64 {
	m := idx.route(k)
	s := &idx.models[m]
	if s.assigned == 0 {
		return 0
	}
	return s.line.Predict(k)
}

// Len returns the number of indexed keys.
func (idx *Index) Len() int { return idx.ks.Len() }

// SecondStageMSE returns the mean of per-model MSEs — the L_RMI loss the
// paper's attack maximizes (models that received no keys contribute zero).
func (idx *Index) SecondStageMSE() float64 {
	if len(idx.models) == 0 {
		return 0
	}
	var sum float64
	for _, s := range idx.models {
		sum += s.localMSE
	}
	return sum / float64(len(idx.models))
}

// Stats summarizes lookup-cost structure across second-stage models.
type Stats struct {
	MaxWindow      int     // widest guaranteed search window
	AvgWindow      float64 // key-weighted mean window width
	SecondStageMSE float64
	MemoryBytes    int // rough model storage footprint
}

// Stats computes the summary.
func (idx *Index) Stats() Stats {
	st := Stats{SecondStageMSE: idx.SecondStageMSE()}
	var wsum float64
	var total int
	for _, s := range idx.models {
		if s.assigned == 0 {
			continue
		}
		w := int(math.Ceil(s.eHi)-math.Floor(s.eLo)) + 1
		if w < 1 {
			w = 1
		}
		if w > st.MaxWindow {
			st.MaxWindow = w
		}
		wsum += float64(w) * float64(s.assigned)
		total += s.assigned
	}
	if total > 0 {
		st.AvgWindow = wsum / float64(total)
	}
	// Two float64 line parameters + two float64 bounds per model, plus the
	// router's boundaries.
	st.MemoryBytes = len(idx.models)*4*8 + len(idx.boundaries)*8
	return st
}

// AvgProbes runs a lookup for every provided key and returns the mean probe
// count and the not-found count (useful for negative-lookup workloads).
func (idx *Index) AvgProbes(queryKeys []int64) (mean float64, notFound int) {
	if len(queryKeys) == 0 {
		return 0, 0
	}
	var sum int
	for _, k := range queryKeys {
		r := idx.Lookup(k)
		sum += r.Probes
		if !r.Found {
			notFound++
		}
	}
	return float64(sum) / float64(len(queryKeys)), notFound
}
