// Package blackbox implements the black-box variant of the RMI poisoning
// attack that the paper sketches as future work (Section VI): the adversary
// knows the training keys (the standard poisoning assumption) but NOT the
// index's model parameters, and must first infer them through query access.
//
// The paper's observation makes this tractable: "the architecture choices
// are limited and it would be enough to infer the parameters of the
// second-stage models, which are linear regressions." A linear model is
// fully determined by two of its predictions, so probing the index's
// position prediction at every known key recovers, exactly:
//
//   - the partition boundaries (where the prediction slope changes), and
//   - each second-stage model's (w, b).
//
// With the architecture recovered, the white-box attack of internal/core
// applies unchanged.
package blackbox

import (
	"errors"
	"fmt"
	"math"

	"cdfpoison/internal/core"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/regression"
)

// Oracle is the adversary's only access to the deployed index: submit a
// key, observe the predicted position the index computes before its
// last-mile search. rmi.Index satisfies this via PredictPosition.
type Oracle interface {
	PredictPosition(key int64) float64
}

// ErrNoKeys is returned when inference is attempted with no known keys.
var ErrNoKeys = errors.New("blackbox: need at least two known keys to infer a linear model")

// Segment is one inferred second-stage model: the contiguous run of known
// keys it serves and the recovered line.
type Segment struct {
	// Lo and Hi are 0-based positions into the known sorted key set
	// (inclusive) served by this model.
	Lo, Hi int
	Line   regression.Line
}

// InferenceResult reports the recovered architecture.
type InferenceResult struct {
	Segments []Segment
	Probes   int // total oracle queries
}

// NumModels returns the inferred second-stage fanout.
func (r InferenceResult) NumModels() int { return len(r.Segments) }

// InferSecondStage recovers the second-stage models serving the known keys.
// It probes the oracle once per key (n queries), groups consecutive keys
// with a consistent linear response, and solves each group's (w, b) from
// two probe points. Adjacent models that happen to share the exact same
// line are indistinguishable through the oracle and merge into one segment
// — harmless for the attack, which only needs the response function.
func InferSecondStage(o Oracle, known keys.Set) (InferenceResult, error) {
	n := known.Len()
	if n < 2 {
		return InferenceResult{}, ErrNoKeys
	}
	preds := make([]float64, n)
	for i := 0; i < n; i++ {
		preds[i] = o.PredictPosition(known.At(i))
	}
	res := InferenceResult{Probes: n}

	const tol = 1e-6 // relative tolerance on predicted positions
	start := 0
	for start < n {
		if start == n-1 {
			// A trailing singleton: constant model.
			res.Segments = append(res.Segments, Segment{Lo: start, Hi: start, Line: regression.Line{W: 0, B: preds[start]}})
			break
		}
		// Solve the line through the first two points of the group.
		k0, k1 := known.At(start), known.At(start+1)
		w := (preds[start+1] - preds[start]) / float64(k1-k0)
		b := preds[start] - w*float64(k0)
		line := regression.Line{W: w, B: b}
		end := start + 1
		for end+1 < n {
			next := known.At(end + 1)
			want := line.Predict(next)
			if math.Abs(want-preds[end+1]) > tol*(1+math.Abs(want)) {
				break
			}
			end++
		}
		res.Segments = append(res.Segments, Segment{Lo: start, Hi: end, Line: line})
		start = end + 1
	}
	return res, nil
}

// Verify replays every known key through the inferred segments and returns
// the largest absolute disagreement with the oracle — the adversary's own
// confidence check before spending the poisoning budget.
func Verify(o Oracle, known keys.Set, inf InferenceResult) float64 {
	worst := 0.0
	for _, seg := range inf.Segments {
		for i := seg.Lo; i <= seg.Hi; i++ {
			k := known.At(i)
			d := math.Abs(seg.Line.Predict(k) - o.PredictPosition(k))
			if d > worst {
				worst = d
			}
		}
	}
	return worst
}

// AttackResult is the white-box attack mounted on the inferred
// architecture.
type AttackResult struct {
	Attack core.RMIAttackResult
}

// Attack runs the full black-box pipeline: infer the second-stage
// architecture through the oracle, then mount Algorithm 2 against the
// recovered fanout. Options' NumModels is overridden by the inference.
func Attack(o Oracle, known keys.Set, opts core.RMIAttackOptions) (AttackResult, error) {
	inf, err := InferSecondStage(o, known)
	if err != nil {
		return AttackResult{}, err
	}
	if inf.NumModels() == 0 {
		return AttackResult{}, fmt.Errorf("blackbox: inference recovered no models")
	}
	opts.NumModels = inf.NumModels()
	atk, err := core.RMIAttack(known, opts)
	if err != nil {
		return AttackResult{}, fmt.Errorf("blackbox: attack on inferred architecture: %w", err)
	}
	return AttackResult{Attack: atk}, nil
}
