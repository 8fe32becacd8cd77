package defense

// The serving-side face of this package: defenses that wrap a live
// index.Backend instead of sanitizing a training set after the fact. The
// wrapper pattern is what the backend-interface refactor buys the defender
// — a Guard composes with ANY backend (dynamic, sharded, single-model RMI,
// even the B-Tree) and with any scenario, because both sides only see
// index.Backend.

import (
	"cdfpoison/internal/index"
	"cdfpoison/internal/keys"
)

var _ index.Backend = (*Guard)(nil)

// GuardOptions tunes NewGuard.
type GuardOptions struct {
	// Policies is the detector chain the guard screens inserts with; any
	// policy flagging a key rejects it. nil selects the single density
	// screen DensityPolicy{Window: 8, Ratio: 4} (the historical Guard
	// behavior); an explicit empty, non-nil chain screens nothing.
	Policies []Policy
}

func (o *GuardOptions) fill() {
	if o.Policies == nil {
		o.Policies = []Policy{DensityPolicy{Window: 8, Ratio: 4}}
	}
}

// Guard is an online insert sanitizer behind the index.Backend contract:
// reads pass straight through; writes are screened by the same
// local-density heuristic as DensityFlagger, evaluated at insert time
// against the backend's current content. The paper's greedy attack
// concentrates poison inside dense regions, so a density guard prices its
// keys up — but, exactly as with the offline flagger, poison placed next
// to legitimately dense regions slips through, and the Evaluate metrics
// quantify how much.
//
// Rejected inserts never reach the backend, so they do not tick
// write-count retrain policies — a guard also (incidentally) protects an
// EveryK schedule from the duplicate-write lever documented in
// internal/dynamic.
//
// Policies read the backend's content through a Content (DESIGN.md §10).
// When the backend implements index.Ranker (dynamic.Index, and so the
// single-model RMI, and shard.Index) they read it live, and only a
// lossspike kernel keeps a copy of the keys. For any other backend the
// guard keeps a private sorted copy of the keys, and then it is
// single-writer THROUGH the guard: once wrapped, all mutation must go
// through the Guard's Insert/Retrain, since mutating the inner backend
// directly would leave the copy behind it.
type Guard struct {
	backend  index.Backend
	policies []Policy
	flagged  int
	// content is built on the first screened insert and kept for the
	// guard's life; retrains leave it valid, since they refit models over
	// the same keys. It is nil until first use, and again after the
	// fallback's copy refuses a key the backend accepted, so the next
	// offer rebuilds it from the backend.
	content *Content
}

// NewGuard wraps a backend with the detector chain (the single density
// screen by default; see GuardOptions.Policies).
func NewGuard(b index.Backend, opts GuardOptions) *Guard {
	opts.fill()
	return &Guard{backend: b, policies: opts.Policies}
}

// Flagged returns how many inserts the guard has rejected. The count is
// cumulative over the guard's lifetime — Retrain does not reset it.
func (g *Guard) Flagged() int { return g.flagged }

// suspicious builds the content on first use and runs the policy chain;
// any policy flagging k rejects it.
func (g *Guard) suspicious(k int64) bool {
	if g.content == nil {
		g.content = newContent(g.backend)
	}
	for _, p := range g.policies {
		if p.Suspicious(g.content, k) {
			return true
		}
	}
	return false
}

// Insert screens k and forwards it only when no policy flags it; a
// rejected key reports (false, false) without touching the backend. An
// accepted key joins the guard's content (the fallback's copy and the
// lossspike kernel).
func (g *Guard) Insert(k int64) (accepted, retrained bool) {
	if k >= 0 && g.suspicious(k) {
		g.flagged++
		return false, false
	}
	accepted, retrained = g.backend.Insert(k)
	if accepted && g.content != nil && !g.content.add(k) {
		g.content = nil // the copy disagrees with the backend: rebuild on next offer
	}
	return accepted, retrained
}

// The read-side and maintenance methods delegate unchanged.

func (g *Guard) Lookup(k int64) index.LookupResult { return g.backend.Lookup(k) }

// Retrain delegates. A retrain refits models over the same keys, so the
// guard's content stays valid (TestGuardMirrorMatchesReference pins this on
// every backend).
func (g *Guard) Retrain() { g.backend.Retrain() }

// LastRebuildSize forwards the wrapped backend's rebuild size when it
// reports one, else the full length (index.RebuildSizer).
func (g *Guard) LastRebuildSize() int {
	if rs, ok := g.backend.(index.RebuildSizer); ok {
		return rs.LastRebuildSize()
	}
	return g.backend.Len()
}

// RetrainPossible forwards the wrapped backend's prediction
// (index.TriggerPredictor): the guard can only REJECT inserts, so the
// inner backend's answer is already conservative for the guarded path.
func (g *Guard) RetrainPossible() bool {
	if tp, ok := g.backend.(index.TriggerPredictor); ok {
		return tp.RetrainPossible()
	}
	return true
}
func (g *Guard) Len() int           { return g.backend.Len() }
func (g *Guard) Keys() keys.Set     { return g.backend.Keys() }
func (g *Guard) Stats() index.Stats { return g.backend.Stats() }

// Snapshot hands out the wrapped backend's snapshot unchanged: the guard
// screens writes, so its read plane IS the backend's read plane.
func (g *Guard) Snapshot() index.Snapshot { return g.backend.Snapshot() }

// ProbeSum forwards the whole batch to the wrapped backend's batch path in
// ONE call rather than looping single Lookups through the interface. The
// totals are identical either way (integer probe sums are
// partition-invariant), but the forwarded form keeps the inner backend's
// batch-level optimizations — and skips one interface dispatch per key —
// on the hot evaluation path; BenchmarkGuardProbeSum pins the delta
// against the per-key reference loop.
func (g *Guard) ProbeSum(queryKeys []int64) (probes int64, notFound int) {
	return g.backend.ProbeSum(queryKeys)
}

// ProbeSumSorted forwards the sorted batch to the wrapped backend's batch
// kernel (index.BatchReader), falling back to the per-key reference when
// the backend has none — the guard screens writes, so the read plane's
// bit-identity contract is entirely the backend's (DESIGN.md §12).
func (g *Guard) ProbeSumSorted(sorted []int64) (probes int64, notFound int) {
	return index.ProbeSumSorted(g.backend, sorted)
}
