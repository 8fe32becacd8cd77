package index

// The deterministic background-retrain pipeline: the piece that decouples
// WHEN a rebuild is triggered (write plane) from WHEN its result becomes
// visible (read plane), on a logical tick clock — no wall clocks, no RNG,
// no goroutine races, so the workers=1 == workers=NumCPU byte-identity
// contract survives intact (DESIGN.md §7).
//
// Model. A serving system rebuilds its index in the background: a retrain
// triggered at tick T keeps SERVING the pre-rebuild snapshot until the
// rebuild completes at tick T+cost, and only then publishes. "Algorithmic
// Complexity Attacks on Dynamic Learned Indexes" (PAPERS.md) shows this
// window is itself an attack surface: an adversary who maximizes retrain
// frequency × rebuild cost keeps the read plane pinned to ever-staler
// snapshots. The Pipeline simulates exactly that, deterministically: the
// underlying backend's state advances eagerly (merges run at trigger
// time, so the computation is a pure function of the call sequence), but
// the READ plane lags behind it by the cost model's ticks.
//
// Semantics, precisely:
//
//   - While no rebuild is in flight, reads pass through to the live
//     backend — delta-buffer inserts are immediately visible, exactly the
//     historical synchronous behavior.
//   - A retrain triggered at tick T (explicit Retrain, or a policy retrain
//     reported by Insert) freezes the read plane at the PRE-rebuild
//     snapshot and schedules publication at T+cost(rebuild size).
//   - Retrains triggered while a rebuild is in flight COALESCE: the
//     backend still merges eagerly, but the read plane stays pinned, and
//     ONE follow-up rebuild starts when the in-flight one publishes —
//     publishing first the in-flight rebuild's own result, so readers
//     advance one version per completed rebuild, never skipping straight
//     to the freshest state. This chaining is the churn attacker's lever:
//     keep the rebuild worker saturated and the stale window never closes.
//   - Tick(n) advances the clock; publications happen when the clock
//     passes their ready tick.
//
// With the zero CostModel every rebuild publishes instantly: no snapshots
// are captured, reads always pass through, and a pipeline-wrapped backend
// is byte-identical (probe-for-probe, stat-for-stat) to the bare backend —
// the golden equivalence TestPipelineZeroCostTransparent pins and the
// serving scenario's unchanged CSV fingerprints depend on.

import (
	"context"

	"cdfpoison/internal/engine"
	"cdfpoison/internal/keys"
)

var _ Backend = (*Pipeline)(nil)

// ParallelRetrainer is a pooled full-index rebuild face. Nothing in this
// module implements or calls it: no scenario or benchmark measured a pooled
// rebuild, so the pipeline retrains sequentially. It stays declared only
// because perfbench's traced decorator still names it; the benchmark change
// that updates perfbench deletes the two together.
type ParallelRetrainer interface {
	RetrainParallel(ctx context.Context, pool *engine.Pool) error
}

// RebuildSizer is the optional backend face that reports how many keys the
// most recent retrain actually rebuilt. Partitioned backends rebuild one
// shard at a time on the policy path, so pricing every rebuild at the full
// index size would overstate cost N-fold; backends that don't implement it
// are priced at Len().
type RebuildSizer interface {
	LastRebuildSize() int
}

// TriggerPredictor is the optional backend face that reports whether the
// NEXT Insert call could trigger a policy retrain. Implementations must be
// CONSERVATIVE — false is a promise, true merely a possibility
// (TestTriggerPredictorConservative pins the no-false-negative contract
// for every backend). The pipeline uses it to capture a pre-insert
// snapshot only when a trigger is actually reachable: a Manual-policy or
// model-free backend answers false forever and pays nothing per write,
// and a BufferThreshold backend pays only on the inserts at its
// threshold's edge.
type TriggerPredictor interface {
	RetrainPossible() bool
}

// ChurnStats is the pipeline's cumulative accounting, the raw material of
// the churn scenario's per-epoch report.
type ChurnStats struct {
	Coalesced int // retrain requests that landed while a rebuild was in flight
	Publishes int // snapshots published (zero-cost publishes included)
	// StaleTicks counts ticks spent with a rebuild in flight — the window
	// during which reads are served from a frozen pre-rebuild snapshot.
	StaleTicks int64
	// LatencyTicks sums trigger→publish latency over publishes;
	// MaxLatencyTicks is the worst single publish. Latency exceeds the raw
	// rebuild cost exactly when triggers coalesce behind a busy worker.
	LatencyTicks    int64
	MaxLatencyTicks int64
	// RebuildTicks sums the cost model's price of every rebuild started.
	RebuildTicks int64
}

// MeanLatency returns the mean trigger→publish latency in ticks.
func (s ChurnStats) MeanLatency() float64 {
	if s.Publishes == 0 {
		return 0
	}
	return float64(s.LatencyTicks) / float64(s.Publishes)
}

// Pipeline wraps a Backend with the deterministic background-retrain
// schedule. It is itself a Backend: the write and admin planes forward to
// the wrapped backend (triggering the schedule), while the read plane
// serves the published snapshot. Like every backend it is single-writer;
// reads may be fanned out between mutations, and a Snapshot() survives
// them.
type Pipeline struct {
	backend Backend
	cost    CostModel

	now int64

	// published is non-nil exactly while a rebuild is in flight: the
	// frozen snapshot the read plane serves. result is what the in-flight
	// rebuild will hand to readers if another rebuild chains behind it.
	published Snapshot
	result    Snapshot
	readyAt   int64 // tick the in-flight rebuild publishes
	// triggeredAt is the tick the in-flight rebuild's trigger fired (for a
	// chained rebuild, the tick of its first coalesced trigger): the
	// latency clock. staleMark is the tick up to which StaleTicks has been
	// accounted — stale time accrues as the clock advances, so a rebuild
	// that never finishes still shows its open window in the stats.
	triggeredAt int64
	staleMark   int64
	// queuedAt is the tick of the FIRST coalesced trigger waiting behind
	// the in-flight rebuild (-1 when none).
	queuedAt int64

	// rev counts read-plane revisions: it advances whenever the answers the
	// read plane gives MAY have changed (see ReadRevision).
	rev uint64

	stats ChurnStats
}

// NewPipeline wraps a backend with the given rebuild cost model.
func NewPipeline(b Backend, cost CostModel) *Pipeline {
	return &Pipeline{backend: b, cost: cost, queuedAt: -1}
}

// ChurnStats returns the cumulative pipeline accounting.
func (p *Pipeline) ChurnStats() ChurnStats { return p.stats }

// IsStale reports whether a rebuild is in flight — i.e. whether reads are
// currently served from a frozen pre-rebuild snapshot.
func (p *Pipeline) IsStale() bool { return p.published != nil }

// ReadRevision returns the read-plane revision: a counter that advances
// whenever the answers Snapshot/Lookup/ProbeSum give MAY differ from the
// previous call. A serving layer that hands its readers Snapshot() captures
// (internal/serve, DESIGN.md §8) re-captures only when the revision moved,
// so a long stale window — where the read plane is pinned to one frozen
// snapshot while writes accumulate behind an in-flight rebuild — costs zero
// captures. The counter is CONSERVATIVE the safe way around: it may advance
// when the content happens to be identical (a no-op explicit Retrain), but
// it never stays put across a visible change. Concretely it advances on
//
//   - every publish (the read plane steps one version forward),
//   - an accepted Insert while no rebuild is in flight (the delta write is
//     immediately visible), and
//   - a Retrain that completes instantly (zero or free cost model), since
//     the refit changes probe counts even though the key content is equal.
//
// It does NOT advance while a rebuild is in flight: accepted inserts and
// coalesced retrains mutate only the live write plane, and the frozen
// published snapshot keeps answering identically until the next publish.
func (p *Pipeline) ReadRevision() uint64 { return p.rev }

// Tick advances the logical clock by n ticks (n >= 0), publishing every
// rebuild whose cost has elapsed and starting any coalesced follow-up.
func (p *Pipeline) Tick(n int) {
	if n < 0 {
		panic("index: pipeline clock cannot run backwards")
	}
	to := p.now + int64(n)
	for p.published != nil && p.readyAt <= to {
		p.publish()
	}
	if p.published != nil && to > p.staleMark {
		p.stats.StaleTicks += to - p.staleMark
		p.staleMark = to
	}
	p.now = to
}

// publish completes the in-flight rebuild at its ready tick and, when
// triggers coalesced behind it, chains the follow-up rebuild.
func (p *Pipeline) publish() {
	done := p.readyAt
	p.rev++
	p.stats.Publishes++
	if done > p.staleMark {
		p.stats.StaleTicks += done - p.staleMark
	}
	p.staleMark = done
	lat := done - p.triggeredAt
	p.stats.LatencyTicks += lat
	if lat > p.stats.MaxLatencyTicks {
		p.stats.MaxLatencyTicks = lat
	}
	if p.queuedAt < 0 {
		// Nothing waiting: the read plane snaps forward to the live state.
		p.published = nil
		p.result = nil
		return
	}
	// Chain the coalesced rebuild: readers advance to the finished
	// rebuild's result; the follow-up covers the live state as of now, its
	// latency clock started at the first coalesced trigger, and the stale
	// window continues from this publish.
	p.published = p.result
	p.triggeredAt = p.queuedAt
	p.queuedAt = -1
	p.result = p.backend.Snapshot()
	d := p.cost.Ticks(p.rebuildSize())
	p.stats.RebuildTicks += d
	p.readyAt = done + d
	if d <= 0 {
		p.publish()
	}
}

// rebuildSize is the key count the cost model prices for the most recent
// rebuild.
func (p *Pipeline) rebuildSize() int {
	if rs, ok := p.backend.(RebuildSizer); ok {
		return rs.LastRebuildSize()
	}
	return p.backend.Len()
}

// trigger records a retrain that just ran on the backend. pre is the read
// state captured immediately before it (nil when the cost model is zero —
// no window to serve it in).
func (p *Pipeline) trigger(pre Snapshot) {
	if p.cost.Zero() {
		p.stats.Publishes++
		return
	}
	if p.published != nil {
		p.stats.Coalesced++
		if p.queuedAt < 0 {
			p.queuedAt = p.now
		}
		return
	}
	d := p.cost.Ticks(p.rebuildSize())
	p.stats.RebuildTicks += d
	if d <= 0 {
		// This rebuild is free at the current size: publish instantly.
		p.stats.Publishes++
		return
	}
	p.published = pre
	p.result = p.backend.Snapshot()
	p.triggeredAt = p.now
	p.staleMark = p.now
	p.readyAt = p.now + d
}

// Insert forwards to the write plane. When the backend reports a policy
// retrain, the read plane freezes at the pre-insert snapshot until the
// rebuild's cost elapses. With the zero cost model this is a pure
// pass-through.
func (p *Pipeline) Insert(k int64) (accepted, retrained bool) {
	if p.cost.Zero() {
		accepted, retrained = p.backend.Insert(k)
		if retrained {
			p.trigger(nil)
		}
		if accepted || retrained {
			p.rev++
		}
		return accepted, retrained
	}
	var pre Snapshot
	if p.published == nil && p.retrainPossible() {
		// Capture the pre-insert view in case this insert trips the policy:
		// O(1) for the learned backends (copy-on-write buffers), and
		// skipped entirely when the backend promises no trigger is
		// reachable (TriggerPredictor).
		pre = p.backend.Snapshot()
	}
	accepted, retrained = p.backend.Insert(k)
	if retrained {
		if pre == nil && p.published == nil {
			// A backend broke the TriggerPredictor contract (retrained
			// after promising it could not). Degrade gracefully: serve the
			// post-rebuild state for the window rather than crash — the
			// conformance tests keep real backends off this path.
			pre = p.backend.Snapshot()
		}
		p.trigger(pre)
	}
	if (accepted || retrained) && p.published == nil {
		p.rev++
	}
	return accepted, retrained
}

// retrainPossible consults the backend's TriggerPredictor; backends
// without one are assumed always able to trigger.
func (p *Pipeline) retrainPossible() bool {
	if tp, ok := p.backend.(TriggerPredictor); ok {
		return tp.RetrainPossible()
	}
	return true
}

// RetrainPossible forwards the wrapped backend's prediction, so nested
// pipelines (and scenarios inspecting the pipeline as a Backend) see it.
func (p *Pipeline) RetrainPossible() bool { return p.retrainPossible() }

// Retrain runs the backend's maintenance step and schedules its
// publication.
func (p *Pipeline) Retrain() {
	var pre Snapshot
	if !p.cost.Zero() && p.published == nil {
		pre = p.backend.Snapshot()
	}
	p.backend.Retrain()
	p.trigger(pre)
	if p.published == nil {
		p.rev++
	}
}

// Snapshot returns the read plane's current view: the frozen pre-rebuild
// snapshot while a rebuild is in flight, the live state otherwise.
func (p *Pipeline) Snapshot() Snapshot {
	if p.published != nil {
		return p.published
	}
	return p.backend.Snapshot()
}

// Lookup serves from the read plane (stale during a rebuild).
func (p *Pipeline) Lookup(k int64) LookupResult {
	if p.published != nil {
		return p.published.Lookup(k)
	}
	return p.backend.Lookup(k)
}

// ProbeSum serves the batch from the read plane (stale during a rebuild).
func (p *Pipeline) ProbeSum(queryKeys []int64) (probes int64, notFound int) {
	if p.published != nil {
		return p.published.ProbeSum(queryKeys)
	}
	return p.backend.ProbeSum(queryKeys)
}

// Len reports the LIVE key count (write-plane truth: accepted inserts are
// counted immediately, whatever the read plane currently serves).
func (p *Pipeline) Len() int { return p.backend.Len() }

// Keys materializes the LIVE content — the visible state an insertion
// adversary with write access computes poison against.
func (p *Pipeline) Keys() keys.Set { return p.backend.Keys() }

// Stats reports the LIVE backend summary (admin-plane truth; the pipeline's
// own accounting is ChurnStats).
func (p *Pipeline) Stats() Stats { return p.backend.Stats() }
