// Package index defines the contracts every index substrate in this
// repository serves through, split into three planes:
//
//   - Reader — the READ plane: hands out an immutable, probe-counted
//     Snapshot of the content. Lookups against a Snapshot never observe a
//     half-built model, because a Snapshot is frozen at capture time —
//     mutating or retraining the backend afterwards must not change any
//     answer an already-held Snapshot gives (the snapshot-immutability
//     conformance test in this package pins exactly that).
//   - Writer — the WRITE plane: inserts into the backend's delta area,
//     reporting (accepted, retrained) so callers see both duplicate
//     rejection and policy-triggered maintenance.
//   - Admin — the MAINTENANCE plane: explicit Retrain and the uniform
//     Stats surface.
//
// Backend composes the three planes plus the direct read conveniences
// (Lookup/ProbeSum/Len/Keys against the CURRENT state), so the attacks and
// sweeps above it (core.OnlinePoisonAttack, core.ServeAttack,
// core.ChurnAttack, the backend comparison sweep in internal/bench, the
// defense wrappers) are written against interfaces alone and any substrate
// — the updatable learned index (internal/dynamic), the B-Tree baseline
// (internal/btree), the single-model RMI path (rmi.NewSingle: a
// dynamic.Index trained by the fanout-1 RMI fit), the range-partitioned
// sharded index (internal/shard), or a defense wrapper
// (internal/defense) — can be swapped under any scenario without touching
// the scenario.
//
// Beside the planes, a backend may implement optional faces that callers
// discover by type assertion: BatchReader (a sorted-batch probe kernel),
// RebuildSizer and TriggerPredictor (what the retrain pipeline uses), and
// Ranker (rank queries against the live content, which a defense.Guard
// reads instead of copying the keys). ParallelRetrainer is declared but
// implemented and called nowhere in this module; see its comment.
//
// On top of the planes, this package provides the deterministic
// background-retrain pipeline (pipeline.go): a wrapper that decouples WHEN
// a rebuild's result becomes visible to the read plane from WHEN the write
// plane triggered it, on a logical tick clock — the substrate of the
// retrain-churn attack scenario (see DESIGN.md §7).
//
// The package is a near-leaf: it depends only on internal/keys and (for
// the ParallelRetrainer declaration) internal/engine, so backends in any
// substrate package can import it without cycles, and internal/core can
// stay independent of the substrates it attacks (see DESIGN.md §1,
// dependency rules).
//
// Contract notes:
//
//   - Lookup and ProbeSum are pure reads: no memoization, no mutation, safe
//     to call concurrently with each other (but not with Insert/Retrain).
//     The probe count is the implementation-independent lookup-cost metric
//     every comparison in this repository uses.
//   - Snapshot() is cheap for the learned backends (copy-on-write delta
//     buffers; the immutable base set and model are shared) and O(n) for
//     the B-Tree (a structural clone — the tree mutates on every write, so
//     nothing smaller can be frozen).
//   - Insert reports (accepted, retrained): accepted is false for
//     duplicates (learned backends additionally reject negative keys, which
//     fall outside the paper's [0, m) key universe); retrained is true when
//     the call itself triggered a maintenance retrain (always false for
//     structures that rebalance incrementally, like the B-Tree).
//   - Retrain is the explicit maintenance hook. Model-free backends treat
//     it as a no-op; learned backends merge pending writes and refit.
//   - Everything is deterministic: identical call sequences produce
//     identical backends, which the scenario equivalence tests rely on.
package index

import "cdfpoison/internal/keys"

// LookupResult reports a probe-counted point query against a Backend.
type LookupResult struct {
	Found    bool
	InBuffer bool // served from a delta buffer / staged area, not the base
	Probes   int  // key comparisons performed
	Window   int  // guaranteed model search-window width (0 when model-free)
}

// Stats is the uniform backend summary the scenarios report on.
type Stats struct {
	Keys     int // total stored keys
	Buffered int // keys waiting in a delta buffer / staged area
	Retrains int // completed retrains (0 for structures that never retrain)
	// ModelLoss is the current model's in-sample MSE on the base it was
	// trained on; 0 for model-free backends.
	ModelLoss float64
	// ContentLoss evaluates the CURRENT model against the CURRENT full
	// content (base plus any buffered keys), so model staleness is visible
	// before a retrain absorbs it; 0 for model-free backends.
	ContentLoss float64
	// Window is the guaranteed search-window width of the base model
	// (maximum across shards for partitioned backends); 0 when model-free.
	Window int
}

// PointReader is the minimal probe-counted read surface. Both Backend
// (reads against the current state) and Snapshot (reads against a frozen
// state) satisfy it, so batch helpers and tests are written once.
type PointReader interface {
	// Lookup finds k, counting key comparisons.
	Lookup(k int64) LookupResult
	// ProbeSum runs a lookup for every query key and returns the exact
	// total probe count plus how many keys were not found. Integer sums
	// are partition-invariant, so callers may chunk queryKeys across
	// workers and fold partial sums in any grouping — the property the
	// serving scenarios' parallel evaluation leans on.
	ProbeSum(queryKeys []int64) (probes int64, notFound int)
	// Len returns the total number of stored keys.
	Len() int
	// Keys materializes the full content as a sorted key set — the
	// "visible content" an insertion adversary computes poison against.
	Keys() keys.Set
}

// Snapshot is an immutable point-in-time view of a backend's content: the
// read plane's unit of publication. A Snapshot's answers are frozen at
// capture: later Insert/Retrain calls on the backend it came from must not
// change them. Probe counts through a fresh Snapshot are identical to
// probe counts through the live backend at the moment of capture — the
// equivalence that makes snapshot-served reads byte-compatible with the
// historical direct-read paths (and that the zero-cost pipeline golden
// tests pin).
type Snapshot interface {
	PointReader
}

// Reader is the read plane: it publishes the Snapshot lookups should be
// served from. For a bare backend that is always the current state; behind
// a retrain Pipeline it is the most recently PUBLISHED state, which lags
// the write plane while a rebuild is in flight.
type Reader interface {
	Snapshot() Snapshot
}

// Writer is the write plane; see the package comment for the (accepted,
// retrained) semantics.
type Writer interface {
	Insert(k int64) (accepted, retrained bool)
}

// Admin is the maintenance plane: explicit retrains and the uniform stats
// surface.
type Admin interface {
	// Retrain runs the backend's maintenance step (no-op if model-free).
	Retrain()
	// Stats summarizes the backend state.
	Stats() Stats
}

// Backend is the full index contract the scenarios drive: the three planes
// plus direct reads against the current state. All implementations are
// single-writer: Insert and Retrain must not run concurrently with
// anything, while the read plane (Lookup/ProbeSum/Len/Keys/Stats/Snapshot)
// is read-only and may be fanned out across workers between mutations; a
// captured Snapshot additionally stays valid ACROSS mutations.
type Backend interface {
	Reader
	Writer
	Admin
	PointReader
}

// Ranker is the optional order-statistics face a Backend may implement:
// rank queries against the CURRENT content without materializing Keys().
// Window reads the neighbourhood of one key in a single descent: pos is
// Keys().CountLess(k), and near is dst with the stored keys of ranks
// [max(pos−w, 0), min(pos+w, Len())) appended in order, w ≥ 0 being
// clamped to Len() first. For every i in [0, Len()), At(i) equals
// Keys().At(i). TestRankerConformance and FuzzRankerWindow pin both
// against Keys(). A defense.Guard screens each write with one Window read
// instead of keeping a private copy of the keys (DESIGN.md §10).
type Ranker interface {
	// Len returns the total number of stored keys.
	Len() int
	// Window returns how many stored keys are below k, and dst with the
	// stored keys within w ranks of that position appended.
	Window(k int64, w int, dst []int64) (pos int, near []int64)
	// At returns the stored key of 0-based rank i.
	At(i int) int64
}

// ProbeSum is the reference batch evaluation: the exact per-key Lookup sum.
// Backends and snapshots embed or mirror it; tests use it to pin ProbeSum
// implementations to their Lookup.
func ProbeSum(r PointReader, queryKeys []int64) (probes int64, notFound int) {
	for _, k := range queryKeys {
		res := r.Lookup(k)
		probes += int64(res.Probes)
		if !res.Found {
			notFound++
		}
	}
	return probes, notFound
}
