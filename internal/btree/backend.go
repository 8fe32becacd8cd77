package btree

// The index.Backend face of the tree: the B-Tree is the model-free baseline
// every serving scenario can swap in where a learned backend runs, which is
// what makes "the learned index pays for adapting to the data; the B-Tree
// does not" a measurable statement rather than a slogan.

import (
	"cdfpoison/internal/index"
	"cdfpoison/internal/keys"
)

var _ index.Backend = (*Tree)(nil)

// Lookup is the probe-counted point query in index.Backend form. A B-Tree
// has no model, so Window is 0 and InBuffer never fires.
func (t *Tree) Lookup(k int64) index.LookupResult {
	found, probes := t.Get(k)
	return index.LookupResult{Found: found, Probes: probes}
}

// Retrain is a no-op: the tree rebalances on every write and has no model
// to refit. It still satisfies the maintenance hook of index.Backend, so a
// manual-policy serving scenario can force "retrains" uniformly across
// backends.
func (t *Tree) Retrain() {}

// RetrainPossible is always false: the tree rebalances incrementally and
// never retrains on the write path (index.TriggerPredictor) — which is
// what spares a pipeline-wrapped B-Tree the O(n) clone a pre-insert
// snapshot would otherwise cost on every write.
func (t *Tree) RetrainPossible() bool { return false }

// Snapshot freezes the current content as an independent structural clone.
// A B-Tree restructures on every write, so — unlike the learned backends,
// whose bases are immutable and whose buffers are copy-on-write — nothing
// cheaper than an O(n) copy can be frozen; the probe counts through the
// clone are identical to the live tree's at capture time. Backends that
// retrain rarely (or never, like this one) pay this only when a snapshot
// is actually requested.
func (t *Tree) Snapshot() index.Snapshot { return t.Clone() }

// Keys materializes the stored keys as a sorted set, O(n). Insert rejects
// negative keys, so the content always satisfies the set's invariants.
func (t *Tree) Keys() keys.Set {
	out := make([]int64, 0, t.size)
	t.Ascend(func(k int64) bool {
		out = append(out, k)
		return true
	})
	return keys.FromSorted(out)
}

// Stats reports the model-free summary: only Keys is non-zero.
func (t *Tree) Stats() index.Stats {
	return index.Stats{Keys: t.size}
}

// ProbeSum runs a lookup for every query key and returns the exact total
// comparison count plus how many keys were not found — the same batch shape
// as dynamic.Index.ProbeSum, so the backend comparison sweep measures both
// structures through one code path.
func (t *Tree) ProbeSum(queryKeys []int64) (int64, int) { return index.ProbeSum(t, queryKeys) }
