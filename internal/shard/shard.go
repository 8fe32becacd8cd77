// Package shard implements a range-partitioned sharded index: a router
// fitted over the initial key CDF in front of N independent dynamic shards
// (internal/dynamic), behind the index.Backend contract.
//
// This is the serving-layer shape production learned-index systems take —
// one cheap router, many small models, writes absorbed per shard — and the
// victim of core.ServeAttack: poisoning a sharded index concentrates damage
// in the shards whose ranges the attacker floods, which surfaces as shard
// imbalance and per-shard retrain churn on top of model loss.
//
// Router invariants:
//
//  1. The router is FROZEN at construction: cut keys are derived from the
//     regression line fitted on the initial key CDF (inverted at equal-mass
//     rank cuts; empirical quantile fallback when the model's cuts would
//     leave a shard under-populated). Routing is a pure function of the
//     key, so a key inserts into and is looked up from the same shard
//     forever, no matter what arrives later.
//  2. Shards own disjoint, contiguous key ranges covering the whole
//     universe: shard i serves keys in [cuts[i-1], cuts[i]) (first and last
//     ranges are open-ended). Concatenating shard contents in shard order
//     is therefore globally sorted — Keys() is a cheap ordered merge.
//  3. Routing cost is counted: Lookup adds the router's binary-search
//     comparisons over the cut keys to the probe total, so a 1-shard index
//     (no cuts) is probe-for-probe identical to the unsharded dynamic
//     index — the equivalence the serve scenario's N=1 golden test pins.
//
// Determinism under concurrency: mutation (Insert/Retrain) is
// single-writer, exactly like every other backend; Lookup and ProbeSum are
// pure reads.
package shard

import (
	"errors"
	"fmt"
	"sort"

	"cdfpoison/internal/dynamic"
	"cdfpoison/internal/index"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/regression"
)

// ErrTooFewPerShard is returned when the initial set cannot give every
// shard the two keys its model needs.
var ErrTooFewPerShard = errors.New("shard: need at least two initial keys per shard")

var (
	_ index.Backend = (*Index)(nil)
	_ index.Ranker  = (*Index)(nil)
)

// Index is the range-partitioned sharded index.
type Index struct {
	cuts   []int64 // len = shards-1; shard i owns [cuts[i-1], cuts[i])
	shards []*dynamic.Index
	// lastRebuild is the key count the most recent retrain covered: ONE
	// shard on the policy-triggered insert path, every shard on an explicit
	// Retrain — the distinction that lets a rebuild cost model price
	// partitioned maintenance honestly (index.RebuildSizer).
	lastRebuild int
}

// New builds a sharded index: the router is fitted over the initial key
// CDF, the initial keys are partitioned by it, and each shard becomes an
// independent dynamic index running its own copy of the retrain policy.
// Requires n >= 1 shards and at least two initial keys per shard.
func New(initial keys.Set, n int, policy dynamic.RetrainPolicy) (*Index, error) {
	return NewWithFit(initial, n, policy, nil)
}

// NewWithFit is New with a pluggable per-shard trainer (dynamic.FitFunc):
// every shard's model fits — initial and retrains alike — go through fit.
// The ROUTER stays the exact least-squares fit regardless: it is frozen at
// construction over pre-attack data, so robustifying it defends nothing,
// while changing it would move every routing boundary and probe count. A
// nil fit is byte-identical to New.
func NewWithFit(initial keys.Set, n int, policy dynamic.RetrainPolicy, fit dynamic.FitFunc) (*Index, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: need >= 1 shards, got %d", n)
	}
	if initial.Len() < 2*n {
		return nil, fmt.Errorf("%w: %d keys across %d shards", ErrTooFewPerShard, initial.Len(), n)
	}
	cuts, err := routerCuts(initial, n)
	if err != nil {
		return nil, err
	}
	x := &Index{cuts: cuts}
	parts := partition(initial, cuts)
	for i, part := range parts {
		s, err := dynamic.NewWithFit(part, policy, fit)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		x.shards = append(x.shards, s)
	}
	return x, nil
}

// routerCuts derives the shard cut keys from the CDF fit: the fitted line
// rank ≈ W·k + B is inverted at the equal-mass ranks i·len/n, giving the
// key where the model predicts each shard boundary falls. If the model's
// cuts would leave any shard with fewer than two initial keys (heavily
// skewed data a single line cannot split evenly), the cuts fall back to the
// empirical quantiles of the initial set, which by construction cannot.
func routerCuts(initial keys.Set, n int) ([]int64, error) {
	if n == 1 {
		return nil, nil
	}
	m, err := regression.FitCDF(initial)
	if err != nil {
		return nil, err
	}
	total := initial.Len()
	cuts := make([]int64, n-1)
	prev := initial.Min()
	feasible := m.Line.W > 0
	for i := 1; i < n && feasible; i++ {
		r := float64(i) * float64(total) / float64(n)
		f := (r - m.Line.B) / m.Line.W
		// Reject cuts outside the key range BEFORE the int64 conversion:
		// converting an out-of-range float is not well-defined.
		if !(f > float64(initial.Min()) && f < float64(initial.Max())) {
			feasible = false
			break
		}
		cut := int64(f)
		if cut <= prev {
			feasible = false
			break
		}
		cuts[i-1] = cut
		prev = cut
	}
	if feasible {
		for _, p := range partition(initial, cuts) {
			if p.Len() < 2 {
				feasible = false
				break
			}
		}
	}
	if !feasible {
		for i := 1; i < n; i++ {
			cuts[i-1] = initial.At(i * total / n)
		}
	}
	return cuts, nil
}

// partition splits the set into per-shard subsets by the cut keys.
func partition(ks keys.Set, cuts []int64) []keys.Set {
	raw := ks.Keys()
	parts := make([]keys.Set, 0, len(cuts)+1)
	lo := 0
	for _, cut := range cuts {
		hi := sort.Search(len(raw), func(i int) bool { return raw[i] >= cut })
		parts = append(parts, ks.Slice(lo, hi))
		lo = hi
	}
	return append(parts, ks.Slice(lo, len(raw)))
}

// route returns the shard index owning k and the number of cut-key
// comparisons performed, for any router cut set — shared by the live index
// and its snapshots (the router is frozen, so both search the same cuts).
func route(cuts []int64, k int64) (shard, probes int) {
	lo, hi := 0, len(cuts)
	for lo < hi {
		mid := (lo + hi) / 2
		probes++
		if cuts[mid] <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, probes
}

func (x *Index) route(k int64) (shard, probes int) { return route(x.cuts, k) }

// NumShards returns the shard count.
func (x *Index) NumShards() int { return len(x.shards) }

// Shard returns the i-th underlying dynamic index (read-only use).
func (x *Index) Shard(i int) *dynamic.Index { return x.shards[i] }

// Lookup routes k and queries the owning shard, counting router
// comparisons plus shard probes.
func (x *Index) Lookup(k int64) index.LookupResult {
	s, rp := x.route(k)
	res := x.shards[s].Lookup(k)
	res.Probes += rp
	return res
}

// Insert routes k to its shard; (accepted, retrained) are the shard's.
func (x *Index) Insert(k int64) (accepted, retrained bool) {
	s, _ := x.route(k)
	accepted, retrained = x.shards[s].Insert(k)
	if retrained {
		x.lastRebuild = x.shards[s].LastRebuildSize()
	}
	return accepted, retrained
}

// Retrain force-retrains every shard (the manual maintenance cycle).
func (x *Index) Retrain() {
	for _, s := range x.shards {
		s.Retrain()
	}
	x.lastRebuild = x.Len()
}

// LastRebuildSize reports the key count of the most recent retrain — one
// shard for a policy-triggered rebuild, the whole index for an explicit
// Retrain (index.RebuildSizer).
func (x *Index) LastRebuildSize() int {
	if x.lastRebuild == 0 {
		return x.Len()
	}
	return x.lastRebuild
}

// RetrainPossible reports whether the next Insert could trigger a policy
// retrain in ANY shard (index.TriggerPredictor): the insert routes to one
// shard the predictor cannot know in advance, so the answer is the
// conservative disjunction.
func (x *Index) RetrainPossible() bool {
	for _, s := range x.shards {
		if s.RetrainPossible() {
			return true
		}
	}
	return false
}

// Snapshot freezes the read state: the frozen router cuts plus one O(1)
// copy-on-write snapshot per shard. Router cost through the snapshot is
// counted exactly as on the live index, so snapshot probe totals match
// live probe totals at capture time.
func (x *Index) Snapshot() index.Snapshot {
	subs := make([]index.Snapshot, len(x.shards))
	for i, s := range x.shards {
		subs[i] = s.Snapshot()
	}
	return &shardSnapshot{cuts: x.cuts, subs: subs}
}

// shardSnapshot is the composed immutable view: every shard's snapshot
// behind the same frozen router.
type shardSnapshot struct {
	cuts []int64
	subs []index.Snapshot
}

var _ index.Snapshot = (*shardSnapshot)(nil)

// Lookup routes k and queries the owning shard's snapshot, counting router
// comparisons plus shard probes.
func (s *shardSnapshot) Lookup(k int64) index.LookupResult {
	i, rp := route(s.cuts, k)
	res := s.subs[i].Lookup(k)
	res.Probes += rp
	return res
}

// ProbeSum is the snapshot's batch evaluation (reference per-key sum).
func (s *shardSnapshot) ProbeSum(queryKeys []int64) (probes int64, notFound int) {
	return index.ProbeSum(s, queryKeys)
}

// Len returns the total number of keys visible in this snapshot.
func (s *shardSnapshot) Len() int {
	n := 0
	for _, sub := range s.subs {
		n += sub.Len()
	}
	return n
}

// Keys materializes the snapshot's content; shard ranges are disjoint and
// ordered, so concatenation in shard order is already sorted.
func (s *shardSnapshot) Keys() keys.Set {
	out := make([]int64, 0, s.Len())
	for _, sub := range s.subs {
		out = append(out, sub.Keys().Keys()...)
	}
	return keys.FromSorted(out)
}

// Len returns the total number of stored keys across shards.
func (x *Index) Len() int {
	n := 0
	for _, s := range x.shards {
		n += s.Len()
	}
	return n
}

// CountLess returns how many stored keys are below k (index.Ranker): the
// router names k's shard, every key of a shard below it is below k, and no
// key of a shard above it is.
func (x *Index) CountLess(k int64) int {
	s, _ := x.route(k)
	n := x.shards[s].CountLess(k)
	for _, below := range x.shards[:s] {
		n += below.Len()
	}
	return n
}

// At returns the stored key of 0-based rank i (index.Ranker): shard
// contents concatenate in shard order, so the shard lengths locate i.
func (x *Index) At(i int) int64 {
	s := 0
	for ; s < len(x.shards)-1 && i >= x.shards[s].Len(); s++ {
		i -= x.shards[s].Len()
	}
	return x.shards[s].At(i)
}

// Keys materializes the full content. Shard ranges are disjoint and
// ordered, so the concatenation of shard contents is already sorted.
func (x *Index) Keys() keys.Set {
	out := make([]int64, 0, x.Len())
	for _, s := range x.shards {
		out = append(out, s.Keys().Keys()...)
	}
	return keys.FromSorted(out)
}

// Stats aggregates across shards (Aggregate).
func (x *Index) Stats() index.Stats {
	return Aggregate(len(x.shards), func(i int) index.Stats { return x.shards[i].Stats() })
}

// Aggregate folds n per-shard summaries, at(i) being shard i's, into the
// index-wide one: counts sum, losses are key-weighted means (each shard
// models its own subrange, so its loss lives in shard-local rank space),
// Window is the worst shard's. Taking an accessor rather than a slice lets
// Stats fold its shards without allocating one.
func Aggregate(n int, at func(i int) index.Stats) index.Stats {
	var agg index.Stats
	var lossW, contentW float64
	for i := 0; i < n; i++ {
		st := at(i)
		agg.Keys += st.Keys
		agg.Buffered += st.Buffered
		agg.Retrains += st.Retrains
		lossW += st.ModelLoss * float64(st.Keys)
		contentW += st.ContentLoss * float64(st.Keys)
		if st.Window > agg.Window {
			agg.Window = st.Window
		}
	}
	if agg.Keys > 0 {
		agg.ModelLoss = lossW / float64(agg.Keys)
		agg.ContentLoss = contentW / float64(agg.Keys)
	}
	return agg
}

// ShardStats returns each shard's own summary, in shard order.
func (x *Index) ShardStats() []index.Stats {
	out := make([]index.Stats, len(x.shards))
	for i, s := range x.shards {
		out[i] = s.Stats()
	}
	return out
}

// Imbalance is the largest shard's key count over the mean shard key
// count: 1.0 is perfectly balanced; an attacker flooding one range drives
// it toward NumShards.
func (x *Index) Imbalance() float64 {
	if len(x.shards) == 0 {
		return 1
	}
	maxLen := 0
	for _, s := range x.shards {
		if s.Len() > maxLen {
			maxLen = s.Len()
		}
	}
	mean := float64(x.Len()) / float64(len(x.shards))
	if mean == 0 {
		return 1
	}
	return float64(maxLen) / mean
}

// ProbeSum runs a lookup for every query key sequentially.
func (x *Index) ProbeSum(queryKeys []int64) (probes int64, notFound int) {
	return index.ProbeSum(x, queryKeys)
}
