package alex

// The index.Backend face: three planes plus the structural-accounting
// surface core.CascadeAttack reads. The read state is a view — the node
// table, routing boundaries, and router model — copied by value into
// snapshots; node pages are copy-on-write (shared flags), so Snapshot() is
// O(#leaves) and a held snapshot survives arbitrary later inserts, splits,
// cascades, and retrains (DESIGN.md §9).

import (
	"errors"
	"fmt"
	"math"

	"cdfpoison/internal/index"
	"cdfpoison/internal/keys"
)

var (
	_ index.Backend          = (*Index)(nil)
	_ index.RebuildSizer     = (*Index)(nil)
	_ index.TriggerPredictor = (*Index)(nil)
)

// view is the immutable-by-convention read state: leaves in key order, each
// leaf's routing lower boundary (keys in [lows[i], lows[i+1]) live in leaf
// i; leaf 0 additionally absorbs anything below lows[0]), and the root's
// linear router over those boundaries.
type view struct {
	nodes  []*node
	lows   []int64
	router line
	total  int
}

// route picks the leaf for k: clamped router prediction, then a boundary
// walk (each boundary comparison is a probe).
func (v *view) route(k int64) (leaf, probes int) {
	if len(v.nodes) == 1 {
		return 0, 0
	}
	j := clampSlot(v.router.at(k), len(v.nodes))
	for j > 0 {
		probes++
		if v.lows[j] > k {
			j--
		} else {
			break
		}
	}
	for j+1 < len(v.nodes) {
		probes++
		if v.lows[j+1] <= k {
			j++
		} else {
			break
		}
	}
	return j, probes
}

func (v *view) lookup(k int64) index.LookupResult {
	j, rp := v.route(k)
	nd := v.nodes[j]
	pos, np, win := nd.lowerBound(k)
	res := index.LookupResult{Probes: rp + np, Window: win}
	if pos < len(nd.slots) {
		res.Probes++
		res.Found = nd.slots[pos] == k
	}
	return res
}

func (v *view) keySet() keys.Set {
	out := make([]int64, 0, v.total)
	for _, nd := range v.nodes {
		out = nd.keysInto(out)
	}
	return keys.FromSorted(out)
}

// losses computes the Stats model columns in one pass: the in-sample MSE
// recorded at each leaf's last fit (ModelLoss), the CURRENT models' MSE
// against the CURRENT slot placements (ContentLoss — gap inserts and shifts
// move keys off their predicted slots, so structural churn is visible here
// before any rebuild absorbs it), and the widest per-leaf error envelope as
// the guaranteed search window.
func (v *view) losses() (model, content float64, window int) {
	var sseFit, fitN, sseNow float64
	var maxErr float64
	for _, nd := range v.nodes {
		sseFit += nd.sseFit
		fitN += float64(nd.fitN)
		// A leaf's guaranteed window never exceeds its own slot array — the
		// exponential search is bounded by the array ends — so the error
		// contribution is capped there too (extreme keys can push raw model
		// error past integer range otherwise).
		errCap := float64(len(nd.slots))
		for i, ok := range nd.occ {
			if !ok {
				continue
			}
			e := float64(i) - nd.model.at(nd.slots[i])
			sseNow += e * e
			a := math.Abs(e)
			if a > errCap {
				a = errCap
			}
			if a > maxErr {
				maxErr = a
			}
		}
	}
	if fitN > 0 {
		model = sseFit / fitN
	}
	if v.total > 0 {
		content = sseNow / float64(v.total)
	}
	return model, content, 2*int(math.Ceil(maxErr)) + 1
}

// snapshot is the frozen read plane: a value copy of the view whose node
// pages are marked shared at capture.
type snapshot struct{ v view }

func (s *snapshot) Lookup(k int64) index.LookupResult { return s.v.lookup(k) }
func (s *snapshot) ProbeSum(q []int64) (int64, int)   { return index.ProbeSum(s, q) }
func (s *snapshot) Len() int                          { return s.v.total }
func (s *snapshot) Keys() keys.Set                    { return s.v.keySet() }

// StructStats is the cumulative structural-maintenance accounting — the raw
// material of the cascade attack's damage score. ShiftWrites counts every
// slot write paid by model-based inserts (gap copies and shifts);
// SplitKeys/CascadeKeys count the keys rehomed by leaf splits and by
// fanout-overflow rebuilds.
type StructStats struct {
	ShiftWrites int64
	Splits      int
	SplitKeys   int64
	Cascades    int
	CascadeKeys int64
	Nodes       int
}

// Cost is the total slot-write cost attributable to structural
// maintenance: shift/fill writes plus every key rehomed by a split or a
// cascade rebuild.
func (s StructStats) Cost() int64 { return s.ShiftWrites + s.SplitKeys + s.CascadeKeys }

// NodeInfo is one leaf's externally visible shape.
type NodeInfo struct {
	Used, Cap int
}

// Density is the leaf's occupancy fraction — what the cascade attacker
// ranks targets by.
func (n NodeInfo) Density() float64 { return float64(n.Used) / float64(n.Cap) }

// Index is the two-level gapped-array learned index. Like every backend it
// is single-writer: Insert/Retrain must not run concurrently with anything,
// while the read plane may be fanned out between mutations.
type Index struct {
	v           view
	viewShared  bool // v.nodes / v.lows aliased by a snapshot
	leafTarget  int
	fanoutLimit int
	// balancedSplit switches leaf splits from the midpoint count cut to the
	// widest key-space gap near the middle (the density-balancing defense;
	// see NewBalanced).
	balancedSplit bool

	retrains    int
	lastRebuild int

	shiftWrites int64
	splits      int
	splitKeys   int64
	cascades    int
	cascadeKeys int64
}

// New bulk-loads the index. leafTarget is the keys-per-leaf target for bulk
// load and rebuilds (<= 0 selects DefaultLeafTarget); smaller targets mean
// more, smaller leaves — and a fanout limit that cascades sooner.
func New(ks keys.Set, leafTarget int) (*Index, error) {
	if ks.Len() == 0 {
		return nil, errors.New("alex: need at least one key")
	}
	if leafTarget <= 0 {
		leafTarget = DefaultLeafTarget
	}
	if leafTarget < 2 {
		return nil, fmt.Errorf("alex: leaf target %d below minimum 2", leafTarget)
	}
	x := &Index{leafTarget: leafTarget}
	x.install(x.buildLeaves(ks.Keys()))
	x.lastRebuild = ks.Len()
	return x, nil
}

// NewBalanced is New with density-balancing splits: instead of cutting an
// overflowing leaf at its midpoint count, the split lands on the widest
// KEY-SPACE gap in the middle half of the leaf. A cascade attacker's poison
// is a dense run of adjacent keys; a midpoint cut leaves that run straddling
// both halves so the next few drips re-trip both, while the gap cut isolates
// the dense run in one half and hands the other a wide, cheap range — the
// cost-aware structural defense the defense sweep measures (DESIGN.md §10).
// Lookups, snapshots, and every invariant are unchanged; only where splits
// cut differs.
func NewBalanced(ks keys.Set, leafTarget int) (*Index, error) {
	x, err := New(ks, leafTarget)
	if err != nil {
		return nil, err
	}
	x.balancedSplit = true
	return x, nil
}

// partition splits n keys into balanced chunks of ~leafTarget keys and
// returns the chunk boundaries (len = chunks+1).
func (x *Index) partition(n int) []int {
	chunks := (n + x.leafTarget - 1) / x.leafTarget
	if chunks < 1 {
		chunks = 1
	}
	base, rem := n/chunks, n%chunks
	bounds := make([]int, chunks+1)
	for c := 0; c < chunks; c++ {
		size := base
		if c < rem {
			size++
		}
		bounds[c+1] = bounds[c] + size
	}
	return bounds
}

// buildLeaves bulk-loads fresh leaves from the sorted key slice, one per
// partition chunk.
func (x *Index) buildLeaves(sorted []int64) []*node {
	bounds := x.partition(len(sorted))
	nodes := make([]*node, len(bounds)-1)
	for c := range nodes {
		nodes[c] = buildNode(sorted[bounds[c]:bounds[c+1]])
	}
	return nodes
}

// install publishes a fresh leaf table: routing boundaries, router refit,
// fanout limit, and total — the slices are new, so any held snapshot keeps
// its own.
func (x *Index) install(nodes []*node) {
	lows := make([]int64, len(nodes))
	total := 0
	for i, nd := range nodes {
		lows[i] = nd.firstKey()
		total += nd.used
	}
	x.v = view{nodes: nodes, lows: lows, router: fitLine(lows), total: total}
	x.viewShared = false
	x.fanoutLimit = 2 * len(nodes)
	if x.fanoutLimit < minFanout {
		x.fanoutLimit = minFanout
	}
}

// Lookup is the probe-counted point query against the current state.
func (x *Index) Lookup(k int64) index.LookupResult { return x.v.lookup(k) }

// ProbeSum runs a lookup per query key; integer sums are
// partition-invariant, so callers may chunk across workers and fold.
func (x *Index) ProbeSum(queryKeys []int64) (int64, int) { return index.ProbeSum(x, queryKeys) }

// Len returns the stored key count.
func (x *Index) Len() int { return x.v.total }

// Keys materializes the content as a sorted set — the visible state an
// insertion adversary computes poison against.
func (x *Index) Keys() keys.Set { return x.v.keySet() }

// Snapshot freezes the read plane: the view is copied by value and every
// node page is marked shared, so later mutations clone pages instead of
// touching the captured ones. O(#leaves), no key copying.
func (x *Index) Snapshot() index.Snapshot {
	for _, nd := range x.v.nodes {
		nd.shared = true
	}
	x.viewShared = true
	return &snapshot{v: x.v}
}

// Insert places k through the router and the target leaf's model, shifting
// or gap-filling as the layout demands; accepted is false for duplicates
// and negative keys, retrained is true when the insert crossed a leaf's
// split threshold (and possibly cascaded into a full rebuild).
func (x *Index) Insert(k int64) (accepted, retrained bool) {
	if k < 0 {
		return false, false
	}
	j, _ := x.v.route(k)
	if x.v.nodes[j].contains(k) {
		return false, false
	}
	if x.viewShared {
		x.v.nodes = append([]*node(nil), x.v.nodes...)
		x.v.lows = append([]int64(nil), x.v.lows...)
		x.viewShared = false
	}
	nd := x.v.nodes[j]
	if nd.shared {
		nd = nd.clone()
		x.v.nodes[j] = nd
	}
	x.shiftWrites += int64(nd.insert(k))
	x.v.total++
	if !nd.splitDue() {
		return true, false
	}
	x.split(j)
	return true, true
}

// split replaces leaf i with two half-full leaves, refits the router, and
// cascades into a full rebuild when the fanout limit overflows.
func (x *Index) split(i int) {
	nd := x.v.nodes[i]
	ks := nd.keysInto(make([]int64, 0, nd.used))
	mid := x.splitPoint(ks)
	left, right := buildNode(ks[:mid]), buildNode(ks[mid:])
	nodes := make([]*node, 0, len(x.v.nodes)+1)
	nodes = append(nodes, x.v.nodes[:i]...)
	nodes = append(nodes, left, right)
	nodes = append(nodes, x.v.nodes[i+1:]...)
	lows := make([]int64, 0, len(x.v.lows)+1)
	lows = append(lows, x.v.lows[:i+1]...) // left keeps the old routing boundary
	lows = append(lows, right.firstKey())
	lows = append(lows, x.v.lows[i+1:]...)
	x.v.nodes, x.v.lows = nodes, lows
	x.v.router = fitLine(lows)
	x.viewShared = false
	x.splits++
	x.splitKeys += int64(len(ks))
	x.retrains++
	x.lastRebuild = len(ks)
	if len(nodes) > x.fanoutLimit {
		x.cascades++
		x.cascadeKeys += int64(x.v.total)
		x.Retrain()
	}
}

// splitPoint picks where a split cuts the leaf's key run: the midpoint by
// default, or — under balanced splits — the widest key-space gap within the
// middle half [len/4, 3·len/4], ties broken toward the midpoint and then
// the lower index. Both halves are always non-empty, and the choice is a
// pure function of the key run, so determinism is untouched.
func (x *Index) splitPoint(ks []int64) int {
	mid := len(ks) / 2
	if !x.balancedSplit {
		return mid
	}
	lo, hi := len(ks)/4, 3*len(ks)/4
	if lo < 1 {
		lo = 1
	}
	if hi > len(ks)-1 {
		hi = len(ks) - 1
	}
	best, bestGap := mid, int64(-1)
	for j := lo; j <= hi; j++ {
		g := ks[j] - ks[j-1]
		switch {
		case g > bestGap:
			best, bestGap = j, g
		case g == bestGap && absInt(j-mid) < absInt(best-mid):
			best = j
		}
	}
	return best
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Retrain is the explicit maintenance hook and the cascade path: every key
// is repartitioned into fresh leaves at the leaf target (every leaf back to
// ~50% density, fresh models, fresh router).
func (x *Index) Retrain() {
	sorted := make([]int64, 0, x.v.total)
	for _, nd := range x.v.nodes {
		sorted = nd.keysInto(sorted)
	}
	x.install(x.buildLeaves(sorted))
	x.retrains++
	x.lastRebuild = len(sorted)
}

// RetrainPossible reports whether the NEXT insert could split a leaf
// (index.TriggerPredictor): true iff some leaf is one accepted key from its
// threshold. Exact for the leaf the key routes to, conservative overall.
func (x *Index) RetrainPossible() bool {
	for _, nd := range x.v.nodes {
		if nd.nearSplit() {
			return true
		}
	}
	return false
}

// LastRebuildSize reports the keys rehomed by the most recent maintenance
// event (index.RebuildSizer): a split prices its leaf, a cascade or
// explicit retrain the whole index.
func (x *Index) LastRebuildSize() int { return x.lastRebuild }

// Stats reports the uniform backend summary. Buffered is always zero —
// gapped arrays absorb writes in place; what other backends express as
// buffer staleness shows up here as ContentLoss drift and structural cost.
func (x *Index) Stats() index.Stats {
	model, content, window := x.v.losses()
	return index.Stats{
		Keys:        x.v.total,
		Retrains:    x.retrains,
		ModelLoss:   model,
		ContentLoss: content,
		Window:      window,
	}
}

// Struct returns the cumulative structural-maintenance accounting.
func (x *Index) Struct() StructStats {
	return StructStats{
		ShiftWrites: x.shiftWrites,
		Splits:      x.splits,
		SplitKeys:   x.splitKeys,
		Cascades:    x.cascades,
		CascadeKeys: x.cascadeKeys,
		Nodes:       len(x.v.nodes),
	}
}

// NumNodes returns the current leaf count.
func (x *Index) NumNodes() int { return len(x.v.nodes) }

// NodeInfo describes leaf i's shape — the structural state the cascade
// attacker targets by density.
func (x *Index) NodeInfo(i int) NodeInfo {
	nd := x.v.nodes[i]
	return NodeInfo{Used: nd.used, Cap: len(nd.slots)}
}

// NodeKeys returns leaf i's stored keys in order.
func (x *Index) NodeKeys(i int) []int64 {
	nd := x.v.nodes[i]
	return nd.keysInto(make([]int64, 0, nd.used))
}

// InsertCost prices an insert of k into leaf i — the slot writes the
// current layout would pay — WITHOUT mutating anything. It is a pure read
// (safe to fan across workers between mutations); the caller must route k
// to leaf i and k must be absent. This is the cascade attacker's oracle.
func (x *Index) InsertCost(i int, k int64) int {
	return x.v.nodes[i].plan(k).writes
}
