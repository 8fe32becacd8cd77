// Package dynamic implements an updatable learned index: a CDF regression
// model trained over a base key set, plus a sorted delta buffer absorbing
// inserts between retrains, with pluggable merge-and-retrain policies.
//
// The paper attacks a STATIC index — trained once over data the adversary
// poisons before initialization. Its successors ("Poisoning Learned Index
// Structures: Static and Dynamic Adversarial Attacks on ALEX"; "Algorithmic
// Complexity Attacks on Dynamic Learned Indexes") show the more realistic
// threat is an adversary drip-feeding keys into an UPDATABLE index across
// retrain cycles. This package provides the victim for that online scenario
// (core.OnlinePoisonAttack): a delta-buffer index in the style of ALEX /
// PGM's dynamic variants, reduced to the same single-regression substrate
// the rest of the repository measures.
//
// Structure:
//
//   - The BASE is an immutable keys.Set the current model was trained on;
//     lookups over it use the model's prediction plus the guaranteed error
//     envelope recorded at training time (exactly the rmi package's
//     last-mile contract, for one model).
//   - The BUFFER is a small sorted slice of keys accepted since the last
//     retrain; lookups fall back to plain binary search over it. A growing
//     buffer degrades lookups even when the model is clean — one of the two
//     costs the online attacker can drive.
//   - A RETRAIN merges buffer into base and refits the model. When it
//     happens is the RetrainPolicy: after every K-th insert call, when the
//     buffer reaches a size threshold, or only on explicit Retrain() calls.
//
// The full read state (base, model, envelope, buffer) lives in one value —
// the VIEW — and Snapshot() freezes it in O(1): the base and model are
// immutable by construction and the buffer is copy-on-write (the next
// mutation clones it instead of editing in place), so a handed-out snapshot
// keeps answering from the state at capture time no matter what the live
// index does afterwards. This is the read plane of index.Backend (DESIGN.md
// §7) and what the background-retrain pipeline publishes.
//
// Everything is deterministic: no RNG, no map iteration, no wall clock.
// Identical insert sequences produce identical indexes, which the online
// attack's worker-equivalence tests rely on.
package dynamic

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"cdfpoison/internal/index"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/regression"
)

// Index implements index.Backend, the contract the serving scenarios and
// the backend comparison sweep are written against, and the optional rank
// face index.Ranker.
var (
	_ index.Backend = (*Index)(nil)
	_ index.Ranker  = (*Index)(nil)
)

// ErrTooFew is returned when constructing an index over fewer than two keys:
// a CDF regression needs at least two points to be meaningful.
var ErrTooFew = errors.New("dynamic: need at least two initial keys")

// PolicyKind enumerates the merge-and-retrain triggers.
type PolicyKind int

const (
	// Manual never retrains automatically; the owner calls Retrain().
	// In the online scenario this models a victim that rebuilds on a
	// maintenance schedule (one forced retrain per epoch).
	Manual PolicyKind = iota
	// EveryK retrains after every K-th call to Insert, counting attempts —
	// accepted or not. This models write-count maintenance schedules
	// (e.g. "rebuild every 10k writes"), which an adversary can tick
	// forward with duplicate inserts that never enter the data.
	EveryK
	// BufferThreshold retrains as soon as the delta buffer holds K accepted
	// keys — the classic bounded-buffer merge policy of dynamic learned
	// indexes (duplicates do not advance it).
	BufferThreshold
)

// String names the kind for reports and CSV cells.
func (k PolicyKind) String() string {
	switch k {
	case Manual:
		return "manual"
	case EveryK:
		return "every-k"
	case BufferThreshold:
		return "buffer"
	default:
		return fmt.Sprintf("PolicyKind(%d)", int(k))
	}
}

// RetrainPolicy selects when the index merges its buffer and refits.
// The zero value is Manual.
type RetrainPolicy struct {
	Kind PolicyKind
	// K is the trigger parameter: insert-call period for EveryK, buffer
	// size for BufferThreshold; ignored by Manual.
	K int
}

// ManualPolicy retrains only on explicit Retrain() calls.
func ManualPolicy() RetrainPolicy { return RetrainPolicy{Kind: Manual} }

// EveryKInserts retrains after every k-th Insert call (k >= 1).
func EveryKInserts(k int) RetrainPolicy { return RetrainPolicy{Kind: EveryK, K: k} }

// BufferLimit retrains when the delta buffer reaches size k (k >= 1).
func BufferLimit(k int) RetrainPolicy { return RetrainPolicy{Kind: BufferThreshold, K: k} }

func (p RetrainPolicy) validate() error {
	switch p.Kind {
	case Manual:
		return nil
	case EveryK, BufferThreshold:
		if p.K < 1 {
			return fmt.Errorf("dynamic: %s policy needs K >= 1, got %d", p.Kind, p.K)
		}
		return nil
	default:
		return fmt.Errorf("dynamic: unknown policy kind %d", int(p.Kind))
	}
}

// String renders the policy compactly ("manual", "every-8", "buffer-64").
func (p RetrainPolicy) String() string {
	if p.Kind == Manual {
		return "manual"
	}
	return fmt.Sprintf("%s-%d", p.Kind, p.K)
}

// view is the complete read state of the index at one instant: the base
// set the model was trained on, the fitted model with its guaranteed error
// envelope, and the delta buffer. A *view is also the index's
// index.Snapshot: the base and model never mutate after a fit, and the
// buffer slice is copy-on-write (see Index.bufShared), so a view handed
// out by Snapshot() is frozen for good.
type view struct {
	base  keys.Set         // keys the current model was trained on
	model regression.Model // fitted on base at the last retrain
	// eLo/eHi bound (actual rank − predicted rank) over base, recorded at
	// retrain time: the guaranteed last-mile search envelope.
	eLo, eHi float64

	buffer []int64 // sorted, duplicate-free keys accepted since last retrain
}

var _ index.Snapshot = (*view)(nil)

// Index is an updatable learned index: base set + model + delta buffer.
// It is NOT safe for concurrent mutation; the online attack drives it from
// a single goroutine and parallelizes only pure reads.
// FitFunc is a pluggable CDF trainer: given the base set, produce the model
// lookups will navigate by. nil means regression.FitCDF — the exact
// least-squares fit the paper attacks. internal/robust provides
// poisoning-resistant implementations (Theil–Sen, trimmed least squares);
// the defense plane threads them in through NewWithFit (DESIGN.md §10).
type FitFunc func(keys.Set) (regression.Model, error)

type Index struct {
	policy RetrainPolicy
	// fitFn is the pluggable trainer; nil selects regression.FitCDF.
	fitFn FitFunc

	v view
	// bufShared marks the buffer slice as aliased by a handed-out snapshot:
	// the next buffer mutation must clone instead of editing in place, so
	// the snapshot keeps its capture-time contents.
	bufShared bool
	// snap is the view Snapshot last handed out, while it still equals v:
	// every write to v clears it, so captures between two writes share one
	// view.
	snap *view

	inserts  int // Insert calls since the last retrain (EveryK counter)
	retrains int // completed retrains (the initial fit is not counted)
	// lastFit is the size of the base the most recent (re)fit covered — what
	// a rebuild cost model prices (index.RebuildSizer).
	lastFit int
}

// New builds an index over the initial key set (>= 2 keys) and trains the
// first model. The initial fit does not count as a retrain.
func New(initial keys.Set, policy RetrainPolicy) (*Index, error) {
	return NewWithFit(initial, policy, nil)
}

// NewWithFit is New with a pluggable trainer: every (re)fit — the initial
// one and every policy or explicit retrain — goes through fit instead of
// regression.FitCDF. The error envelope is still recorded over the FULL
// base against the returned model, so lookups stay exact no matter which
// keys the trainer chose to down-weight or ignore. A nil fit selects
// regression.FitCDF (byte-identical to New).
func NewWithFit(initial keys.Set, policy RetrainPolicy, fit FitFunc) (*Index, error) {
	if err := policy.validate(); err != nil {
		return nil, err
	}
	if initial.Len() < 2 {
		return nil, ErrTooFew
	}
	x := &Index{policy: policy, fitFn: fit}
	if err := x.fit(initial); err != nil {
		return nil, err
	}
	return x, nil
}

// fit retrains the model and error envelope on the given base set. Handed-
// out snapshots are unaffected: they copied the view value, and fit only
// reassigns the live index's fields.
func (x *Index) fit(base keys.Set) error {
	train := x.fitFn
	if train == nil {
		train = regression.FitCDF
	}
	m, err := train(base)
	if err != nil {
		return err
	}
	x.snap = nil
	x.v.base = base
	x.v.model = m
	x.v.eLo, x.v.eHi = math.Inf(1), math.Inf(-1)
	for i := 0; i < base.Len(); i++ {
		d := float64(i+1) - m.Predict(base.At(i))
		if d < x.v.eLo {
			x.v.eLo = d
		}
		if d > x.v.eHi {
			x.v.eHi = d
		}
	}
	x.lastFit = base.Len()
	return nil
}

// LastRebuildSize reports how many keys the most recent retrain refit —
// the size the background-retrain pipeline's cost model prices
// (index.RebuildSizer).
func (x *Index) LastRebuildSize() int { return x.lastFit }

// RetrainPossible reports whether the next Insert call could trigger a
// policy retrain (index.TriggerPredictor, conservative): never under
// Manual, at the K-th write under EveryK, and when one more accepted key
// would fill the buffer under BufferThreshold (a duplicate would not — the
// answer is a possibility, not a certainty).
func (x *Index) RetrainPossible() bool {
	switch x.policy.Kind {
	case EveryK:
		return x.inserts+1 >= x.policy.K
	case BufferThreshold:
		return len(x.v.buffer)+1 >= x.policy.K
	default: // Manual
		return false
	}
}

// Insert offers a key to the index. accepted is false when k is negative or
// already present (base or buffer); retrained is true when this call
// triggered a policy retrain. Note that with EveryK even a rejected
// duplicate advances the retrain counter — it was a write, and write-count
// schedules tick on writes.
func (x *Index) Insert(k int64) (accepted, retrained bool) {
	x.inserts++
	if k >= 0 && !x.contains(k) {
		i := sort.Search(len(x.v.buffer), func(i int) bool { return x.v.buffer[i] >= k })
		x.insertBuffer(i, k)
		accepted = true
	}
	switch x.policy.Kind {
	case EveryK:
		if x.inserts >= x.policy.K {
			retrained = true
		}
	case BufferThreshold:
		if len(x.v.buffer) >= x.policy.K {
			retrained = true
		}
	}
	if retrained {
		x.Retrain()
	}
	return accepted, retrained
}

// insertBuffer places k at buffer position i. When the buffer is aliased by
// a snapshot the whole slice is cloned (same O(len) cost as the in-place
// shift, plus one allocation); otherwise it shifts in place exactly as the
// pre-snapshot implementation did.
func (x *Index) insertBuffer(i int, k int64) {
	x.v.buffer = keys.InsertAt(x.v.buffer, i, k, x.bufShared)
	x.bufShared = false
	x.snap = nil
}

// contains reports whether k is in the base or the buffer.
func (x *Index) contains(k int64) bool {
	if x.v.base.Contains(k) {
		return true
	}
	i := sort.Search(len(x.v.buffer), func(i int) bool { return x.v.buffer[i] >= k })
	return i < len(x.v.buffer) && x.v.buffer[i] == k
}

// Retrain merges the buffer into the base and refits the model. Retraining
// with an empty buffer is legal and counted: the model refits to the same
// data (byte-identically — the fit is deterministic) and the retrain
// counter still advances, which is what a wall-clock maintenance schedule
// does on an idle index.
func (x *Index) Retrain() {
	if len(x.v.buffer) > 0 {
		// fit cannot fail here: the merged set has >= 2 keys by construction.
		if err := x.fit(x.v.Keys()); err != nil {
			panic(fmt.Sprintf("dynamic: refit after merge: %v", err))
		}
		x.v.buffer = nil
		x.bufShared = false
	} else if err := x.fit(x.v.base); err != nil {
		panic(fmt.Sprintf("dynamic: refit on empty buffer: %v", err))
	}
	x.inserts = 0
	x.retrains++
}

// Snapshot freezes the current read state in O(1): the returned view shares
// the immutable base and model, and marks the buffer copy-on-write so the
// next mutation clones rather than edits it. The snapshot's probe counts
// are identical to the live index's at capture time. Until the next write
// (an accepted insert or a retrain) every capture returns the same view, so
// a sharded index re-capturing after a write allocates a view only for the
// shard that changed.
func (x *Index) Snapshot() index.Snapshot {
	if x.snap == nil {
		x.bufShared = true
		s := x.v
		x.snap = &s
	}
	return x.snap
}

// Len returns the total number of stored keys (base + buffer).
func (x *Index) Len() int { return x.v.Len() }

// Window returns how many stored keys (base and buffer) are below k, and
// dst with the stored keys of ranks [pos−w, pos+w), clipped to the
// content, appended in order (index.Ranker): one binary search in each
// sorted array, a walk back over the w keys below k to find where the
// window starts in each array, and a merge walk forward of at most 2w keys
// to read it.
func (x *Index) Window(k int64, w int, dst []int64) (pos int, near []int64) {
	a, b := x.v.base.Keys(), x.v.buffer
	i, _ := slices.BinarySearch(a, k)
	j, _ := slices.BinarySearch(b, k)
	pos = i + j
	w = min(w, len(a)+len(b))
	for t := 0; t < w && i+j > 0; t++ {
		if j > 0 && (i == 0 || b[j-1] > a[i-1]) {
			j--
		} else {
			i--
		}
	}
	for t := pos - (i + j) + w; t > 0 && i+j < len(a)+len(b); t-- {
		if j == len(b) || (i < len(a) && a[i] < b[j]) {
			dst = append(dst, a[i])
			i++
		} else {
			dst = append(dst, b[j])
			j++
		}
	}
	return pos, dst
}

// At returns the stored key of 0-based rank i (index.Ranker): a select over
// the two sorted, disjoint arrays in O(log n), without merging them.
func (x *Index) At(i int) int64 {
	a, b := x.v.base.Keys(), x.v.buffer
	// c, how many buffer keys are among the i+1 smallest, lies in
	// [lo, hi]. For j in (lo, hi], taking j buffer keys is too many exactly
	// when b[j-1] sorts after a[i+1-j], the smallest base key that j would
	// leave out (j > lo keeps that index inside a). The test is false up to
	// c and true after it.
	lo, hi := max(0, i+1-len(a)), min(len(b), i+1)
	for lo < hi {
		j := (lo + hi + 1) / 2
		if b[j-1] > a[i+1-j] {
			hi = j - 1
		} else {
			lo = j
		}
	}
	c := lo
	// The answer is the larger of the last buffer key and the last base key
	// taken.
	if c == 0 {
		return a[i]
	}
	if i-c < 0 || b[c-1] > a[i-c] {
		return b[c-1]
	}
	return a[i-c]
}

// BufferLen returns the number of keys waiting in the delta buffer.
func (x *Index) BufferLen() int { return len(x.v.buffer) }

// Keys materializes the full current content (base ∪ buffer) as a fresh
// key set. O(n); used by evaluation code, not by lookups.
func (x *Index) Keys() keys.Set { return x.v.Keys() }

// AppendKeys appends the full current content (base ∪ buffer) to dst in
// order and returns the extended slice: the merge Keys materializes,
// written where the caller says, so a sharded index builds its whole
// content in one allocation.
func (x *Index) AppendKeys(dst []int64) []int64 { return x.v.appendKeys(dst) }

// LookupResult reports a point query against the dynamic index: Probes
// counts key comparisons across the base window plus the buffer search,
// Window is the guaranteed base search-window width for this query, and
// InBuffer marks keys served from the delta buffer.
type LookupResult = index.LookupResult

// Lookup finds a key, counting comparisons. Base keys are searched within
// the model's guaranteed error envelope (always found); buffer keys fall
// back to binary search over the buffer. The probe count is the
// implementation-independent cost metric the online attack degrades.
func (x *Index) Lookup(k int64) LookupResult { return x.v.Lookup(k) }

// ProbeSum runs a lookup for every query key and returns the exact total
// probe count plus how many were not found. Integer sums are
// order-independent, so callers may partition queryKeys across workers and
// add the partial sums in any grouping without changing the result — the
// property core.OnlinePoisonAttack's parallel evaluation leans on.
func (x *Index) ProbeSum(queryKeys []int64) (probes int64, notFound int) {
	return x.v.ProbeSum(queryKeys)
}

// Lookup is the shared probe-counted point query both the live index and
// its snapshots serve through.
func (v *view) Lookup(k int64) LookupResult {
	var res LookupResult
	pred := v.model.Predict(k)
	lo := int(math.Floor(pred+v.eLo)) - 1 // 1-based rank → 0-based index
	hi := int(math.Ceil(pred+v.eHi)) - 1
	if lo < 0 {
		lo = 0
	}
	if hi > v.base.Len()-1 {
		hi = v.base.Len() - 1
	}
	if lo <= hi {
		res.Window = hi - lo + 1
		for lo <= hi {
			mid := (lo + hi) / 2
			res.Probes++
			switch c := v.base.At(mid); {
			case c == k:
				res.Found = true
				return res
			case c < k:
				lo = mid + 1
			default:
				hi = mid - 1
			}
		}
	}
	// Not in base: the buffer is unmodeled, plain binary search.
	blo, bhi := 0, len(v.buffer)-1
	for blo <= bhi {
		mid := (blo + bhi) / 2
		res.Probes++
		switch c := v.buffer[mid]; {
		case c == k:
			res.Found = true
			res.InBuffer = true
			return res
		case c < k:
			blo = mid + 1
		default:
			bhi = mid - 1
		}
	}
	return res
}

// ProbeSum is the snapshot's batch evaluation; integer sums are
// partition-invariant, exactly as on the live index.
func (v *view) ProbeSum(queryKeys []int64) (probes int64, notFound int) {
	for _, k := range queryKeys {
		r := v.Lookup(k)
		probes += int64(r.Probes)
		if !r.Found {
			notFound++
		}
	}
	return probes, notFound
}

// Len returns the total number of keys visible in this view.
func (v *view) Len() int { return v.base.Len() + len(v.buffer) }

// Keys materializes the view's full content (base ∪ buffer).
func (v *view) Keys() keys.Set {
	if len(v.buffer) == 0 {
		return v.base
	}
	return keys.FromSorted(v.appendKeys(make([]int64, 0, v.Len())))
}

// appendKeys merges base and buffer onto dst. Base and buffer are sorted
// and disjoint, so each buffer key follows the run of base keys below it:
// one binary search and one block copy per buffer key.
func (v *view) appendKeys(dst []int64) []int64 {
	a := v.base.Keys()
	for _, k := range v.buffer {
		i, _ := slices.BinarySearch(a, k)
		dst = append(append(dst, a[:i]...), k)
		a = a[i:]
	}
	return append(dst, a...)
}

// contentLoss is regression.EvaluateCDF(v.model.Line, v.Keys()) without
// materializing the union: the same squared residuals, added in the same
// rank order, over a merge walk of base and buffer, so the bits match.
func (v *view) contentLoss() float64 {
	l := v.model.Line
	a, b := v.base.Keys(), v.buffer
	var sum float64
	for i, j := 0, 0; i+j < len(a)+len(b); {
		var k int64
		if j == len(b) || (i < len(a) && a[i] < b[j]) {
			k = a[i]
			i++
		} else {
			k = b[j]
			j++
		}
		d := l.Predict(k) - float64(i+j)
		sum += d * d
	}
	return sum / float64(len(a)+len(b))
}

// Stats is the uniform backend summary (index.Stats).
type Stats = index.Stats

// Stats computes the summary. ContentLoss evaluates the current model
// against the full current content (base ∪ buffer), so staleness between
// retrains is visible; ModelLoss is the in-sample MSE on the base alone.
func (x *Index) Stats() Stats {
	w := int(math.Ceil(x.v.eHi)-math.Floor(x.v.eLo)) + 1
	if w < 1 {
		w = 1
	}
	return Stats{
		Keys:        x.Len(),
		Buffered:    len(x.v.buffer),
		Retrains:    x.retrains,
		ModelLoss:   x.v.model.Loss,
		ContentLoss: x.v.contentLoss(),
		Window:      w,
	}
}
