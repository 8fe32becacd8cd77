package index

// The sorted-batch probe kernel contract (DESIGN.md §12).
//
// Every scenario in the harness evaluates ProbeSum over the legit/eval key
// batch against both the victim and the clean twin, every epoch. The per-key
// reference (ProbeSum in index.go) re-runs model prediction, envelope
// computation, and routing from scratch for each key. When the batch is
// SORTED, a backend can instead resolve all ranks in one merged forward pass
// over its own sorted storage — a gallop cursor that only ever moves right —
// and replay each key's binary-search probe count arithmetically from the
// known rank, because every comparison outcome during a search over a sorted
// array is a pure function of the key's lower-bound position and membership.
//
// The hard invariant is BIT-IDENTITY: ProbeSumSorted must return exactly the
// (probes, notFound) the per-key reference returns on the same batch. Probe
// count is the paper's semantic metric; only wall-clock may change. The
// cross-backend differential suite (batch_test.go) and FuzzBatchProbeSum pin
// this for every backend, snapshot, and wrapper.
//
// Sortedness is a PRECONDITION, not a check: callers pass a non-decreasing
// batch (duplicates allowed) and kernels are free to produce garbage
// otherwise. Scenario callers sort once per epoch into a reusable scratch
// slice (internal/core's probeEval) so the steady state allocates nothing.

import (
	"sort"
	"sync"
)

// BatchReader is the optional fast path a PointReader may implement: batch
// probe evaluation over a SORTED (non-decreasing, duplicates allowed) query
// slice, bit-identical to the per-key reference ProbeSum on the same batch.
// Implementations must not retain or mutate the slice.
type BatchReader interface {
	ProbeSumSorted(sorted []int64) (probes int64, notFound int)
}

// ProbeSumSorted evaluates a sorted query batch against r, dispatching to
// the backend's native batch kernel when it implements BatchReader and
// falling back to the per-key reference otherwise. The precondition and the
// bit-identity contract are those of BatchReader.
func ProbeSumSorted(r PointReader, sorted []int64) (probes int64, notFound int) {
	if br, ok := r.(BatchReader); ok {
		return br.ProbeSumSorted(sorted)
	}
	return ProbeSum(r, sorted)
}

// SearchDepths tabulates the probe count of the canonical windowed binary
// search (mid = (lo+hi)/2, three-way compare) as a pure function of the
// target's rank within the window. For a window of size s:
//
//   - Hit[t] is the number of probes until mid == t, for a key stored at
//     window-relative rank t — the loop's depth+1 at the node t occupies in
//     the implicit search tree;
//   - Gap[g] is the number of probes until the window empties, for a key
//     whose lower-bound rank falls in gap g (between ranks g-1 and g) — the
//     depth of the g-th leaf. Ranks outside the window clamp to the
//     leftmost (0) or rightmost (s) gap, whose descent they replay exactly.
//
// This is what makes the batch kernels O(1) per key instead of O(log n):
// once a merged gallop pass has resolved a key's rank, its probe count is a
// table read — no mid-sequence walk, no data-dependent branches.
type SearchDepths struct {
	Hit []int32 // len s: probes to find rank t
	Gap []int32 // len s+1: probes to exhaust on gap g
}

var (
	depthMu    sync.RWMutex
	depthCache = map[int]*SearchDepths{}
)

// ProbeDepths returns the (process-wide, lazily built) depth tables for a
// search window of size s ≥ 1. Tables depend only on s, so they are shared
// across backends, views, and goroutines; the cache retains every size ever
// requested, so steady-state callers never allocate. Callers must only ask
// for sizes from a bounded set — the two unclamped envelope sizes and the
// delta-buffer fill. Windows clamped at an array edge take any size up to
// the array length, and a table per such size would grow the cache without
// bound; those go through DescentProbes instead.
func ProbeDepths(s int) *SearchDepths {
	depthMu.RLock()
	t := depthCache[s]
	depthMu.RUnlock()
	if t != nil {
		return t
	}
	t = &SearchDepths{Hit: make([]int32, s), Gap: make([]int32, s+1)}
	type frame struct{ lo, hi, depth int32 }
	stack := make([]frame, 1, 64)
	stack[0] = frame{0, int32(s) - 1, 0}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.lo > f.hi {
			t.Gap[f.lo] = f.depth
			continue
		}
		mid := (f.lo + f.hi) >> 1
		t.Hit[mid] = f.depth + 1
		stack = append(stack,
			frame{f.lo, mid - 1, f.depth + 1},
			frame{mid + 1, f.hi, f.depth + 1})
	}
	depthMu.Lock()
	if prior := depthCache[s]; prior != nil {
		t = prior
	} else {
		depthCache[s] = t
	}
	depthMu.Unlock()
	return t
}

// DescentProbes replays the canonical windowed binary search over a window
// of size s without a table: for hit it returns ProbeDepths(s).Hit[t], the
// probes to find the key at window-relative rank t, else Gap[t], the probes
// to exhaust on gap t. O(log s), no allocation, no cache entry.
func DescentProbes(s, t int, hit bool) int32 {
	var depth int32
	lo, hi := 0, s-1
	for lo <= hi {
		mid := (lo + hi) >> 1
		depth++
		switch {
		case hit && mid == t:
			return depth
		case mid < t:
			lo = mid + 1
		default:
			hi = mid - 1
		}
	}
	return depth
}

// GallopLower returns the smallest i in [from, len(a)) with a[i] >= k,
// assuming a is sorted ascending and a[j] < k for all j < from. It is the
// merged-pass cursor primitive shared by the batch kernels: for a sorted
// query batch, successive lower-bound positions are non-decreasing, so each
// call gallops forward from the previous answer — exponential probes then a
// binary search over the last gallop span — giving O(m log(n/m)) total work
// for an m-key batch against an n-key array instead of m full binary
// searches. These gallop probes are bookkeeping, NOT counted lookup probes;
// kernels reconstruct the reference probe count arithmetically from the
// returned position.
func GallopLower(a []int64, k int64, from int) int {
	n := len(a)
	if from >= n || a[from] >= k {
		return from
	}
	// Invariant: a[from+step/2] < k (checked), hunting for the first bound
	// with a[from+step] >= k.
	step := 1
	for from+step < n && a[from+step] < k {
		step <<= 1
	}
	lo := from + step>>1 + 1 // first untested index
	hi := from + step        // a[hi] >= k, or hi >= n
	if hi > n {
		hi = n
	}
	return lo + sort.Search(hi-lo, func(i int) bool { return a[lo+i] >= k })
}
