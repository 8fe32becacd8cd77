// Package engine is the repository's parallel execution substrate: a
// bounded worker pool with DETERMINISTIC, index-ordered results.
//
// Every sweep in this codebase — per-gap candidate evaluation inside the
// greedy attack, per-segment second-stage attacks of Algorithm 2, and the
// per-cell figure sweeps of internal/bench — is a pure function of its task
// index. The engine exploits that: tasks are distributed to workers by an
// atomic cursor (so load balances dynamically), but results land in a slice
// indexed by task, and callers reduce that slice in index order. The output
// is therefore byte-identical to a sequential run for any worker count,
// which the equivalence tests in core and bench enforce.
//
// Determinism contract:
//
//  1. Task functions must be pure with respect to the task index (no
//     dependence on execution order or shared mutable state beyond
//     memoization of deterministic values).
//  2. Map/MapChunks return results in task-index order, never completion
//     order.
//  3. Callers must fold results in index order (floating-point reductions
//     are order-sensitive).
//
// Under this contract, workers=1 and workers=NumCPU produce identical
// bytes, so parallelism is a pure performance knob.
package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool bounds the number of concurrent workers used by Map and MapChunks.
// The zero-value / nil Pool is sequential.
type Pool struct {
	workers int
}

// New returns a pool with the given worker bound. workers <= 0 selects
// runtime.GOMAXPROCS(0) — "use every core". workers == 1 is strictly
// sequential: task functions run inline on the calling goroutine.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers returns the pool's worker bound (1 for a nil pool).
func (p *Pool) Workers() int {
	if p == nil || p.workers < 1 {
		return 1
	}
	return p.workers
}

// ctxErr is a non-blocking cancellation check.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// Map runs fn(i) for every i in [0, n) on the pool and returns the results
// in index order. With a sequential pool, tasks run inline in increasing
// index order — exactly the historical single-threaded loops this package
// replaces. With a parallel pool, tasks are claimed from an atomic cursor
// by the calling goroutine plus up to workers−1 helpers borrowed from a
// persistent package-level pool (see job), so a Map call costs no goroutine
// spawns.
//
// The first error (by task index, matching what a sequential run would have
// reported) aborts the map; remaining tasks are skipped once it is observed.
// Context cancellation aborts between tasks with ctx.Err().
func Map[T any](ctx context.Context, p *Pool, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, ctxErr(ctx)
	}
	out := make([]T, n)
	if err := mapInto(ctx, p, n, out, fn); err != nil {
		return nil, err
	}
	return out, nil
}

// mapInto is Map writing into a caller-provided slice (len(out) >= n).
func mapInto[T any](ctx context.Context, p *Pool, n int, out []T, fn func(i int) (T, error)) error {
	workers := p.Workers()
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctxErr(ctx); err != nil {
				return err
			}
			v, err := fn(i)
			if err != nil {
				return err
			}
			out[i] = v
		}
		return nil
	}

	var (
		mu     sync.Mutex
		errIdx = n // lowest failing task index seen so far
		first  error
	)
	record := func(i int, err error) {
		mu.Lock()
		if i < errIdx {
			errIdx, first = i, err
		}
		mu.Unlock()
	}
	j := &job{n: int64(n), done: make(chan struct{})}
	j.fn = func(i int) bool {
		if err := ctxErr(ctx); err != nil {
			record(-1, err) // cancellation outranks any task error
			return false
		}
		v, err := fn(i)
		if err != nil {
			record(i, err)
			return false
		}
		out[i] = v
		return true
	}
	j.submit(workers - 1)
	return first
}

// A job is one parallel map invocation's shared work state. Task indices
// are handed out by an atomic cursor; the submitting goroutine always
// participates, and idle helpers from the package-level pool join via
// tokens. Because the submitter alone is sufficient for progress, nested
// parallel maps (Algorithm 2's per-segment phases running parallel inner
// scans) can never deadlock, no matter how busy the helpers are.
type job struct {
	fn     func(i int) bool // false poisons the cursor (error or cancellation)
	n      int64
	cursor atomic.Int64
	// state packs a "closed" gate bit with the count of helpers currently
	// inside run(). The submitter closes the gate after its own run()
	// returns, then waits for the count to drain, so fn — a closure over
	// the submitter's stack — is never invoked after the map returns.
	state atomic.Int64
	done  chan struct{} // closed by the last helper to leave a closed job
}

// jobClosed is the gate bit in job.state.
const jobClosed = int64(1) << 62

var (
	helperOnce   sync.Once
	helperTokens chan *job
)

// startHelpers parks one helper goroutine per core, once per process.
// Attack loops issue one short Map per greedy step — thousands per sweep —
// and spawning fresh goroutines for each was measurable allocation and
// latency; a parked helper costs one channel send to recruit.
func startHelpers() {
	helperTokens = make(chan *job, 1024)
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		go func() {
			for j := range helperTokens {
				j.help()
			}
		}()
	}
}

// help joins the job unless its gate already closed (a stale token).
func (j *job) help() {
	for {
		s := j.state.Load()
		if s&jobClosed != 0 {
			return
		}
		if j.state.CompareAndSwap(s, s+1) {
			break
		}
	}
	j.run()
	if j.state.Add(-1) == jobClosed {
		close(j.done) // gate closed and this was the last helper out
	}
}

// run claims and executes tasks until the cursor is exhausted or poisoned.
func (j *job) run() {
	for {
		i := j.cursor.Add(1) - 1
		if i >= j.n {
			return
		}
		if !j.fn(int(i)) {
			j.cursor.Store(j.n) // poison: everyone else's next claim exits
			return
		}
	}
}

// submit recruits up to extra helpers, works the job on the calling
// goroutine, and returns only when every participant has left the job.
func (j *job) submit(extra int) {
	helperOnce.Do(startHelpers)
recruit:
	for i := 0; i < extra; i++ {
		select {
		case helperTokens <- j:
		default:
			break recruit // buffer full: caller still finishes the job alone
		}
	}
	j.run()
	for {
		s := j.state.Load()
		if j.state.CompareAndSwap(s, s|jobClosed) {
			if s == 0 {
				return // no helper inside; done will never be closed
			}
			break
		}
	}
	<-j.done
}

// MapChunks partitions [0, n) into contiguous chunks of at most grain
// indices and runs fn(lo, hi) per chunk, returning per-chunk results in
// chunk order. It is the batching form of Map for very cheap per-index
// work (e.g. the O(1) candidate evaluations of the single-point attack),
// where per-task scheduling overhead would dominate.
//
// Chunk boundaries never affect results under the package's determinism
// contract: callers scan [lo, hi) in increasing order and reduce chunk
// results in chunk order, which composes to the full sequential scan.
func MapChunks[T any](ctx context.Context, p *Pool, n, grain int, fn func(lo, hi int) (T, error)) ([]T, error) {
	out, err := MapChunksInto(ctx, p, n, grain, nil, fn)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MapChunksInto is MapChunks with a caller-provided result buffer, reused
// when its capacity suffices and grown otherwise; it returns the buffer
// actually used. High-frequency scans — the greedy attack runs one chunked
// candidate scan per inserted key — hold one buffer across calls and reach
// a zero-allocation steady state (see DESIGN.md §3, "Allocation budget").
// On error the returned buffer is still valid for reuse but its contents
// are meaningless.
func MapChunksInto[T any](ctx context.Context, p *Pool, n, grain int, buf []T, fn func(lo, hi int) (T, error)) ([]T, error) {
	if n <= 0 {
		return buf[:0], ctxErr(ctx)
	}
	if grain < 1 {
		grain = 1
	}
	chunks := (n + grain - 1) / grain
	if cap(buf) < chunks {
		buf = make([]T, chunks)
	} else {
		buf = buf[:chunks]
	}
	if p.Workers() == 1 || chunks == 1 {
		// Inline sequential loop: the adapter closure below would escape and
		// cost one heap allocation per call, which is exactly what the
		// buffer-reusing callers are here to avoid.
		for c := 0; c < chunks; c++ {
			if err := ctxErr(ctx); err != nil {
				return buf, err
			}
			lo := c * grain
			hi := lo + grain
			if hi > n {
				hi = n
			}
			v, err := fn(lo, hi)
			if err != nil {
				return buf, err
			}
			buf[c] = v
		}
		return buf, nil
	}
	err := mapInto(ctx, p, chunks, buf, func(c int) (T, error) {
		lo := c * grain
		hi := lo + grain
		if hi > n {
			hi = n
		}
		return fn(lo, hi)
	})
	return buf, err
}

// GrainFor returns a chunk size that splits n indices into roughly 16
// chunks per worker — enough slack for dynamic load balancing when per-index
// cost varies (gap widths differ wildly) without drowning cheap loops in
// scheduling overhead. Callers with very cheap per-index work should clamp
// the result up to a floor of their choosing.
func GrainFor(n int, p *Pool) int {
	g := n / (16 * p.Workers())
	if g < 1 {
		g = 1
	}
	return g
}

// GrainForMin is GrainFor clamped up to floor. The incremental attack
// kernel made per-candidate work a handful of float operations, so scans
// over candidates need coarser chunks than GrainFor's default before
// scheduling overhead stops mattering; callers state their floor here
// instead of open-coding the clamp.
func GrainForMin(n int, p *Pool, floor int) int {
	g := GrainFor(n, p)
	if g < floor {
		g = floor
	}
	return g
}
