package core

import (
	"context"

	"cdfpoison/internal/engine"
)

// Option configures how an attack entry point executes — parallelism and
// cancellation — without touching what it computes. The zero configuration
// (no options) runs sequentially on the calling goroutine, byte-identical
// to the historical single-threaded implementation.
//
// Determinism contract: for ANY worker count the attack output is identical
// to the sequential run. Parallel paths reduce per-chunk results in task
// index order (see internal/engine), so worker scheduling can never leak
// into results. The equivalence tests in parallel_test.go enforce this.
type Option func(*exec)

type exec struct {
	ctx            context.Context
	pool           *engine.Pool
	exhaustiveScan bool
}

// WithWorkers bounds the attack's worker pool: n == 1 is sequential, n > 1
// uses exactly n workers, and n <= 0 means "one worker per core"
// (runtime.GOMAXPROCS).
func WithWorkers(n int) Option {
	return func(e *exec) { e.pool = engine.New(n) }
}

// WithExhaustiveScan disables the pruned endpoint scan (DESIGN.md §11) and
// forces the exhaustive per-gap endpoint sweep. The chosen key and every
// loss are bit-identical either way — this switch exists for the scan
// ablation, for differential tests, and for callers that want the classic
// 2(n−1)-candidate accounting semantics (e.g. the endpoint-vs-brute
// ablation).
func WithExhaustiveScan() Option {
	return func(e *exec) { e.exhaustiveScan = true }
}

// WithContext makes the attack cancellable: when ctx is cancelled the
// attack aborts between candidate evaluations and returns ctx.Err().
func WithContext(ctx context.Context) Option {
	return func(e *exec) {
		if ctx != nil {
			e.ctx = ctx
		}
	}
}

func newExec(opts []Option) exec {
	e := exec{ctx: context.Background(), pool: engine.New(1)}
	for _, o := range opts {
		o(&e)
	}
	return e
}
