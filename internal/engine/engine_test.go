package engine

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestNewWorkerResolution(t *testing.T) {
	if got := New(1).Workers(); got != 1 {
		t.Fatalf("New(1).Workers() = %d, want 1", got)
	}
	if got := New(7).Workers(); got != 7 {
		t.Fatalf("New(7).Workers() = %d, want 7", got)
	}
	if got := New(0).Workers(); got < 1 {
		t.Fatalf("New(0).Workers() = %d, want >= 1 (GOMAXPROCS)", got)
	}
	if got := New(-3).Workers(); got < 1 {
		t.Fatalf("New(-3).Workers() = %d, want >= 1 (GOMAXPROCS)", got)
	}
	var nilPool *Pool
	if got := nilPool.Workers(); got != 1 {
		t.Fatalf("nil pool Workers() = %d, want 1 (sequential)", got)
	}
}

func TestMapOrderedResults(t *testing.T) {
	ctx := context.Background()
	for _, workers := range []int{1, 2, 4, 16} {
		p := New(workers)
		got, err := Map(ctx, p, 100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 100 {
			t.Fatalf("workers=%d: len=%d", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapRunsEveryTaskExactlyOnce(t *testing.T) {
	const n = 1000
	var counts [n]int64
	_, err := Map(context.Background(), New(8), n, func(i int) (struct{}, error) {
		atomic.AddInt64(&counts[i], 1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("task %d ran %d times", i, c)
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(context.Background(), New(4), 0, func(i int) (int, error) { return 0, nil })
	if err != nil || got != nil {
		t.Fatalf("Map(n=0) = (%v, %v), want (nil, nil)", got, err)
	}
}

func TestMapLowestIndexErrorWins(t *testing.T) {
	boom := func(i int) error { return fmt.Errorf("task %d failed", i) }
	for _, workers := range []int{1, 4} {
		_, err := Map(context.Background(), New(workers), 64, func(i int) (int, error) {
			if i%7 == 3 { // fails at 3, 10, 17, ...
				return 0, boom(i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "task 3 failed" {
			t.Fatalf("workers=%d: err = %v, want task 3 failed", workers, err)
		}
	}
}

func TestMapContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1)
	// gate blocks in-flight tasks until cancel() has been issued: without
	// it, a fast single-core host can drain all 1M trivial tasks before the
	// canceling goroutine is ever scheduled, and the test flakes.
	gate := make(chan struct{})
	var ran int64
	done := make(chan error, 1)
	go func() {
		_, err := Map(ctx, New(2), 1_000_000, func(i int) (int, error) {
			atomic.AddInt64(&ran, 1)
			select {
			case started <- struct{}{}:
			default:
			}
			<-gate
			return i, nil
		})
		done <- err
	}()
	<-started
	cancel()
	close(gate)
	err := <-done
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := atomic.LoadInt64(&ran); n >= 1_000_000 {
		t.Fatalf("cancellation did not stop the map early (ran %d tasks)", n)
	}
}

func TestMapChunksCoversRangeInOrder(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, grain := range []int{1, 3, 7, 100, 1000} {
			got, err := MapChunks(context.Background(), New(workers), 101, grain,
				func(lo, hi int) ([]int, error) {
					if lo >= hi {
						return nil, fmt.Errorf("empty chunk [%d, %d)", lo, hi)
					}
					var out []int
					for i := lo; i < hi; i++ {
						out = append(out, i)
					}
					return out, nil
				})
			if err != nil {
				t.Fatalf("workers=%d grain=%d: %v", workers, grain, err)
			}
			var flat []int
			for _, c := range got {
				flat = append(flat, c...)
			}
			if len(flat) != 101 {
				t.Fatalf("workers=%d grain=%d: covered %d indices", workers, grain, len(flat))
			}
			for i, v := range flat {
				if v != i {
					t.Fatalf("workers=%d grain=%d: flat[%d] = %d", workers, grain, i, v)
				}
			}
		}
	}
}

func TestGrainFor(t *testing.T) {
	p := New(4)
	if g := GrainFor(0, p); g != 1 {
		t.Fatalf("GrainFor(0) = %d, want 1", g)
	}
	if g := GrainFor(1_000_000, p); g != 1_000_000/(16*4) {
		t.Fatalf("GrainFor(1e6) = %d", g)
	}
}

// TestMapDeterministicFloatReduction is the contract test: an index-ordered
// fold over Map results must not depend on the worker count, even for
// order-sensitive float64 accumulation.
func TestMapDeterministicFloatReduction(t *testing.T) {
	sum := func(workers int) float64 {
		vals, err := Map(context.Background(), New(workers), 10_000, func(i int) (float64, error) {
			return 1.0 / float64(i+1), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		s := 0.0
		for _, v := range vals {
			s += v
		}
		return s
	}
	want := sum(1)
	for _, workers := range []int{2, 4, 8} {
		if got := sum(workers); got != want {
			t.Fatalf("workers=%d: sum %v != sequential %v", workers, got, want)
		}
	}
}

func TestMapChunksIntoReusesBuffer(t *testing.T) {
	buf := make([]int, 8)
	out, err := MapChunksInto(context.Background(), New(2), 40, 10, buf,
		func(lo, hi int) (int, error) { return hi - lo, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 || cap(out) != 8 {
		t.Fatalf("len/cap = %d/%d, want 4/8 (buffer not reused)", len(out), cap(out))
	}
	for _, v := range out {
		if v != 10 {
			t.Fatalf("chunk sizes %v", out)
		}
	}
	// Under-sized buffer grows.
	out2, err := MapChunksInto(context.Background(), New(1), 100, 10, out,
		func(lo, hi int) (int, error) { return lo, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(out2) != 10 {
		t.Fatalf("grown len = %d, want 10", len(out2))
	}
	for i, v := range out2 {
		if v != i*10 {
			t.Fatalf("out2[%d] = %d", i, v)
		}
	}
	// n <= 0 returns an empty view of the buffer.
	empty, err := MapChunksInto(context.Background(), New(1), 0, 10, out2,
		func(lo, hi int) (int, error) { return 0, nil })
	if err != nil || len(empty) != 0 {
		t.Fatalf("n=0: (%v, %v)", empty, err)
	}
}

// TestMapChunksIntoSteadyStateZeroAlloc: repeated scans with a threaded
// buffer — the greedy attack's per-step pattern — must not allocate on a
// sequential pool.
func TestMapChunksIntoSteadyStateZeroAlloc(t *testing.T) {
	p := New(1)
	ctx := context.Background()
	buf := make([]float64, 0, 64)
	sink := 0.0
	allocs := testing.AllocsPerRun(10, func() {
		out, err := MapChunksInto(ctx, p, 10_000, 256, buf,
			func(lo, hi int) (float64, error) { return float64(hi - lo), nil })
		if err != nil {
			t.Fatal(err)
		}
		buf = out
		sink += out[0]
	})
	if allocs > 0 {
		t.Fatalf("steady-state MapChunksInto allocated %v times", allocs)
	}
	_ = sink
}

// TestNestedParallelMaps guards the deadlock-freedom claim of the helper
// pool: inner parallel maps run while every helper may be busy with outer
// tasks, because the submitting goroutine always participates.
func TestNestedParallelMaps(t *testing.T) {
	outer := New(4)
	inner := New(4)
	got, err := Map(context.Background(), outer, 16, func(i int) (int, error) {
		vals, err := Map(context.Background(), inner, 100, func(j int) (int, error) {
			return i * j, nil
		})
		if err != nil {
			return 0, err
		}
		s := 0
		for _, v := range vals {
			s += v
		}
		return s, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if want := i * 4950; v != want {
			t.Fatalf("got[%d] = %d, want %d", i, v, want)
		}
	}
}

// TestConcurrentIndependentMaps stresses many simultaneous jobs sharing the
// helper pool.
func TestConcurrentIndependentMaps(t *testing.T) {
	const goroutines = 8
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		go func() {
			for rep := 0; rep < 20; rep++ {
				vals, err := Map(context.Background(), New(3), 50, func(i int) (int, error) {
					return g*1000 + i, nil
				})
				if err != nil {
					errs <- err
					return
				}
				for i, v := range vals {
					if v != g*1000+i {
						errs <- fmt.Errorf("goroutine %d rep %d: vals[%d] = %d", g, rep, i, v)
						return
					}
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestGrainForMin(t *testing.T) {
	p := New(4)
	if g := GrainForMin(100, p, 512); g != 512 {
		t.Fatalf("GrainForMin small n = %d, want the floor 512", g)
	}
	if g := GrainForMin(1_000_000, p, 512); g != 1_000_000/(16*4) {
		t.Fatalf("GrainForMin large n = %d, want GrainFor value", g)
	}
}

func BenchmarkEngineMapOverhead(b *testing.B) {
	ctx := context.Background()
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			p := New(workers)
			for i := 0; i < b.N; i++ {
				_, err := MapChunks(ctx, p, 1<<16, 1<<12, func(lo, hi int) (float64, error) {
					s := 0.0
					for j := lo; j < hi; j++ {
						s += float64(j)
					}
					return s, nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
