package serve_test

// The scheduler-equivalence suite — the contract that makes the concurrent
// plane provably a scheduling change: every serving/churn scenario shape,
// across every backend in the repository, must produce byte-identical
// per-epoch metrics under the tick oracle and the goroutine scheduler
// (full latency-histogram checksums included), for ANY reader count and
// batch size. Plus the lifecycle tests: clean shutdown, goroutine-leak
// accounting, and deterministic mid-run cancellation — all with logical
// synchronization only (the no-sleep lint test enforces that).

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"cdfpoison/internal/alex"
	"cdfpoison/internal/btree"
	"cdfpoison/internal/dataset"
	"cdfpoison/internal/defense"
	"cdfpoison/internal/dynamic"
	"cdfpoison/internal/index"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/rmi"
	"cdfpoison/internal/serve"
	"cdfpoison/internal/shard"
	"cdfpoison/internal/workload"
	"cdfpoison/internal/xrand"
)

func fixture(t testing.TB, n int) keys.Set {
	t.Helper()
	ks, err := dataset.Uniform(xrand.New(11), n, int64(n)*40)
	if err != nil {
		t.Fatal(err)
	}
	return ks
}

// factory describes one backend flavor for the table: manual-policy
// backends take the epoch-end explicit retrain, policy backends trigger
// organically (the churn-style shape).
type factory struct {
	build  func(keys.Set) (index.Backend, error)
	manual bool
}

// backendFactories enumerates every index.Backend implementation, plus the
// buffer-policy flavors of the two that have retrain policies and a
// self-splitting flavor of the gapped array. The gapped array's leaf target
// of 4 is small enough that the poisoned fixture splits leaves mid-epoch.
func backendFactories() map[string]factory {
	return map[string]factory{
		"alex": {manual: true, build: func(ks keys.Set) (index.Backend, error) {
			return alex.New(ks, 4)
		}},
		"alex-split": {build: func(ks keys.Set) (index.Backend, error) {
			return alex.New(ks, 4)
		}},
		"dynamic": {manual: true, build: func(ks keys.Set) (index.Backend, error) {
			return dynamic.New(ks, dynamic.ManualPolicy())
		}},
		"btree": {manual: true, build: func(ks keys.Set) (index.Backend, error) {
			return btree.Bulk(32, ks.Keys())
		}},
		"rmi-single": {manual: true, build: func(ks keys.Set) (index.Backend, error) {
			return rmi.NewSingle(ks)
		}},
		"shard-4": {manual: true, build: func(ks keys.Set) (index.Backend, error) {
			return shard.New(ks, 4, dynamic.ManualPolicy())
		}},
		"guarded-dynamic": {manual: true, build: func(ks keys.Set) (index.Backend, error) {
			b, err := dynamic.New(ks, dynamic.ManualPolicy())
			if err != nil {
				return nil, err
			}
			return defense.NewGuard(b, defense.GuardOptions{}), nil
		}},
		"dynamic-buffer": {build: func(ks keys.Set) (index.Backend, error) {
			return dynamic.New(ks, dynamic.BufferLimit(8))
		}},
		"shard-4-buffer": {build: func(ks keys.Set) (index.Backend, error) {
			return shard.New(ks, 4, dynamic.BufferLimit(8))
		}},
	}
}

// gapOracle is the tests' cheap deterministic poison oracle: repeatedly
// drop a key in the middle of the widest gap of the (simulated) content.
// It shares nothing with internal/core — the scenario's oracle is injected,
// so serve stays a substrate package.
func gapOracle(visible keys.Set, budget int) ([]int64, error) {
	cur := visible
	out := make([]int64, 0, budget)
	for i := 0; i < budget; i++ {
		var best keys.Gap
		for _, g := range cur.Gaps() {
			if g.Width() > best.Width() {
				best = g
			}
		}
		if best.Width() <= 0 {
			break
		}
		mid := best.Lo + (best.Hi-best.Lo)/2
		next, ok := cur.Insert(mid)
		if !ok {
			break
		}
		cur = next
		out = append(out, mid)
	}
	return out, nil
}

// TestConcurrentMatchesTickOracle is the equivalence suite: for every
// backend flavor × cost model × poison budget (plus workload-mix variants
// on the churn-style flavor), the concurrent scheduler must reproduce the
// tick oracle's per-epoch metrics exactly — reflect.DeepEqual over the
// full EpochMetrics slice, histogram checksums included.
func TestConcurrentMatchesTickOracle(t *testing.T) {
	costs := map[string]index.CostModel{
		"zero":   {},
		"fixed":  {Fixed: 30},
		"linear": {Fixed: 10, PerKey: 25, Unit: 100},
	}
	const n = 300
	base := serve.ScenarioOptions{
		Epochs:      3,
		OpsPerEpoch: 50,
		Workload:    workload.NewZipf(1.1, 85),
		Domain:      int64(n) * 40,
		Seed:        7,
		Oracle:      gapOracle,
	}
	for fname, f := range backendFactories() {
		for cname, cost := range costs {
			for _, budget := range []int{0, 5} {
				opts := base
				opts.Cost = cost
				opts.EpochBudget = budget
				opts.ManualRetrain = f.manual
				name := fname + "/" + cname + "/budget=" + string(rune('0'+budget))
				t.Run(name, func(t *testing.T) {
					assertSchedulerEquivalence(t, f, n, opts)
				})
			}
		}
	}
	// Workload-mix variants on the churn-style flavor.
	for _, mix := range []workload.Spec{workload.NewUniform(90), workload.NewHotspot(2, 80)} {
		opts := base
		opts.Cost = index.CostModel{Fixed: 20}
		opts.EpochBudget = 5
		opts.Workload = mix
		t.Run("dynamic-buffer/"+mix.String(), func(t *testing.T) {
			assertSchedulerEquivalence(t, backendFactories()["dynamic-buffer"], n, opts)
		})
	}
	// The edges of the epoch shape: one epoch, so nothing is drawn past
	// epoch 0, and one op per epoch, so every epoch's draw is a single op.
	for shape, mut := range map[string]func(*serve.ScenarioOptions){
		"epochs=1": func(o *serve.ScenarioOptions) { o.Epochs = 1 },
		"ops=1":    func(o *serve.ScenarioOptions) { o.OpsPerEpoch = 1 },
	} {
		for fname, f := range backendFactories() {
			opts := base
			opts.Cost = costs["fixed"]
			opts.EpochBudget = 5
			opts.ManualRetrain = f.manual
			mut(&opts)
			t.Run(shape+"/"+fname, func(t *testing.T) {
				assertSchedulerEquivalence(t, f, n, opts)
			})
		}
	}
}

func assertSchedulerEquivalence(t *testing.T, f factory, n int, opts serve.ScenarioOptions) {
	t.Helper()
	initial := fixture(t, n)
	run := func(build func() ([]serve.EpochMetrics, error)) []serve.EpochMetrics {
		t.Helper()
		m, err := build()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	mk := func() index.Backend {
		b, err := f.build(initial)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	oracle := run(func() ([]serve.EpochMetrics, error) { return serve.RunTick(mk(), opts) })
	if len(oracle) != opts.Epochs {
		t.Fatalf("tick oracle produced %d epochs, want %d", len(oracle), opts.Epochs)
	}
	if opts.EpochBudget > 0 {
		inj := 0
		for _, m := range oracle {
			inj += m.Injected
		}
		if inj == 0 {
			t.Fatal("poisoned scenario injected nothing; the fixture lost its teeth")
		}
	}
	for _, po := range []serve.Options{
		{Readers: 1, BatchSize: 1},
		{Readers: 4, BatchSize: 8},
		// Many readers serving snapshots while the writer inserts and a
		// retrain runs: one read per batch spreads an epoch's reads over
		// up to one reader each.
		{Readers: 64, BatchSize: 1},
		// Knobs far beyond what an epoch can use are bounded by it.
		{Readers: 1 << 12, BatchSize: 1 << 62},
	} {
		conc := run(func() ([]serve.EpochMetrics, error) {
			return serve.RunConcurrent(context.Background(), mk(), opts, po)
		})
		if !reflect.DeepEqual(oracle, conc) {
			t.Errorf("readers=%d batch=%d diverged from tick oracle:\n tick: %+v\n conc: %+v",
				po.Readers, po.BatchSize, oracle, conc)
		}
	}
}

// TestConcurrentKnobInvariance: reader count and batch size are pure
// throughput knobs — sweeping them leaves every metric byte-identical.
func TestConcurrentKnobInvariance(t *testing.T) {
	initial := fixture(t, 300)
	opts := serve.ScenarioOptions{
		Epochs: 3, OpsPerEpoch: 60, EpochBudget: 4,
		Workload: workload.NewZipf(1.1, 85), Domain: 12_000, Seed: 9,
		Cost: index.CostModel{Fixed: 25}, Oracle: gapOracle,
	}
	var ref []serve.EpochMetrics
	for _, po := range []serve.Options{
		{}, // defaults: GOMAXPROCS readers
		{Readers: 1, BatchSize: 1},
		{Readers: 3, BatchSize: 7},
		{Readers: 8, BatchSize: 64},
	} {
		b, err := dynamic.New(initial, dynamic.BufferLimit(8))
		if err != nil {
			t.Fatal(err)
		}
		m, err := serve.RunConcurrent(context.Background(), b, opts, po)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = m
			continue
		}
		if !reflect.DeepEqual(ref, m) {
			t.Fatalf("readers=%d batch=%d changed the metrics", po.Readers, po.BatchSize)
		}
	}
}

// waitGoroutines yields (Gosched, never sleeps) until the runtime goroutine
// count drops back to the baseline or a 10 s wall-clock deadline passes. A
// reader goroutine can still be tearing down after its wg.Done when Close
// returns; the deadline absorbs only that exit, so a real leak still fails.
func waitGoroutines(baseline int) int {
	deadline := time.Now().Add(10 * time.Second)
	now := runtime.NumGoroutine()
	for now > baseline && time.Now().Before(deadline) {
		runtime.Gosched()
		now = runtime.NumGoroutine()
	}
	return now
}

// TestPlaneCleanShutdown: Close drains and joins every plane goroutine —
// the plane's own counter reaches zero and the process goroutine count
// returns to its baseline (goleak-style before/after check).
func TestPlaneCleanShutdown(t *testing.T) {
	baseline := runtime.NumGoroutine()
	p := serve.NewPlane(serve.Options{Readers: 8})
	if got := p.Goroutines(); got != 8 {
		t.Fatalf("plane reports %d goroutines, want 8", got)
	}
	p.Close()
	if got := p.Goroutines(); got != 0 {
		t.Fatalf("plane reports %d goroutines after Close, want 0", got)
	}
	p.Close() // idempotent
	if now := waitGoroutines(baseline); now > baseline {
		t.Fatalf("goroutines leaked: %d before, %d after Close", baseline, now)
	}
}

// TestRunConcurrentCancellation: a context cancelled mid-run stops the
// scenario at the next deterministic checkpoint, returns the completed
// epochs with ctx's error, and leaks nothing. The cancel fires from inside
// the second epoch's oracle call — logical sync, no timing.
func TestRunConcurrentCancellation(t *testing.T) {
	baseline := runtime.NumGoroutine()
	initial := fixture(t, 300)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	opts := serve.ScenarioOptions{
		Epochs: 5, OpsPerEpoch: 80, EpochBudget: 4,
		Workload: workload.NewZipf(1.1, 85), Domain: 12_000, Seed: 3,
		Cost: index.CostModel{Fixed: 25}, ManualRetrain: true,
		Oracle: func(ks keys.Set, budget int) ([]int64, error) {
			calls++
			if calls == 2 {
				cancel()
			}
			return gapOracle(ks, budget)
		},
	}
	b, err := dynamic.New(initial, dynamic.ManualPolicy())
	if err != nil {
		t.Fatal(err)
	}
	m, err := serve.RunConcurrent(ctx, b, opts, serve.Options{Readers: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(m) != 1 {
		t.Fatalf("completed epochs = %d, want exactly the first", len(m))
	}
	if now := waitGoroutines(baseline); now > baseline {
		t.Fatalf("goroutines leaked after cancellation: %d before, %d after", baseline, now)
	}

	// Already-cancelled context: nothing runs, nothing leaks.
	done, cancelled := context.WithCancel(context.Background())
	cancelled()
	m, err = serve.RunConcurrent(done, b, opts, serve.Options{Readers: 2})
	if !errors.Is(err, context.Canceled) || len(m) != 0 {
		t.Fatalf("pre-cancelled run returned (%d epochs, %v)", len(m), err)
	}
}

// TestNoDrawOutlivesRunConcurrent: RunConcurrent joins the stream's helper
// on every exit path. Each case returns while a draw of 1<<18 Zipf ops is
// in flight, long enough that an unjoined draw is still running when the
// test reads every goroutine's stack right after the call; no stack may
// hold a generator frame. With one processor an unjoined helper may not
// have started by then, so a missing join fails this test only with two
// or more.
func TestNoDrawOutlivesRunConcurrent(t *testing.T) {
	initial := fixture(t, 300)
	errOracle := errors.New("oracle failed")
	cases := []struct {
		name string
		// run returns the context and oracle for one call.
		run  func() (context.Context, serve.Oracle)
		want error
	}{
		// The oracle fails in epoch 0, with epoch 0's draw in flight.
		{name: "oracle-error", want: errOracle, run: func() (context.Context, serve.Oracle) {
			return context.Background(), func(keys.Set, int) ([]int64, error) {
				return nil, errOracle
			}
		}},
		// A cancel from inside epoch 0's oracle, caught at the first
		// in-loop check, with epoch 1's draw in flight.
		{name: "cancel-in-oracle", want: context.Canceled, run: func() (context.Context, serve.Oracle) {
			ctx, cancel := context.WithCancel(context.Background())
			return ctx, func(ks keys.Set, budget int) ([]int64, error) {
				cancel()
				return gapOracle(ks, budget)
			}
		}},
		// A context cancelled before the call.
		{name: "pre-cancelled", want: context.Canceled, run: func() (context.Context, serve.Oracle) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			return ctx, gapOracle
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ctx, oracle := c.run()
			opts := serve.ScenarioOptions{
				Epochs: 3, OpsPerEpoch: 1 << 18, EpochBudget: 4,
				Workload: workload.NewZipf(1.1, 95), Domain: 12_000, Seed: 5,
				Cost: index.CostModel{Fixed: 25}, Oracle: oracle,
			}
			b, err := dynamic.New(initial, dynamic.ManualPolicy())
			if err != nil {
				t.Fatal(err)
			}
			m, err := serve.RunConcurrent(ctx, b, opts, serve.Options{Readers: 2})
			stacks := allStacks()
			if !errors.Is(err, c.want) || len(m) != 0 {
				t.Fatalf("returned (%d epochs, %v), want (0 epochs, %v)", len(m), err, c.want)
			}
			if bytes.Contains(stacks, []byte("workload.(*Generator)")) {
				t.Fatalf("a draw outlived RunConcurrent:\n%s", stacks)
			}
		})
	}
}

// allStacks returns every goroutine's stack trace.
func allStacks() []byte {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return buf[:n]
		}
		buf = make([]byte, 2*len(buf))
	}
}

// keysCounter counts the Keys calls that reach the backend it wraps.
type keysCounter struct {
	index.Backend
	calls int
}

func (c *keysCounter) Keys() keys.Set {
	c.calls++
	return c.Backend.Keys()
}

// TestKeysOncePerEpoch: the scenario materializes the content once per
// oracle call and no more. Epoch 0's oracle plans against the set the
// generator was built from, so a run with a budget calls Keys exactly
// Epochs times, and a clean run only once, for the generator.
func TestKeysOncePerEpoch(t *testing.T) {
	initial := fixture(t, 300)
	for _, budget := range []int{0, 4} {
		opts := serve.ScenarioOptions{
			Epochs: 3, OpsPerEpoch: 60, EpochBudget: budget,
			Workload: workload.NewZipf(1.1, 85), Domain: 12_000, Seed: 9,
			Cost: index.CostModel{Fixed: 25}, ManualRetrain: true, Oracle: gapOracle,
		}
		want := 1
		if budget > 0 {
			want = opts.Epochs
		}
		for sched, run := range map[string]func(index.Backend) ([]serve.EpochMetrics, error){
			"tick": func(b index.Backend) ([]serve.EpochMetrics, error) { return serve.RunTick(b, opts) },
			"concurrent": func(b index.Backend) ([]serve.EpochMetrics, error) {
				return serve.RunConcurrent(context.Background(), b, opts, serve.Options{Readers: 2})
			},
		} {
			b, err := shard.New(initial, 4, dynamic.ManualPolicy())
			if err != nil {
				t.Fatal(err)
			}
			c := &keysCounter{Backend: b}
			if _, err := run(c); err != nil {
				t.Fatal(err)
			}
			if c.calls != want {
				t.Errorf("%s, budget %d: Keys called %d times, want %d", sched, budget, c.calls, want)
			}
		}
	}
}

// TestScenarioOptionValidation: the runner rejects nonsense before
// touching the backend.
func TestScenarioOptionValidation(t *testing.T) {
	initial := fixture(t, 50)
	b, err := dynamic.New(initial, dynamic.ManualPolicy())
	if err != nil {
		t.Fatal(err)
	}
	valid := serve.ScenarioOptions{
		Epochs: 1, OpsPerEpoch: 1, Workload: workload.NewUniform(90),
		Domain: 1000, Oracle: gapOracle,
	}
	for name, mut := range map[string]func(*serve.ScenarioOptions){
		"zero-epochs":           func(o *serve.ScenarioOptions) { o.Epochs = 0 },
		"zero-ops":              func(o *serve.ScenarioOptions) { o.OpsPerEpoch = 0 },
		"negative-budget":       func(o *serve.ScenarioOptions) { o.EpochBudget = -1 },
		"budget-without-oracle": func(o *serve.ScenarioOptions) { o.EpochBudget = 3; o.Oracle = nil },
		"bad-workload":          func(o *serve.ScenarioOptions) { o.Workload = workload.NewZipf(0, 90) },
		"bad-domain":            func(o *serve.ScenarioOptions) { o.Domain = 0 },
	} {
		o := valid
		mut(&o)
		if _, err := serve.RunTick(b, o); err == nil {
			t.Errorf("%s: invalid options accepted", name)
		}
	}
	if _, err := serve.RunTick(b, valid); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
}
