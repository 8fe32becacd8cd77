package bench

// The machine-readable performance harness behind `lisbench -fig perf`.
//
// Every attack in this repository ultimately spins Algorithm 1's inner
// loop, so attack throughput is itself an experimental result — and until
// this harness existed the repository had no recorded trajectory proving
// any optimization actually landed. PerfSweep measures a FIXED cell list
// (attack × n × workers, identical at every Scale so reports from any two
// runs can be compared record-by-record), and the report serializes to the
// perf artifact (BENCH_PR10.json at the repository root — BENCH_PR9.json is
// the previous trajectory point; older points live under
// testdata/bench-history/): the checked-in baseline CI replays against
// (ComparePerf) and that EXPERIMENTS.md's perf table cites. Scale only
// controls how long each cell is sampled, never what it runs.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"cdfpoison/internal/core"
	"cdfpoison/internal/dataset"
	"cdfpoison/internal/dynamic"
	"cdfpoison/internal/index"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/robust"
	"cdfpoison/internal/serve"
	"cdfpoison/internal/shard"
	"cdfpoison/internal/workload"
	"cdfpoison/internal/xrand"
)

// PerfSchema identifies the report layout; bump on incompatible change.
const PerfSchema = "cdfpoison-perf/1"

// PerfRecord is one measured cell. Attack outputs are deterministic; the
// three measured columns obviously are not, which is why ComparePerf takes
// a tolerance for ns/op but holds allocs/op (machine-independent) tighter.
type PerfRecord struct {
	Attack string `json:"attack"`
	N      int    `json:"n"`
	P      int    `json:"p"` // poison budget (0 where not applicable)
	// Workers is the REQUESTED worker count (0 = one per core), so records
	// match across machines with different core counts; Resolved is what it
	// meant on the measuring host.
	Workers     int     `json:"workers"`
	Resolved    int     `json:"workers_resolved"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// Key identifies the cell for baseline matching.
func (r PerfRecord) Key() string {
	return fmt.Sprintf("%s/n=%d/p=%d/workers=%d", r.Attack, r.N, r.P, r.Workers)
}

// PerfReport is the full sweep result, serialized to the perf artifact
// (BENCH_PR10.json).
type PerfReport struct {
	Schema     string       `json:"schema"`
	Scale      string       `json:"scale"`
	Seed       uint64       `json:"seed"`
	GoVersion  string       `json:"go_version"`
	GOOS       string       `json:"goos"`
	GOARCH     string       `json:"goarch"`
	NumCPU     int          `json:"num_cpu"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Records    []PerfRecord `json:"records"`
}

// perfCell is one sweep entry: op must run the attack once, end to end.
type perfCell struct {
	attack string
	n, p   int
	op     func(ks keys.Set, workers int) error
}

// perfCells returns the fixed cell list (before the workers cross-product).
// The greedy n=100k/p=50 cell is the repository's acceptance configuration
// (BenchmarkGreedyMultiPointWorkers uses the same dataset parameters).
func perfCells() []perfCell {
	greedy := func(p int) func(keys.Set, int) error {
		return func(ks keys.Set, w int) error {
			_, err := core.GreedyMultiPoint(ks, p, core.WithWorkers(w))
			return err
		}
	}
	return []perfCell{
		{attack: "greedy", n: 2_000, p: 20, op: greedy(20)},
		{attack: "greedy", n: 100_000, p: 50, op: greedy(50)},
		{attack: "single", n: 100_000, op: func(ks keys.Set, w int) error {
			_, err := core.OptimalSinglePoint(ks, core.WithWorkers(w))
			return err
		}},
		// Scan ablation for the single-point oracle: "brute" sweeps every
		// free slot, "single-full" the classic 2(n−1) gap endpoints, and
		// "single" (above) the pruned scan — three rows, same answer, the
		// complexity ladder of DESIGN.md §11 read directly off the report.
		{attack: "single-full", n: 100_000, op: func(ks keys.Set, w int) error {
			_, err := core.OptimalSinglePoint(ks, core.WithWorkers(w), core.WithExhaustiveScan())
			return err
		}},
		{attack: "brute", n: 100_000, op: func(ks keys.Set, w int) error {
			_, err := core.BruteForceSinglePoint(ks, core.WithWorkers(w))
			return err
		}},
		{attack: "rmi", n: 10_000, p: 500, op: func(ks keys.Set, w int) error {
			_, err := core.RMIAttack(ks, core.RMIAttackOptions{
				NumModels: 20, Percent: 5, Alpha: 3,
			}, core.WithWorkers(w))
			return err
		}},
		{attack: "serve", n: 4_000, p: 80, op: func(ks keys.Set, w int) error {
			_, err := core.ServeAttack(ks, core.ServeOptions{
				Epochs:      3,
				OpsPerEpoch: 200,
				EpochBudget: 80,
				Shards:      4,
				Policy:      dynamic.ManualPolicy(),
				Workload:    workload.NewZipf(1.1, 90),
				Seed:        99,
			}, core.WithWorkers(w))
			return err
		}},
		{attack: "churn", n: 4_000, p: 80, op: func(ks keys.Set, w int) error {
			_, err := core.ChurnAttack(ks, core.ChurnOptions{
				Epochs:      3,
				OpsPerEpoch: 200,
				EpochBudget: 80,
				Shards:      4,
				Policy:      dynamic.BufferLimit(32),
				Workload:    workload.NewZipf(1.1, 90),
				Seed:        99,
				Cost:        index.CostModel{Fixed: 50},
			}, core.WithWorkers(w))
			return err
		}},
		{attack: "throughput", n: 4_000, p: 80, op: func(ks keys.Set, w int) error {
			b, err := shard.New(ks, 4, dynamic.BufferLimit(32))
			if err != nil {
				return err
			}
			_, err = serve.RunConcurrent(context.Background(), b, serve.ScenarioOptions{
				Epochs:      3,
				OpsPerEpoch: 200,
				EpochBudget: 80,
				Workload:    workload.NewZipf(1.1, 90),
				Domain:      int64(4_000) * 100,
				Seed:        99,
				Cost:        index.CostModel{Fixed: 50},
				Oracle:      core.GreedyOracle(),
			}, serve.Options{Readers: w})
			return err
		}},
		{attack: "cascade", n: 4_000, p: 80, op: func(ks keys.Set, w int) error {
			_, err := core.CascadeAttack(ks, core.CascadeOptions{
				Epochs:      3,
				OpsPerEpoch: 200,
				EpochBudget: 80,
				LeafTarget:  32,
				Workload:    workload.NewZipf(1.1, 90),
				Seed:        99,
			}, core.WithWorkers(w))
			return err
		}},
		// The defense plane's hot-path price: the serve cell again, but with
		// the full defense armed — detector chain on every write, trimmed
		// retrains, per-source rate limiting. Compare against the bare
		// "serve" cell to read the overhead directly.
		{attack: "defended-serve", n: 4_000, p: 80, op: func(ks keys.Set, w int) error {
			_, err := core.ServeAttack(ks, core.ServeOptions{
				Epochs:      3,
				OpsPerEpoch: 200,
				EpochBudget: 80,
				Shards:      4,
				Policy:      dynamic.ManualPolicy(),
				Workload:    workload.NewZipf(1.1, 90),
				Seed:        99,
				Defense: core.DefenseSpec{
					Policies:   defenseChain("density:8:3|dupmass:3:3"),
					Fitter:     robust.Trimmed{Pct: 10},
					RateBudget: 4, RateWindow: 20, Sources: 8,
				},
			}, core.WithWorkers(w))
			return err
		}},
		// Epoch-eval cells: the probe evaluation the serving scenarios pay
		// once per epoch, isolated from oracle and insert work, at the
		// acceptance size n=1e5. The -batch rows run the sorted-batch kernel
		// (DESIGN.md §12), the -perkey rows the classic per-key lookup loop
		// on the SAME backend and batch; both produce identical totals, so
		// perkey ns/op ÷ batch ns/op is the kernel's measured speedup
		// (EXPERIMENTS.md's batch-probe table reads it off this report). The
		// backends are built once per dataset — in the warm-up run, via
		// perfEvalBackend — so the timed iterations measure ONLY the eval
		// pass. Worker count is irrelevant here (one merged pass per side).
		{attack: "online-eval-batch", n: 100_000, op: func(ks keys.Set, w int) error {
			r, err := perfEvalBackend("online", ks)
			if err != nil {
				return err
			}
			p, nf := index.ProbeSumSorted(r, ks.Keys())
			perfProbeSink += p + int64(nf)
			return nil
		}},
		{attack: "online-eval-perkey", n: 100_000, op: func(ks keys.Set, w int) error {
			r, err := perfEvalBackend("online", ks)
			if err != nil {
				return err
			}
			p, nf := r.ProbeSum(ks.Keys())
			perfProbeSink += p + int64(nf)
			return nil
		}},
		{attack: "serve-eval-batch", n: 100_000, op: func(ks keys.Set, w int) error {
			r, err := perfEvalBackend("serve", ks)
			if err != nil {
				return err
			}
			p, nf := index.ProbeSumSorted(r, ks.Keys())
			perfProbeSink += p + int64(nf)
			return nil
		}},
		{attack: "serve-eval-perkey", n: 100_000, op: func(ks keys.Set, w int) error {
			r, err := perfEvalBackend("serve", ks)
			if err != nil {
				return err
			}
			p, nf := r.ProbeSum(ks.Keys())
			perfProbeSink += p + int64(nf)
			return nil
		}},
		{attack: "online", n: 5_000, p: 100, op: func(ks keys.Set, w int) error {
			arrivals := make([][]int64, 4)
			arng := xrand.New(99)
			for e := range arrivals {
				arrivals[e] = xrand.SampleInt64s(arng, 50, int64(5_000)*100)
			}
			_, err := core.OnlinePoisonAttack(ks, core.OnlineOptions{
				Epochs:      4,
				EpochBudget: 25,
				Policy:      dynamic.ManualPolicy(),
				Arrivals:    arrivals,
			}, core.WithWorkers(w))
			return err
		}},
	}
}

// perfProbeSink keeps the epoch-eval cells' results observable so the
// compiler cannot elide the measured work.
var perfProbeSink int64

// perfEvalBackends caches the epoch-eval cells' backends per dataset, so
// the build cost lands in the warm-up run and the timed iterations measure
// only the eval pass. The key includes the dataset's backing array address:
// a sweep over a different dataset never reuses a stale index.
var perfEvalBackends sync.Map // string -> index.PointReader

// perfEvalBackend builds (once) the reader an epoch-eval cell probes:
// "online" is the dynamic index with a quarter-full delta buffer (the
// merged base+buffer pass is the kernel's hardest case), "serve" a 4-way
// sharded index's immutable snapshot (what measureServe evaluates).
func perfEvalBackend(kind string, ks keys.Set) (index.PointReader, error) {
	key := fmt.Sprintf("%s/%p", kind, ks.Keys())
	if r, ok := perfEvalBackends.Load(key); ok {
		return r.(index.PointReader), nil
	}
	var r index.PointReader
	switch kind {
	case "online":
		idx, err := dynamic.New(ks, dynamic.ManualPolicy())
		if err != nil {
			return nil, err
		}
		step := (ks.Max() - ks.Min()) / 257
		if step < 1 {
			step = 1
		}
		for k := ks.Min() + 1; k < ks.Max(); k += step {
			idx.Insert(k) // stays buffered under the manual policy
		}
		r = idx
	case "serve":
		idx, err := shard.New(ks, 4, dynamic.ManualPolicy())
		if err != nil {
			return nil, err
		}
		r = idx.Snapshot()
	default:
		return nil, fmt.Errorf("bench: unknown eval backend %q", kind)
	}
	perfEvalBackends.Store(key, r)
	return r, nil
}

// PerfCellKeys returns the stable cell keys of the fixed sweep (both
// workers variants), without running any attack — for coverage checks
// against a checked-in baseline.
func PerfCellKeys() []string {
	var keys []string
	for _, c := range perfCells() {
		for _, w := range []int{1, 0} {
			keys = append(keys, PerfRecord{Attack: c.attack, N: c.n, P: c.p, Workers: w}.Key())
		}
	}
	return keys
}

// perfBudget is the per-cell sampling budget for one scale.
type perfBudget struct {
	minIters int
	minTime  time.Duration
	maxIters int
}

func budgetFor(o Options) perfBudget {
	if o.Trials > 0 {
		// Test hook: exactly Trials iterations, no time floor.
		return perfBudget{minIters: o.Trials, maxIters: o.Trials}
	}
	switch o.Scale {
	case ScaleQuick:
		return perfBudget{minIters: 2, minTime: 250 * time.Millisecond, maxIters: 200}
	case ScaleLarge:
		return perfBudget{minIters: 10, minTime: 4 * time.Second, maxIters: 10_000}
	default:
		return perfBudget{minIters: 5, minTime: 1500 * time.Millisecond, maxIters: 2_000}
	}
}

// PerfSweep measures every cell and returns the machine-readable report.
// Worker variants are 1 (sequential) and 0 (one per core); on a single-core
// host both resolve to one worker and the duplicate documents exactly that.
func PerfSweep(o Options) (PerfReport, error) {
	o = o.fill()
	rep := PerfReport{
		Schema:     PerfSchema,
		Scale:      string(o.Scale),
		Seed:       o.Seed,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	budget := budgetFor(o)
	// Datasets are generated once per n from the root seed, sequentially,
	// so the measured work is identical across worker variants and runs.
	sets := map[int]keys.Set{}
	for _, c := range perfCells() {
		if _, ok := sets[c.n]; ok {
			continue
		}
		ks, err := dataset.Uniform(xrand.New(o.Seed), c.n, int64(c.n)*100)
		if err != nil {
			return PerfReport{}, fmt.Errorf("bench: perf dataset n=%d: %w", c.n, err)
		}
		sets[c.n] = ks
	}
	for _, c := range perfCells() {
		for _, w := range []int{1, 0} {
			r, err := measurePerf(c, sets[c.n], w, budget)
			if err != nil {
				return PerfReport{}, fmt.Errorf("bench: perf cell %s: %w", r.Key(), err)
			}
			rep.Records = append(rep.Records, r)
		}
	}
	return rep, nil
}

// measurePerf times one cell: a warm-up run, then iterations until both the
// minimum count and minimum duration are met, with allocation figures from
// runtime.MemStats deltas (the same counters testing's -benchmem reads).
func measurePerf(c perfCell, ks keys.Set, workers int, budget perfBudget) (PerfRecord, error) {
	rec := PerfRecord{
		Attack: c.attack, N: c.n, P: c.p,
		Workers: workers, Resolved: resolveWorkers(workers),
	}
	if err := c.op(ks, workers); err != nil { // warm-up + error check
		return rec, err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	iters := 0
	for iters < budget.minIters || time.Since(start) < budget.minTime {
		if iters >= budget.maxIters {
			break
		}
		if err := c.op(ks, workers); err != nil {
			return rec, err
		}
		iters++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	rec.Iters = iters
	rec.NsPerOp = float64(elapsed.Nanoseconds()) / float64(iters)
	rec.AllocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(iters)
	rec.BytesPerOp = float64(after.TotalAlloc-before.TotalAlloc) / float64(iters)
	return rec, nil
}

func resolveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// PerfDelta is one baseline-vs-current comparison row.
type PerfDelta struct {
	Key                   string
	BaseNs, CurNs         float64
	BaseAllocs, CurAllocs float64
	NsRatio               float64
	Regressed             bool
	Reason                string
}

// ComparePerf matches current records against a baseline by cell key and
// flags regressions: ns/op above baseline×(1+tol) — the benchstat-style
// wall-clock gate — or allocs/op above the same bound plus an absolute
// slack of 2 (allocation counts are near-deterministic, so they regress
// loudly and cleanly even across machines). Records present on only one
// side are reported with Reason "unmatched" but never fail the gate, so
// adding a cell does not break CI against an older baseline; likewise,
// cells whose REQUESTED workers resolved to different concurrency on the
// two hosts (a workers=0 cell measured on hosts with different core
// counts) are reported as "resolved-workers differ" and skipped — they
// measured different code paths with genuinely different allocation
// profiles, so comparing them would fail every cross-machine gate. The
// second return is true when no comparable record regressed.
func ComparePerf(baseline, current PerfReport, tol float64) ([]PerfDelta, bool) {
	base := map[string]PerfRecord{}
	for _, r := range baseline.Records {
		base[r.Key()] = r
	}
	ok := true
	var deltas []PerfDelta
	for _, r := range current.Records {
		b, found := base[r.Key()]
		if !found {
			deltas = append(deltas, PerfDelta{Key: r.Key(), CurNs: r.NsPerOp,
				CurAllocs: r.AllocsPerOp, Reason: "unmatched"})
			continue
		}
		if b.Resolved != r.Resolved {
			deltas = append(deltas, PerfDelta{Key: r.Key(), BaseNs: b.NsPerOp,
				CurNs: r.NsPerOp, BaseAllocs: b.AllocsPerOp,
				CurAllocs: r.AllocsPerOp,
				Reason:    fmt.Sprintf("resolved-workers differ (%d vs %d)", b.Resolved, r.Resolved)})
			continue
		}
		d := PerfDelta{
			Key:    r.Key(),
			BaseNs: b.NsPerOp, CurNs: r.NsPerOp,
			BaseAllocs: b.AllocsPerOp, CurAllocs: r.AllocsPerOp,
		}
		if b.NsPerOp > 0 {
			d.NsRatio = r.NsPerOp / b.NsPerOp
		}
		if b.NsPerOp > 0 && r.NsPerOp > b.NsPerOp*(1+tol) {
			d.Regressed = true
			d.Reason = fmt.Sprintf("ns/op +%.0f%%", (d.NsRatio-1)*100)
		}
		if r.AllocsPerOp > b.AllocsPerOp*(1+tol)+2 {
			d.Regressed = true
			if d.Reason != "" {
				d.Reason += ", "
			}
			d.Reason += fmt.Sprintf("allocs/op %.1f → %.1f", b.AllocsPerOp, r.AllocsPerOp)
		}
		if d.Regressed {
			ok = false
		}
		deltas = append(deltas, d)
	}
	return deltas, ok
}
