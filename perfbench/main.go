// Command perfbench is the repository's benchmark: three closed-loop
// workloads driven through the public entry points, each run either
// untraced (end-to-end metrics) or traced (per-layer metrics).
//
//	go run . --workload attack-eval --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it is a report
// with the host facts, workload sizes, reference checks and, when traced,
// the writer-path reconciliation. Build and run it through run.py, which
// keeps the build inside the checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// metricDef names a metric and its unit; BENCHMARK.json lists the same.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "op/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"epoch_ms_p50", "ms"},
	{"epoch_ms_p90", "ms"},
	{"read_probes_mean", "probes"},
	{"read_probes_p99", "probes"},
	{"heap_bytes_per_key", "B"},
	{"alloc_bytes_per_op", "B"},
	{"verified_frac", "frac"},
}

var perLayer = []metricDef{
	{"core.greedy_ms_p50", "ms"},
	{"core.greedy_block_visit_frac", "frac"},
	{"core.greedy_candidates_per_key", "count"},
	{"core.rmi_attack_ms_p50", "ms"},
	{"core.rmi_moves", "count"},
	{"dynamic.build_ms", "ms"},
	{"dynamic.eval_ns_per_key", "ns"},
	{"rmi.build_ms", "ms"},
	{"rmi.eval_ns_per_key", "ns"},
	{"core.oracle_ms_p50", "ms"},
	{"core.oracle_share", "frac"},
	{"serve.read_ns_mean", "ns"},
	{"serve.reads", "count"},
	{"serve.stale_frac", "frac"},
	{"shard.snapshot_us_mean", "us"},
	{"shard.snapshot_calls", "count"},
	{"shard.insert_ns_mean", "ns"},
	{"shard.insert_calls", "count"},
	{"shard.retrain_ms_mean", "ms"},
	{"shard.retrain_calls", "count"},
	{"shard.retrain_keys", "count"},
	{"shard.keys_ms_mean", "ms"},
	{"shard.keys_calls", "count"},
	{"defense.insert_self_ns_mean", "ns"},
	{"defense.content_rebuilds", "count"},
	{"defense.flagged_frac", "frac"},
	{"robust.fit_ms_mean", "ms"},
	{"robust.fit_calls", "count"},
	{"robust.fit_keys_mean", "count"},
	{"index.residual_share", "frac"},
	{"workload.gen_ns_per_op", "ns"},
	{"writer.insert_share", "frac"},
	{"writer.retrain_share", "frac"},
	{"writer.snapshot_share", "frac"},
	{"writer.keys_share", "frac"},
	{"writer.guard_share", "frac"},
	{"writer.fit_share", "frac"},
	{"trace.overhead_frac", "frac"},
	{"trace.reconcile_excess_max", "frac"},
}

// reconcileTol is the stated reconciliation tolerance: in every traced
// epoch, the writer-path spans may exceed the epoch's wall time by at most
// this share (the residual is what they leave uncovered).
const reconcileTol = 0.01

// bench is one workload: set-up from the seed, once-per-run reference
// checks, and the measured unit (a cell or a session).
type bench interface {
	setup() error
	reference() (refFacts, []check)
	unit(i int, t *tracer) unitResult
}

type unitResult struct {
	ops    int // pipeline ops (serving) or 1 (a cell)
	dur    time.Duration
	epochs []time.Duration
	alloc  uint64
	err    error // a failed verification fails the whole unit
}

type check struct {
	name string
	err  error
}

// refFacts are the deterministic read-cost and memory facts measured once.
type refFacts struct{ probesMean, probesP99, heapPerKey float64 }

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workers  int // engine workers and serving readers: one per CPU
	setups   int // set-up repeats; setup_s is their median

	attack         attackSpec
	serveReadHeavy serveSpec
	ingestDefended serveSpec

	corrupt bool // corrupt the first timed unit's output (self-test)
}

func defaultConfig() config {
	return config{
		workers:        runtime.NumCPU(),
		setups:         9,
		attack:         attackEval,
		serveReadHeavy: serveReadHeavy,
		ingestDefended: ingestDefended,
	}
}

// newBench returns the workload's bench, its sizes for the report, how
// many consecutive units make one cycle through the workload's inputs (two
// key shapes for attack-eval, the variants of a serving workload), and how
// many units one timing sample averages: a cell pair for attack-eval, whose
// two shapes differ in cost, one session for the serving workloads.
func newBench(cfg config) (bench, any, int, int, error) {
	switch cfg.workload {
	case "attack-eval":
		return &attackBench{spec: cfg.attack, workers: cfg.workers, seed: cfg.seed, corrupt: cfg.corrupt}, cfg.attack, numKinds, numKinds, nil
	case "serve-read-heavy":
		return &serveBench{spec: cfg.serveReadHeavy, workers: cfg.workers, seed: cfg.seed, corrupt: cfg.corrupt}, cfg.serveReadHeavy, cfg.serveReadHeavy.Variants, 1, nil
	case "ingest-defended":
		return &serveBench{spec: cfg.ingestDefended, workers: cfg.workers, seed: cfg.seed, corrupt: cfg.corrupt}, cfg.ingestDefended, cfg.ingestDefended.Variants, 1, nil
	}
	return nil, nil, 0, 0, fmt.Errorf("unknown workload %q (want attack-eval, serve-read-heavy or ingest-defended)", cfg.workload)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type checkReport struct {
	Name  string `json:"name"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

type report struct {
	Host      map[string]any     `json:"host"`
	Workload  string             `json:"workload"`
	Sizes     any                `json:"sizes"`
	Units     int                `json:"units"`
	Checks    []checkReport      `json:"checks"`
	Reconcile *reconcileReport   `json:"reconcile,omitempty"`
	Overhead  map[string]float64 `json:"tracing_overhead,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := defaultConfig()
	fs.StringVar(&cfg.workload, "workload", "", "attack-eval, serve-read-heavy or ingest-defended")
	fs.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	traceFlag := fs.Int("trace", 0, "1 for the traced run (per-layer metrics)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *traceFlag == 1
	res, rep, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, line := range []any{rep, res} {
		out, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(out))
	}
	return 0
}

// execute runs one benchmark invocation.
func execute(cfg config) (result, report, error) {
	b, sizes, group, pair, err := newBench(cfg)
	if err != nil {
		return result{}, report{}, err
	}
	rep := report{Workload: cfg.workload, Sizes: sizes, Host: hostFacts(cfg)}

	repeats := cfg.setups
	if cfg.trace {
		repeats = 1 // setup_s is an untraced metric
	}
	var setups []float64
	for r := 0; r < repeats; r++ {
		if b, _, _, _, err = newBench(cfg); err != nil {
			return result{}, rep, err
		}
		runtime.GC() // each set-up starts from the same collected heap
		start := time.Now()
		if err := b.setup(); err != nil {
			return result{}, rep, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	facts, checks := b.reference()

	m := map[string]metric{}
	var units []unitResult
	if !cfg.trace {
		units = window(b, cfg.seconds, group, []*tracer{nil})
		e2e(m, setups, units, group, pair, facts)
	} else {
		// Traced and untraced groups alternate, so both see the same host
		// speed and their throughput ratio is the tracing overhead.
		t := newTracer()
		units = window(b, cfg.seconds, group, []*tracer{nil, t})
		var plain, traced []unitResult
		for i, u := range units {
			if (i/group)%2 == 0 {
				plain = append(plain, u)
			} else {
				traced = append(traced, u)
			}
		}
		gen := 0.0
		if sb, ok := b.(*serveBench); ok {
			gen = sb.genNsPerOp()
		}
		rec := layers(m, t, traced, gen)
		rep.Reconcile = rec
		u, tr := opsPerSecond(plain), opsPerSecond(traced)
		rep.Overhead = map[string]float64{"untraced_ops_per_s": u, "traced_ops_per_s": tr}
		m["trace.overhead_frac"] = metric{1 - tr/u, "frac"}
		checks = append(checks, traceChecks(t, rec)...)
	}

	res := result{Metrics: m, Attempted: len(units) + len(checks)}
	for i, u := range units {
		if u.err != nil {
			checks = append(checks, check{fmt.Sprintf("unit %d", i), u.err})
		}
	}
	for _, c := range checks {
		if c.err != nil {
			res.Failed++
		}
		cr := checkReport{Name: c.name, OK: c.err == nil}
		if c.err != nil {
			cr.Error = c.err.Error()
		}
		rep.Checks = append(rep.Checks, cr)
	}
	res.Correct = res.Failed == 0
	if !cfg.trace {
		m["verified_frac"] = metric{1 - float64(res.Failed)/float64(res.Attempted), "frac"}
	}
	rep.Units = len(units)
	return res, rep, nil
}

// window runs units back to back for the given seconds, in whole groups
// that take the tracers in turn (at least three rounds).
func window(b bench, seconds float64, group int, tracers []*tracer) []unitResult {
	var out []unitResult
	round := group * len(tracers)
	limit := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	for i := 0; i < 3*round || i%round != 0 || time.Since(start) < limit; i++ {
		out = append(out, b.unit(i, tracers[(i/group)%len(tracers)]))
	}
	return out
}

func opsPerSecond(units []unitResult) float64 {
	var ops int
	var d time.Duration
	for _, u := range units {
		ops += u.ops
		d += u.dur
	}
	return float64(ops) / d.Seconds()
}

// e2e fills the end-to-end metrics of an untraced run. The timings are
// computed for each third of the window (in whole cycles) and the median
// third is reported, so host interference confined to one third of a run
// does not move them.
func e2e(m map[string]metric, setups []float64, units []unitResult, cycle, pair int, f refFacts) {
	var ops, p50, p90, e50, e90 []float64
	cycles := len(units) / cycle
	for k := 0; k < 3; k++ {
		part := units[k*cycles/3*cycle : (k+1)*cycles/3*cycle]
		var samples, epochs []float64
		for j := 0; j+pair <= len(part); j += pair {
			var d time.Duration
			for _, u := range part[j : j+pair] {
				d += u.dur
				for _, e := range u.epochs {
					epochs = append(epochs, ms(e))
				}
			}
			samples = append(samples, ms(d)/float64(pair))
		}
		if len(epochs) == 0 {
			// attack-eval: one oracle call per cell, so an epoch is a cell.
			epochs = samples
		}
		ops = append(ops, opsPerSecond(part))
		p50 = append(p50, quantile(samples, 0.5))
		p90 = append(p90, quantile(samples, 0.9))
		e50 = append(e50, quantile(epochs, 0.5))
		e90 = append(e90, quantile(epochs, 0.9))
	}
	var n int
	var alloc uint64
	for _, u := range units {
		n += u.ops
		alloc += u.alloc
	}
	m["setup_s"] = metric{quantile(setups, 0.5), "s"}
	m["ops_per_s"] = metric{quantile(ops, 0.5), "op/s"}
	m["op_ms_p50"] = metric{quantile(p50, 0.5), "ms"}
	m["op_ms_p90"] = metric{quantile(p90, 0.5), "ms"}
	m["epoch_ms_p50"] = metric{quantile(e50, 0.5), "ms"}
	m["epoch_ms_p90"] = metric{quantile(e90, 0.5), "ms"}
	m["read_probes_mean"] = metric{f.probesMean, "probes"}
	m["read_probes_p99"] = metric{f.probesP99, "probes"}
	m["heap_bytes_per_key"] = metric{f.heapPerKey, "B"}
	m["alloc_bytes_per_op"] = metric{float64(alloc) / float64(n), "B"}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func hostFacts(cfg config) map[string]any {
	readers := 0
	if cfg.workload != "attack-eval" {
		readers = cfg.workers
	}
	return map[string]any{
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go_version":     runtime.Version(),
		"goos":           runtime.GOOS,
		"goarch":         runtime.GOARCH,
		"seed":           cfg.seed,
		"seconds":        cfg.seconds,
		"trace":          cfg.trace,
		"readers":        readers,
		"engine_workers": cfg.workers,
		"setup_repeats":  cfg.setups,
	}
}
