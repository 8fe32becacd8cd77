// Command lisbench regenerates every figure of the paper's evaluation
// (Figures 2–8) plus the repository's extensions, ablations, and the
// dynamic-index online poisoning sweep, printing ASCII tables/plots to
// stdout and optionally writing CSV files.
//
// Usage:
//
//	lisbench -fig all                 # everything at default scale
//	lisbench -fig 5 -scale quick      # one figure, test-sized
//	lisbench -fig 6 -scale large -out results/
//	lisbench -fig online -out results/   # online scenario: ratio/probes vs epoch
//	lisbench -fig churn -out results/    # retrain-churn scenario: staleness vs epoch
//	lisbench -fig cascade -out results/  # split-cascade scenario: structural damage vs epoch
//	lisbench -fig throughput -out results/  # concurrent serving: tail latency + ops/sec
//	lisbench -fig perf -out results/     # perf sweep → results/BENCH_PR10.json
//	lisbench -fig perf -scale quick -baseline BENCH_PR10.json   # CI regression gate
//	lisbench -fig perf -cpuprofile cpu.out -memprofile mem.out # profile a run
//
// The perf sweep is machine-dependent by nature, so it is NOT part of -fig
// all; with -baseline the command exits non-zero when any matched cell
// regresses more than -perf-tol in ns/op (or in allocs/op, which is
// machine-independent).
//
// -cpuprofile and -memprofile write pprof profiles covering the selected
// figure runs (the CPU profile spans all of them; the heap profile is a
// post-GC snapshot taken after the last), viewable with `go tool pprof`.
//
// Scales: quick (seconds), default (minutes), large (tens of minutes on one
// core). See DESIGN.md §3 ("Scaling policy") for what each preserves.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"cdfpoison/internal/bench"
	"cdfpoison/internal/export"
)

// perfBaseline and perfTol parameterize runPerf's regression gate; they are
// package-level so the runner keeps the shared func(Options, string) shape.
var (
	perfBaseline string
	perfTol      float64
)

func main() {
	var (
		fig        = flag.String("fig", "all", "figure to regenerate: 2|3|4|5|6|7|8|ext|ablation|online|serve|churn|cascade|throughput|defense|perf|all (all excludes perf)")
		scale      = flag.String("scale", "default", "experiment scale: quick|default|large")
		seed       = flag.Uint64("seed", 42, "root RNG seed")
		out        = flag.String("out", "", "directory for CSV output (optional)")
		workers    = flag.Int("workers", 0, "worker pool size for the sweeps: 0 = one per core, 1 = sequential; results are identical for any value")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile covering the selected figure runs to `file`")
		memprofile = flag.String("memprofile", "", "write a post-GC heap profile to `file` after the runs finish")
	)
	flag.StringVar(&perfBaseline, "baseline", "", "perf baseline (BENCH_PR10.json) to compare the perf sweep against; exit 1 on regression")
	flag.Float64Var(&perfTol, "perf-tol", 0.20, "fractional ns/op regression tolerance for -baseline")
	flag.Parse()

	opts := bench.Options{Scale: bench.Scale(*scale), Seed: *seed, Workers: *workers}
	switch opts.Scale {
	case bench.ScaleQuick, bench.ScaleDefault, bench.ScaleLarge:
	default:
		fatalf("unknown scale %q (want quick|default|large)", *scale)
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatalf("create output dir: %v", err)
		}
	}

	runners := map[string]func(bench.Options, string) error{
		"2":          runFig2,
		"3":          runFig3,
		"4":          runFig4,
		"5":          runFig5,
		"6":          runFig6,
		"7":          runFig7,
		"8":          runFig8,
		"ext":        runExtensions,
		"ablation":   runAblations,
		"online":     runOnline,
		"serve":      runServe,
		"churn":      runChurn,
		"cascade":    runCascade,
		"throughput": runThroughput,
		"defense":    runDefense,
		"perf":       runPerf,
	}
	// perf is deliberately absent: wall-clock benchmarks do not belong in a
	// figures-regeneration run (they are requested explicitly). throughput IS
	// included: its CSV columns are deterministic (ops/sec goes to stdout
	// only), so it regenerates like any figure.
	order := []string{"2", "3", "4", "5", "6", "7", "8", "ext", "ablation", "online", "serve", "churn", "cascade", "throughput", "defense"}

	var selected []string
	if *fig == "all" {
		selected = order
	} else {
		for _, f := range strings.Split(*fig, ",") {
			f = strings.TrimSpace(f)
			if _, ok := runners[f]; !ok {
				fatalf("unknown figure %q (want 2..8, ext, ablation, online, all)", f)
			}
			selected = append(selected, f)
		}
	}
	stopCPU, err := startCPUProfile(*cpuprofile)
	if err != nil {
		fatalf("cpuprofile: %v", err)
	}
	for _, f := range selected {
		start := time.Now()
		if err := runners[f](opts, *out); err != nil {
			stopCPU()
			fatalf("figure %s: %v", f, err)
		}
		fmt.Printf("[%s done in %v]\n\n", name(f), time.Since(start).Round(time.Millisecond))
	}
	stopCPU()
	if err := writeMemProfile(*memprofile); err != nil {
		fatalf("memprofile: %v", err)
	}
}

// startCPUProfile begins a pprof CPU profile written to path; the returned
// stop function (never nil) flushes and closes it. An empty path is a no-op,
// so callers need no conditional.
func startCPUProfile(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// writeMemProfile snapshots the heap to path after a forced GC, so the
// profile reflects live retention rather than garbage awaiting collection.
// An empty path is a no-op.
func writeMemProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func name(f string) string {
	switch f {
	case "ext":
		return "extensions"
	case "ablation":
		return "ablations"
	case "online":
		return "online scenario"
	case "serve":
		return "serving scenario"
	case "churn":
		return "retrain-churn scenario"
	case "cascade":
		return "split-cascade scenario"
	case "throughput":
		return "throughput scenario"
	case "defense":
		return "defense Pareto sweep"
	case "perf":
		return "perf sweep"
	default:
		return "figure " + f
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lisbench: "+format+"\n", args...)
	os.Exit(1)
}

func writeCSV(dir, fname string, tb *export.Table) error {
	if dir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, fname))
	if err != nil {
		return err
	}
	defer f.Close()
	h, rows := tb.CSV()
	return export.WriteCSV(f, h, rows)
}

func runFig2(opts bench.Options, out string) error {
	res, err := bench.Fig2(opts)
	if err != nil {
		return err
	}
	fmt.Println("=== Figure 2: compound effect of a single poisoning key ===")
	fmt.Printf("keys: %v\n", res.Keys)
	fmt.Printf("optimal poisoning key: %d (takes rank %d)\n", res.PoisonKey, res.Rank)
	fmt.Printf("regression before: %v\n", res.Before)
	fmt.Printf("regression after:  %v\n", res.After)
	fmt.Printf("ratio loss: %.3f×\n", res.Ratio)

	tb := export.NewTable("key", "rank_before", "rank_after", "is_poison")
	poisoned := res.Keys
	poisoned, _ = poisoned.Insert(res.PoisonKey)
	for i := 0; i < poisoned.Len(); i++ {
		k := poisoned.At(i)
		rb := "-"
		if r, ok := res.Keys.Rank(k); ok {
			rb = fmt.Sprint(r)
		}
		isP := "0"
		if k == res.PoisonKey {
			isP = "1"
		}
		tb.AddRow(fmt.Sprint(k), rb, fmt.Sprint(i+1), isP)
	}
	tb.Render(os.Stdout)
	// CDF scatter before/after.
	var cx, cy, px, py []float64
	for i := 0; i < res.Keys.Len(); i++ {
		cx = append(cx, float64(res.Keys.At(i)))
		cy = append(cy, float64(i+1))
	}
	for i := 0; i < poisoned.Len(); i++ {
		px = append(px, float64(poisoned.At(i)))
		py = append(py, float64(i+1))
	}
	export.RenderChart(os.Stdout, "CDF before (#) and after (o) poisoning", []export.Series{
		{Name: "before", X: cx, Y: cy},
		{Name: "after", X: px, Y: py},
	}, 64, 12)
	return writeCSV(out, "fig2.csv", tb)
}

func runFig3(opts bench.Options, out string) error {
	res, err := bench.Fig3(opts)
	if err != nil {
		return err
	}
	fmt.Println("=== Figure 3: loss sequence and first discrete derivative ===")
	fmt.Printf("keys: %v (clean loss %.4f)\n", res.Keys, res.CleanLoss)
	fmt.Printf("max per-gap interior excess over endpoints: %.3g (Theorem 2 predicts <= 0)\n", res.MaxExcess)
	var sx, sy, dx, dy []float64
	tb := export.NewTable("poison_key", "loss", "derivative")
	for i, p := range res.Sequence {
		sx = append(sx, float64(p.Key))
		sy = append(sy, p.Loss)
		d := ""
		if i < len(res.Derivative) {
			d = export.F(res.Derivative[i].Loss)
			dx = append(dx, float64(res.Derivative[i].Key))
			dy = append(dy, res.Derivative[i].Loss)
		}
		tb.AddRow(fmt.Sprint(p.Key), export.F(p.Loss), d)
	}
	export.RenderChart(os.Stdout, "Loss L(kp) across the key space", []export.Series{
		{Name: "loss after poisoning at kp", X: sx, Y: sy},
	}, 64, 12)
	export.RenderChart(os.Stdout, "First discrete derivative of L", []export.Series{
		{Name: "ΔL", X: dx, Y: dy},
	}, 64, 10)
	return writeCSV(out, "fig3.csv", tb)
}

func runFig4(opts bench.Options, out string) error {
	res, err := bench.Fig4(opts)
	if err != nil {
		return err
	}
	fmt.Println("=== Figure 4: greedy multi-point attack (n=90, p=10) ===")
	fmt.Printf("ratio loss: %.2f× (paper reports 7.4×)\n", res.Ratio)
	fmt.Printf("regression before: %v\n", res.Before)
	fmt.Printf("regression after:  %v\n", res.After)
	fmt.Printf("poison keys: %v\n", res.Poison)
	fmt.Printf("mean gap width %.1f vs mean poisoned-gap width %.1f\n",
		res.MeanGapWidth, res.MeanPoisonGapWidth)
	var cx, cy []float64
	for i := 0; i < res.Poisoned.Len(); i++ {
		cx = append(cx, float64(res.Poisoned.At(i)))
		cy = append(cy, float64(i+1))
	}
	export.RenderChart(os.Stdout, "Poisoned CDF", []export.Series{{Name: "rank", X: cx, Y: cy}}, 64, 12)
	tb := export.NewTable("poison_key", "order")
	for i, p := range res.Poison {
		tb.AddRow(fmt.Sprint(p), fmt.Sprint(i+1))
	}
	return writeCSV(out, "fig4.csv", tb)
}

func renderGrid(res bench.RegressionGridResult, out, file, paperNote string) error {
	fmt.Printf("trials per cell: %d; %s\n", res.Trials, paperNote)
	tb := export.NewTable("keys", "density_pct", "domain", "poison_pct",
		"median_ratio", "q1", "q3", "whisker_hi", "max", "boxplot")
	// Boxplots share an axis per (keys, density) group for comparability.
	for i := 0; i < len(res.Cells); {
		j := i
		hi := 1.0
		for ; j < len(res.Cells) && res.Cells[j].Keys == res.Cells[i].Keys &&
			res.Cells[j].DensityPct == res.Cells[i].DensityPct; j++ {
			if res.Cells[j].Box.Max > hi {
				hi = res.Cells[j].Box.Max
			}
		}
		for ; i < j; i++ {
			c := res.Cells[i]
			tb.AddRow(fmt.Sprint(c.Keys), export.F(c.DensityPct), fmt.Sprint(c.Domain),
				export.F(c.PoisonPct), export.F(c.Box.Median), export.F(c.Box.Q1),
				export.F(c.Box.Q3), export.F(c.Box.WhiskerHi), export.F(c.Box.Max),
				export.RenderBoxplot(c.Box, 0, hi, 40))
		}
	}
	tb.Render(os.Stdout)
	fmt.Printf("max median ratio: %.1f×\n", res.MaxMedianRatio())
	return writeCSV(out, file, tb)
}

func runFig5(opts bench.Options, out string) error {
	fmt.Println("=== Figure 5: multi-point poisoning, uniform keys ===")
	res, err := bench.RegressionGrid(bench.DistUniform, opts)
	if err != nil {
		return err
	}
	return renderGrid(res, out, "fig5.csv", "paper: ratios up to ~100×")
}

func runFig8(opts bench.Options, out string) error {
	fmt.Println("=== Figure 8: multi-point poisoning, normal keys ===")
	res, err := bench.RegressionGrid(bench.DistNormal, opts)
	if err != nil {
		return err
	}
	return renderGrid(res, out, "fig8.csv", "paper: ratios up to ~8×")
}

func runFig6(opts bench.Options, out string) error {
	fmt.Println("=== Figure 6: RMI attack on synthetic data ===")
	res, err := bench.RMISynthetic(opts)
	if err != nil {
		return err
	}
	fmt.Printf("n = %d legitimate keys\n", res.Keys)
	tb := export.NewTable("dist", "domain", "model_size", "num_models", "poison_pct",
		"alpha", "rmi_ratio", "median_model_ratio", "max_model_ratio", "moves", "injected")
	for _, c := range res.Cells {
		tb.AddRow(string(c.Dist), fmt.Sprint(c.Domain), fmt.Sprint(c.ModelSize),
			fmt.Sprint(c.NumModels), export.F(c.PoisonPct), export.F(c.Alpha),
			export.F(c.RMIRatio), export.F(c.Box.Median), export.F(c.MaxModelRatio),
			fmt.Sprint(c.Moves), fmt.Sprint(c.Injected))
	}
	tb.Render(os.Stdout)
	fmt.Printf("max RMI ratio: uniform %.1f×, log-normal %.1f× (paper: up to ~300×)\n",
		res.MaxRMIRatio(bench.DistUniform), res.MaxRMIRatio(bench.DistLogNormal))
	fmt.Printf("max individual model ratio: %.1f× (paper: up to ~3000×)\n",
		res.MaxModelRatioOverall(""))
	return writeCSV(out, "fig6.csv", tb)
}

func runFig7(opts bench.Options, out string) error {
	fmt.Println("=== Figure 7: RMI attack on real-world (simulated) data ===")
	for _, ds := range []bench.RealDataset{bench.DatasetSalaries, bench.DatasetOSM} {
		res, err := bench.RealData(ds, opts)
		if err != nil {
			return err
		}
		fmt.Printf("\n--- %s: n=%d, density %.2f%% ---\n", ds, res.Keys.Len(), res.Density*100)
		export.RenderChart(os.Stdout, "CDF", []export.Series{
			{Name: "rank", X: res.CDFKeys, Y: res.CDFRanks},
		}, 64, 10)
		tb := export.NewTable("model_size", "num_models", "poison_pct",
			"rmi_ratio", "median_model_ratio", "max_model_ratio", "injected")
		for _, c := range res.Cells {
			tb.AddRow(fmt.Sprint(c.ModelSize), fmt.Sprint(c.NumModels), export.F(c.PoisonPct),
				export.F(c.RMIRatio), export.F(c.Box.Median), export.F(c.MaxModelRatio),
				fmt.Sprint(c.Injected))
		}
		tb.Render(os.Stdout)
		fmt.Printf("max RMI ratio: %.1f× (paper: 4–24×)\n", res.MaxRMIRatio())
		if err := writeCSV(out, fmt.Sprintf("fig7-%s.csv", ds), tb); err != nil {
			return err
		}
	}
	return nil
}

func runExtensions(opts bench.Options, out string) error {
	fmt.Println("=== Extension A: lookup-cost degradation of the RMI ===")
	cells, err := bench.LookupDegradation(opts)
	if err != nil {
		return err
	}
	tb := export.NewTable("dist", "keys", "fanout", "poison_pct",
		"clean_probes", "poisoned_probes", "clean_avg_window", "poisoned_avg_window",
		"clean_max_window", "poisoned_max_window", "stage2_mse_gain")
	for _, c := range cells {
		tb.AddRow(string(c.Dist), fmt.Sprint(c.Keys), fmt.Sprint(c.Fanout),
			export.F(c.PoisonPct), export.F(c.CleanProbes), export.F(c.PoisonedProbes),
			export.F(c.CleanAvgWindow), export.F(c.PoisonedAvgWindow),
			fmt.Sprint(c.CleanMaxWindow), fmt.Sprint(c.PoisonedMaxWindow),
			export.F(c.SecondStageMSEGain))
	}
	tb.Render(os.Stdout)
	if err := writeCSV(out, "ext-lookup.csv", tb); err != nil {
		return err
	}

	fmt.Println("\n=== Extension B: backend comparison through index.Backend ===")
	bcells, err := bench.CompareBackends(opts)
	if err != nil {
		return err
	}
	tb = export.NewTable("backend", "keys", "clean_probes", "poisoned_probes",
		"probe_inflation", "clean_window", "poisoned_window", "retrains")
	for _, c := range bcells {
		tb.AddRow(c.Backend, fmt.Sprint(c.Keys), export.F(c.CleanProbes),
			export.F(c.PoisonedProbes), export.F(c.ProbeInflation),
			fmt.Sprint(c.CleanWindow), fmt.Sprint(c.PoisonedWindow),
			fmt.Sprint(c.Retrains))
	}
	tb.Render(os.Stdout)
	if err := writeCSV(out, "ext-backends.csv", tb); err != nil {
		return err
	}

	fmt.Println("\n=== Extension C: TRIM defense vs the CDF attack ===")
	tcells, err := bench.TrimDefense(opts)
	if err != nil {
		return err
	}
	tb = export.NewTable("keys", "poison_pct", "precision", "recall",
		"attack_ratio", "after_defense_ratio", "millis")
	for _, c := range tcells {
		tb.AddRow(fmt.Sprint(c.Keys), export.F(c.PoisonPct), export.F(c.Precision),
			export.F(c.Recall), export.F(c.AttackRatio), export.F(c.AfterRatio),
			fmt.Sprint(c.Millis))
	}
	tb.Render(os.Stdout)
	if err := writeCSV(out, "ext-trim.csv", tb); err != nil {
		return err
	}

	fmt.Println("\n=== Extension E2: insertion vs deletion vs modification adversaries ===")
	ac, err := bench.AdversaryComparison(opts)
	if err != nil {
		return err
	}
	tb = export.NewTable("keys", "budget_pct", "insertion_ratio", "removal_ratio", "modification_ratio")
	tb.AddRow(fmt.Sprint(ac.Keys), export.F(ac.BudgetPct), export.F(ac.InsertionRatio),
		export.F(ac.RemovalRatio), export.F(ac.ModifyRatio))
	tb.Render(os.Stdout)
	if err := writeCSV(out, "ext-adversaries.csv", tb); err != nil {
		return err
	}

	fmt.Println("\n=== Extension F: segment inflation of a PGM/FITing-tree-style index ===")
	pcells, err := bench.PLAInflation(opts)
	if err != nil {
		return err
	}
	tb = export.NewTable("epsilon", "keys", "poison_pct", "clean_segments",
		"loss_attack_segments", "loss_inflation", "burst_segments",
		"burst_inflation", "burst_injected", "clean_bytes", "burst_bytes")
	for _, c := range pcells {
		tb.AddRow(fmt.Sprint(c.Epsilon), fmt.Sprint(c.Keys), export.F(c.PoisonPct),
			fmt.Sprint(c.CleanSegments), fmt.Sprint(c.LossAttackSegments),
			export.F(c.LossInflation), fmt.Sprint(c.BurstSegments),
			export.F(c.BurstInflation), fmt.Sprint(c.BurstInjected),
			fmt.Sprint(c.CleanBytes), fmt.Sprint(c.BurstBytes))
	}
	tb.Render(os.Stdout)
	if err := writeCSV(out, "ext-pla.csv", tb); err != nil {
		return err
	}

	fmt.Println("\n=== Extension G: quadratic second stage as a mitigation ===")
	qc, err := bench.QuadraticMitigation(opts)
	if err != nil {
		return err
	}
	tb = export.NewTable("keys", "poison_pct", "linear_ratio", "quad_ratio",
		"linear_clean_loss", "quad_clean_loss", "params_linear", "params_quad")
	tb.AddRow(fmt.Sprint(qc.Keys), export.F(qc.PoisonPct), export.F(qc.LinearRatio),
		export.F(qc.QuadRatio), export.F(qc.LinearCleanLoss), export.F(qc.QuadCleanLoss),
		fmt.Sprint(qc.ParamsLinear), fmt.Sprint(qc.ParamsQuad))
	tb.Render(os.Stdout)
	return writeCSV(out, "ext-quad.csv", tb)
}

func runAblations(opts bench.Options, out string) error {
	fmt.Println("=== Ablation 1: endpoint enumeration vs brute force ===")
	ep, err := bench.EndpointsVsBrute(opts)
	if err != nil {
		return err
	}
	tb := export.NewTable("keys", "domain", "opt_candidates", "brute_candidates",
		"agree", "opt_micros", "brute_micros", "speedup")
	speedup := float64(ep.BruteMicros) / float64(max64(ep.OptMicros, 1))
	tb.AddRow(fmt.Sprint(ep.Keys), fmt.Sprint(ep.Domain), fmt.Sprint(ep.OptCandidates),
		fmt.Sprint(ep.BruteCandidates), fmt.Sprint(ep.Agree),
		fmt.Sprint(ep.OptMicros), fmt.Sprint(ep.BruteMicros), export.F(speedup))
	tb.Render(os.Stdout)
	if err := writeCSV(out, "ablation-endpoints.csv", tb); err != nil {
		return err
	}

	fmt.Println("\n=== Ablation 2: greedy volume allocation vs uniform split ===")
	va, err := bench.VolumeAllocation(opts)
	if err != nil {
		return err
	}
	tb = export.NewTable("dist", "uniform_rmi_ratio", "greedy_rmi_ratio", "moves")
	tb.AddRow(string(va.Dist), export.F(va.UniformRatio), export.F(va.GreedyRatio),
		fmt.Sprint(va.Moves))
	tb.Render(os.Stdout)
	if err := writeCSV(out, "ablation-volume.csv", tb); err != nil {
		return err
	}

	fmt.Println("\n=== Ablation 3: per-model poisoning threshold α ===")
	ac, err := bench.AlphaSweep(opts)
	if err != nil {
		return err
	}
	tb = export.NewTable("alpha", "rmi_ratio", "max_model_budget")
	for _, c := range ac {
		a := export.F(c.Alpha)
		if c.Alpha == 0 {
			a = "unbounded"
		}
		tb.AddRow(a, export.F(c.RMIRatio), fmt.Sprint(c.MaxBudget))
	}
	tb.Render(os.Stdout)
	return writeCSV(out, "ablation-alpha.csv", tb)
}

func runOnline(opts bench.Options, out string) error {
	fmt.Println("=== Online scenario: poisoning an updatable index across retrain cycles ===")
	res, err := bench.OnlineSweep(opts)
	if err != nil {
		return err
	}
	fmt.Printf("n = %d initial keys, %d epochs per cell, %.0f%% honest arrivals per epoch\n",
		res.Keys, res.EpochsPerCell, res.ArrivalsPct)
	tb := export.NewTable("policy", "budget_pct", "epoch", "injected", "poison_total",
		"retrains", "buffer", "displaced", "clean_loss", "poisoned_loss", "ratio",
		"clean_probes", "poisoned_probes")
	for _, c := range res.Cells {
		for _, e := range c.Epochs {
			tb.AddRow(c.Policy.String(), export.F(c.BudgetPct), fmt.Sprint(e.Epoch),
				fmt.Sprint(e.Injected), fmt.Sprint(e.PoisonTotal), fmt.Sprint(e.Retrains),
				fmt.Sprint(e.BufferLen), fmt.Sprint(e.Displaced), export.F(e.CleanLoss),
				export.F(e.PoisonedLoss), export.F(e.RatioLoss),
				export.F(e.CleanProbes), export.F(e.PoisonedProbes))
		}
	}
	tb.Render(os.Stdout)
	// Ratio-vs-epoch chart for the highest-budget cell of each policy.
	var series []export.Series
	for _, c := range res.Cells {
		if c.BudgetPct != res.Cells[len(res.Cells)-1].BudgetPct {
			continue
		}
		var xs, ys []float64
		for _, e := range c.Epochs {
			xs = append(xs, float64(e.Epoch))
			ys = append(ys, e.RatioLoss)
		}
		series = append(series, export.Series{Name: c.Policy.String(), X: xs, Y: ys})
	}
	export.RenderChart(os.Stdout, "Loss ratio vs epoch (highest budget)", series, 64, 12)
	fmt.Printf("max final ratio: %.1f×\n", res.MaxFinalRatio())
	return writeCSV(out, "online.csv", tb)
}

func runServe(opts bench.Options, out string) error {
	fmt.Println("=== Serving scenario: poisoning a sharded index under honest load ===")
	res, err := bench.ServeSweep(opts)
	if err != nil {
		return err
	}
	fmt.Printf("n = %d initial keys, %d epochs per cell, %d honest ops per epoch\n",
		res.Keys, res.EpochsPerCell, res.OpsPerEpoch)
	tb := export.NewTable("shards", "workload", "budget_pct", "epoch", "reads", "writes",
		"injected", "poison_total", "displaced", "retrains", "buffer", "imbalance",
		"clean_loss", "poisoned_loss", "ratio", "clean_probes", "poisoned_probes",
		"max_shard_ratio")
	for _, c := range res.Cells {
		for _, e := range c.Epochs {
			tb.AddRow(fmt.Sprint(c.Shards), c.Workload.String(), export.F(c.BudgetPct),
				fmt.Sprint(e.Epoch), fmt.Sprint(e.Reads), fmt.Sprint(e.Writes),
				fmt.Sprint(e.Injected), fmt.Sprint(e.PoisonTotal), fmt.Sprint(e.Displaced),
				fmt.Sprint(e.Retrains), fmt.Sprint(e.BufferLen), export.F(e.Imbalance),
				export.F(e.CleanLoss), export.F(e.PoisonedLoss), export.F(e.RatioLoss),
				export.F(e.CleanProbes), export.F(e.PoisonedProbes), export.F(e.MaxShardRatio()))
		}
	}
	tb.Render(os.Stdout)
	// Ratio-vs-epoch chart per shard count, for the uniform mix.
	var series []export.Series
	for _, c := range res.Cells {
		if !strings.HasPrefix(c.Workload.String(), "uniform") { // chart one mix
			continue
		}
		var xs, ys []float64
		for _, e := range c.Epochs {
			xs = append(xs, float64(e.Epoch))
			ys = append(ys, e.RatioLoss)
		}
		series = append(series, export.Series{Name: fmt.Sprintf("%d shards", c.Shards), X: xs, Y: ys})
	}
	export.RenderChart(os.Stdout, "Aggregate loss ratio vs epoch (uniform mix)", series, 64, 12)
	fmt.Printf("max final ratio: %.1f×\n", res.MaxFinalRatio())
	return writeCSV(out, "serve.csv", tb)
}

// perfArtifact is the perf report's file name: the repository root holds
// the checked-in baseline of the same name that CI gates against.
const perfArtifact = "BENCH_PR10.json"

// runChurn renders the retrain-churn sweep: the per-epoch staleness,
// publish-latency, and loss trajectory of core.ChurnAttack across
// rebuild-cost models and budgets.
func runChurn(opts bench.Options, out string) error {
	fmt.Println("=== Retrain-churn scenario: poisoning the rebuild pipeline itself ===")
	res, err := bench.ChurnSweep(opts)
	if err != nil {
		return err
	}
	fmt.Printf("n = %d initial keys, %d shards, policy %s, %s mix, %d epochs per cell, %d ops/epoch\n",
		res.Keys, res.Shards, res.Policy, res.Workload, res.EpochsPerCell, res.OpsPerEpoch)
	tb := export.NewTable("cost", "budget_pct", "epoch", "target_shard", "reads", "writes",
		"injected", "poison_total", "retrains", "publishes", "coalesced",
		"stale_reads", "stale_frac", "clean_stale_frac", "stale_ticks", "rebuild_ticks",
		"pub_lat_mean", "pub_lat_max", "clean_loss", "poisoned_loss", "ratio",
		"clean_probes", "poisoned_probes", "probe_ratio")
	for _, c := range res.Cells {
		for _, e := range c.Epochs {
			tb.AddRow(c.Cost.String(), export.F(c.BudgetPct), fmt.Sprint(e.Epoch),
				fmt.Sprint(e.TargetShard), fmt.Sprint(e.Reads), fmt.Sprint(e.Writes),
				fmt.Sprint(e.Injected), fmt.Sprint(e.PoisonTotal), fmt.Sprint(e.Retrains),
				fmt.Sprint(e.Publishes), fmt.Sprint(e.Coalesced),
				fmt.Sprint(e.StaleReads), export.F(e.StaleFrac), export.F(e.CleanStaleFrac),
				fmt.Sprint(e.StaleTicks), fmt.Sprint(e.RebuildTicks),
				export.F(e.MeanPublishLatency), fmt.Sprint(e.MaxPublishLatency),
				export.F(e.CleanLoss), export.F(e.PoisonedLoss), export.F(e.RatioLoss),
				export.F(e.CleanProbes), export.F(e.PoisonedProbes), export.F(e.ProbeRatio))
		}
	}
	tb.Render(os.Stdout)
	// Stale-fraction-vs-epoch chart for the highest-budget cell of each
	// non-zero cost model.
	var series []export.Series
	for _, c := range res.Cells {
		if c.Cost.Zero() || c.BudgetPct != res.Cells[len(res.Cells)-1].BudgetPct {
			continue
		}
		var xs, ys []float64
		for _, e := range c.Epochs {
			xs = append(xs, float64(e.Epoch))
			ys = append(ys, e.StaleFrac)
		}
		series = append(series, export.Series{Name: c.Cost.String(), X: xs, Y: ys})
	}
	export.RenderChart(os.Stdout, "Victim stale-read fraction vs epoch (highest budget)", series, 64, 12)
	fmt.Printf("max stale-read fraction: %.2f, max publish latency: %d ticks\n",
		res.MaxStaleFrac(), res.MaxLatency())
	return writeCSV(out, "churn.csv", tb)
}

// runCascade renders the split-cascade sweep: the per-epoch structural
// damage trajectory of core.CascadeAttack on the gapped-array backend
// across leaf targets and budgets. Every column is deterministic, so the
// CSV is fingerprintable.
func runCascade(opts bench.Options, out string) error {
	fmt.Println("=== Split-cascade scenario: structural poisoning of the gapped-array index ===")
	res, err := bench.CascadeSweep(opts)
	if err != nil {
		return err
	}
	fmt.Printf("n = %d initial keys, %s mix, %d epochs per cell, %d ops/epoch\n",
		res.Keys, res.Workload, res.EpochsPerCell, res.OpsPerEpoch)
	tb := export.NewTable("leaf_target", "budget_pct", "epoch", "target_node",
		"target_density", "reads", "writes", "injected", "poison_total",
		"shift_writes", "clean_shift_writes", "splits", "clean_splits",
		"cascades", "clean_cascades", "nodes", "clean_nodes",
		"struct_cost", "clean_struct_cost", "struct_ratio", "damage_score",
		"clean_probes", "poisoned_probes", "probe_ratio",
		"clean_loss", "poisoned_loss", "loss_ratio")
	for _, c := range res.Cells {
		for _, e := range c.Epochs {
			tb.AddRow(fmt.Sprint(c.LeafTarget), export.F(c.BudgetPct), fmt.Sprint(e.Epoch),
				fmt.Sprint(e.TargetNode), export.F(e.TargetDensity),
				fmt.Sprint(e.Reads), fmt.Sprint(e.Writes),
				fmt.Sprint(e.Injected), fmt.Sprint(e.PoisonTotal),
				fmt.Sprint(e.ShiftWrites), fmt.Sprint(e.CleanShiftWrites),
				fmt.Sprint(e.Splits), fmt.Sprint(e.CleanSplits),
				fmt.Sprint(e.Cascades), fmt.Sprint(e.CleanCascades),
				fmt.Sprint(e.Nodes), fmt.Sprint(e.CleanNodes),
				fmt.Sprint(e.StructCost), fmt.Sprint(e.CleanStructCost),
				export.F(e.StructRatio), export.F(e.DamageScore),
				export.F(e.CleanProbes), export.F(e.PoisonedProbes), export.F(e.ProbeRatio),
				export.F(e.CleanLoss), export.F(e.PoisonedLoss), export.F(e.RatioLoss))
		}
	}
	tb.Render(os.Stdout)
	// Struct-ratio-vs-epoch chart for the highest-budget cell of each leaf
	// target.
	var series []export.Series
	for _, c := range res.Cells {
		if c.BudgetPct != res.Cells[len(res.Cells)-1].BudgetPct {
			continue
		}
		var xs, ys []float64
		for _, e := range c.Epochs {
			xs = append(xs, float64(e.Epoch))
			ys = append(ys, e.StructRatio)
		}
		series = append(series, export.Series{Name: fmt.Sprintf("leaf=%d", c.LeafTarget), X: xs, Y: ys})
	}
	export.RenderChart(os.Stdout, "Victim/clean structural-cost ratio vs epoch (highest budget)", series, 64, 12)
	fmt.Printf("max struct ratio: %.1f×, attacker-forced cascades: %d\n",
		res.MaxStructRatio(), res.TotalCascades())
	return writeCSV(out, "cascade.csv", tb)
}

// runDefense renders the attack-vs-defense Pareto sweep: every scenario at
// three defense strengths, with damage reduction plotted against the honest-
// traffic overhead the defense charged. Every column is deterministic, so
// the CSV is fingerprintable.
func runDefense(opts bench.Options, out string) error {
	fmt.Println("=== Defense Pareto sweep: attack-damage reduction vs honest-traffic overhead ===")
	res, err := bench.DefenseSweep(opts)
	if err != nil {
		return err
	}
	tb := export.NewTable("scenario", "strength", "defense", "damage", "damage_excess",
		"damage_reduction", "honest_overhead", "poison_blocked",
		"flagged_poison", "flagged_honest", "throttled_poison", "throttled_honest",
		"clean_flagged", "clean_throttled", "frontier")
	for _, c := range res.Cells {
		tb.AddRow(c.Scenario, c.Strength, c.Spec,
			export.F(c.Damage), export.F(c.Excess), export.F(c.Reduction),
			export.F(c.Overhead), export.F(c.PoisonBlocked),
			fmt.Sprint(c.Report.FlaggedPoison), fmt.Sprint(c.Report.FlaggedHonest),
			fmt.Sprint(c.Report.ThrottledPoison), fmt.Sprint(c.Report.ThrottledHonest),
			fmt.Sprint(c.Report.CleanFlagged), fmt.Sprint(c.Report.CleanThrottled),
			fmt.Sprint(c.Frontier))
	}
	tb.Render(os.Stdout)
	// Per-scenario headline: the best armed tier under the 20% overhead bar.
	for _, s := range res.Scenarios() {
		best, ok := res.Best(s, 0.2)
		if !ok {
			fmt.Printf("%-8s no armed tier under the 20%% overhead bar\n", s)
			continue
		}
		fmt.Printf("%-8s best: %-45s %6.1fx damage reduction at %4.1f%% honest overhead\n",
			s, best.Spec, best.Reduction, best.Overhead*100)
	}
	return writeCSV(out, "defense.csv", tb)
}

// runThroughput renders the concurrent-serving throughput sweep: per-epoch
// tail-latency percentiles (probe counts — deterministic, so the CSV is
// fingerprintable) clean vs poisoned, with wall-clock ops/sec on stdout
// only.
func runThroughput(opts bench.Options, out string) error {
	fmt.Println("=== Throughput scenario: tail latency of the concurrent serving plane under poisoning ===")
	res, err := bench.ThroughputSweep(opts)
	if err != nil {
		return err
	}
	fmt.Printf("n = %d initial keys, %d shards, policy %s, %d epochs per cell, %d ops/epoch, %d readers × batch %d\n",
		res.Keys, res.Shards, res.Policy, res.EpochsPerCell, res.OpsPerEpoch, res.Readers, res.BatchSize)
	tb := export.NewTable("workload", "cost", "budget_pct", "epoch",
		"clean_p50", "clean_p99", "clean_p999", "clean_max",
		"poisoned_p50", "poisoned_p99", "poisoned_p999", "poisoned_max",
		"p99_ratio", "p999_ratio", "clean_probes", "poisoned_probes",
		"clean_stale_frac", "poisoned_stale_frac", "injected",
		"clean_loss", "poisoned_loss", "loss_ratio",
		"clean_hist_sum", "poisoned_hist_sum")
	for _, c := range res.Cells {
		for e := range c.Poisoned {
			cl, po := c.Clean[e], c.Poisoned[e]
			tb.AddRow(c.Workload.String(), c.Cost.String(), export.F(c.BudgetPct),
				fmt.Sprint(po.Epoch),
				fmt.Sprint(cl.P50), fmt.Sprint(cl.P99), fmt.Sprint(cl.P999), fmt.Sprint(cl.MaxProbes),
				fmt.Sprint(po.P50), fmt.Sprint(po.P99), fmt.Sprint(po.P999), fmt.Sprint(po.MaxProbes),
				export.F(ratio(po.P99, cl.P99)), export.F(ratio(po.P999, cl.P999)),
				fmt.Sprint(cl.ProbeTotal), fmt.Sprint(po.ProbeTotal),
				export.F(cl.StaleFrac), export.F(po.StaleFrac), fmt.Sprint(po.Injected),
				export.F(cl.ContentLoss), export.F(po.ContentLoss),
				export.F(ratio64(po.ContentLoss, cl.ContentLoss)),
				fmt.Sprintf("%016x", cl.HistChecksum), fmt.Sprintf("%016x", po.HistChecksum))
		}
	}
	tb.Render(os.Stdout)
	// Tail-latency chart: poisoned p999 vs epoch for each cost model under
	// the zipf mix.
	var series []export.Series
	for _, c := range res.Cells {
		if !strings.HasPrefix(c.Workload.String(), "zipf") {
			continue
		}
		var xs, ys []float64
		for _, e := range c.Poisoned {
			xs = append(xs, float64(e.Epoch))
			ys = append(ys, float64(e.P999))
		}
		series = append(series, export.Series{Name: c.Cost.String(), X: xs, Y: ys})
	}
	export.RenderChart(os.Stdout, "Poisoned p999 probe latency vs epoch (zipf mix)", series, 64, 12)
	// Wall-clock figures: stdout only, never in the fingerprinted CSV.
	fmt.Println("wall-clock throughput (machine-dependent, not in CSV):")
	for _, c := range res.Cells {
		fmt.Printf("  %-14s %-24s clean %10.0f ops/s   poisoned %10.0f ops/s\n",
			c.Workload, c.Cost, c.CleanOpsPerSec, c.PoisonedOpsPerSec)
	}
	fmt.Printf("max poisoned/clean p999 ratio: %.2f×\n", res.MaxP999Ratio())
	return writeCSV(out, "throughput.csv", tb)
}

func ratio(poisoned, clean int64) float64 {
	return ratio64(float64(poisoned), float64(clean))
}

func ratio64(poisoned, clean float64) float64 {
	if clean == 0 {
		if poisoned == 0 {
			return 1
		}
		return poisoned
	}
	return poisoned / clean
}

// runPerf measures the fixed attack×n×workers cell list (bench.PerfSweep),
// prints the table, writes the perf artifact when -out is given, and —
// when -baseline names a previous report — fails on >perfTol ns/op (or
// allocs/op) regression in any matched cell. EXPERIMENTS.md's perf table
// records the checked-in baseline's provenance.
func runPerf(opts bench.Options, out string) error {
	fmt.Println("=== Perf sweep: attack throughput trajectory (" + perfArtifact + ") ===")
	rep, err := bench.PerfSweep(opts)
	if err != nil {
		return err
	}
	fmt.Printf("host: %s/%s, %d CPU (GOMAXPROCS %d), %s, scale %s\n",
		rep.GOOS, rep.GOARCH, rep.NumCPU, rep.GOMAXPROCS, rep.GoVersion, rep.Scale)
	tb := export.NewTable("attack", "n", "p", "workers", "iters",
		"ns_per_op", "allocs_per_op", "bytes_per_op")
	for _, r := range rep.Records {
		tb.AddRow(r.Attack, fmt.Sprint(r.N), fmt.Sprint(r.P), fmt.Sprint(r.Workers),
			fmt.Sprint(r.Iters), export.F(r.NsPerOp), export.F(r.AllocsPerOp),
			export.F(r.BytesPerOp))
	}
	tb.Render(os.Stdout)
	if out != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		path := filepath.Join(out, perfArtifact)
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	if perfBaseline == "" {
		return nil
	}
	blob, err := os.ReadFile(perfBaseline)
	if err != nil {
		return fmt.Errorf("read baseline: %w", err)
	}
	var base bench.PerfReport
	if err := json.Unmarshal(blob, &base); err != nil {
		return fmt.Errorf("parse baseline %s: %w", perfBaseline, err)
	}
	deltas, ok := bench.ComparePerf(base, rep, perfTol)
	ct := export.NewTable("cell", "base_ns", "cur_ns", "ns_ratio", "base_allocs", "cur_allocs", "verdict")
	for _, d := range deltas {
		verdict := "ok"
		if d.Reason != "" {
			verdict = d.Reason
		}
		ct.AddRow(d.Key, export.F(d.BaseNs), export.F(d.CurNs), export.F(d.NsRatio),
			export.F(d.BaseAllocs), export.F(d.CurAllocs), verdict)
	}
	ct.Render(os.Stdout)
	if !ok {
		return fmt.Errorf("perf regression against %s exceeds %.0f%% tolerance", perfBaseline, perfTol*100)
	}
	fmt.Printf("no regression against %s (tolerance %.0f%%)\n", perfBaseline, perfTol*100)
	return nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
