// Command lispoison generates key datasets, mounts the paper's poisoning
// attacks against them, evaluates the damage, and runs the TRIM defense —
// all on plain text key files (one decimal key per line).
//
// Subcommands:
//
//	lispoison gen    -dist uniform -n 10000 -domain 1000000 -o keys.txt
//	lispoison attack -in keys.txt -percent 10 -o poison.txt            # regression attack
//	lispoison attack -in keys.txt -percent 10 -modelsize 100 -o p.txt  # RMI attack
//	lispoison online -in keys.txt -epochs 8 -percent 2 -policy buffer:256 -o p.txt
//	lispoison serve  -in keys.txt -epochs 6 -percent 2 -shards 4 -workload zipf:1.1:90
//	lispoison churn  -in keys.txt -epochs 6 -percent 2 -shards 4 -policy buffer:64 -cost linear:10:25:100
//	lispoison cascade -in keys.txt -epochs 6 -percent 2 -leaf 32 -workload zipf:1.1:85
//	lispoison throughput -in keys.txt -epochs 5 -percent 2 -readers 4 -cost fixed:40
//	lispoison eval   -clean keys.txt -poison poison.txt [-modelsize 100]
//	lispoison defend -in poisoned.txt -clean-count 10000 -o kept.txt
//	lispoison defense -in keys.txt -scenario serve -chain density:8:3|dupmass:3:3 -rate 4:20 -sources 8
//
// The online subcommand mounts the dynamic-index scenario: the attacker
// injects -percent (of the input keys) poison keys PER EPOCH into an
// updatable index running the given retrain -policy (manual | every:K |
// buffer:K), optionally interleaved with -arrivals honest inserts per
// epoch, and prints the per-epoch damage trajectory.
//
// The serve subcommand mounts the serving scenario: the same per-epoch
// attacker against a -shards-way sharded index while an honest population
// drives a -workload mix (uniform[:R] | zipf[:T[:R]] | hotspot[:H[:R]]) of
// reads and writes; the per-epoch table adds probe costs, shard imbalance,
// and the worst per-shard loss ratio. Both serve and churn accept a -cost
// rebuild model (zero | fixed:F | linear:F:P[:U]) pricing each retrain in
// logical ticks on the background-retrain pipeline.
//
// The churn subcommand mounts the retrain-churn scenario: the attacker
// drip-feeds keys into the one shard where each key buys the most rebuild
// work, and the per-epoch table reports stale-read fractions, publish
// latency in ticks, and the loss ratio against the clean counterfactual.
//
// The cascade subcommand mounts the split-cascade scenario against the
// gapped-array (ALEX-style) index: the attacker drip-feeds keys into the
// densest leaf, where inserts shift the longest occupied runs and force
// splits — and, past the fanout limit, full rebuild cascades. The per-epoch
// table reports the structural cost (slot writes) of victim vs clean, the
// cost ratio, and the damage score.
//
// The throughput subcommand runs the goroutine-concurrent serving plane
// (-readers reader goroutines off immutable snapshots, one writer, true
// background retrains) clean vs poisoned and prints per-epoch tail-latency
// percentiles (p50/p99/p999 in probes — identical for any -readers value)
// plus wall-clock ops/sec.
//
// Every command is deterministic given -seed (throughput's ops/sec figures
// are wall-clock; every other column is deterministic).
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"cdfpoison"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "attack":
		err = cmdAttack(os.Args[2:])
	case "online":
		err = cmdOnline(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "churn":
		err = cmdChurn(os.Args[2:])
	case "cascade":
		err = cmdCascade(os.Args[2:])
	case "throughput":
		err = cmdThroughput(os.Args[2:])
	case "eval":
		err = cmdEval(os.Args[2:])
	case "defend":
		err = cmdDefend(os.Args[2:])
	case "defense":
		err = cmdDefense(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "lispoison: unknown subcommand %q\n\n", os.Args[1])
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "lispoison: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: lispoison <gen|attack|online|serve|churn|cascade|throughput|eval|defend|defense> [flags]

  gen        generate a key dataset (uniform|normal|lognormal|salaries|osm)
  attack     poison a key file (linear regression on CDF, or two-stage RMI)
  online     drip-feed poison into an updatable index across retrain cycles
  serve      poison a sharded serving index under an honest read/write load
  churn      maximize retrain churn and stale windows on the rebuild pipeline
  cascade    force splits and rebuild cascades on the gapped-array index
  throughput poison the concurrent serving plane; report tail-latency SLOs
  eval       measure ratio loss of a poisoned file against the clean file
  defend     run the TRIM defense on a poisoned file
  defense    arm the online defense plane against one scenario; report the trade-off

Run 'lispoison <subcommand> -h' for flags.`)
	os.Exit(2)
}

func readKeys(path string) (cdfpoison.KeySet, error) {
	f, err := os.Open(path)
	if err != nil {
		return cdfpoison.KeySet{}, err
	}
	defer f.Close()
	return cdfpoison.ReadKeysText(f)
}

func writeKeys(path string, ks cdfpoison.KeySet) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return ks.WriteText(f)
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	dist := fs.String("dist", "uniform", "uniform|normal|lognormal|salaries|osm")
	n := fs.Int("n", 10000, "number of keys (ignored for salaries/osm full sets)")
	domain := fs.Int64("domain", 1_000_000, "key universe size m (synthetic dists)")
	mu := fs.Float64("mu", 0, "log-normal mu")
	sigma := fs.Float64("sigma", 2, "log-normal sigma")
	seed := fs.Uint64("seed", 42, "rng seed")
	out := fs.String("o", "", "output file (required)")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("gen: -o is required")
	}
	rng := cdfpoison.NewRNG(*seed)
	var (
		ks  cdfpoison.KeySet
		err error
	)
	switch *dist {
	case "uniform":
		ks, err = cdfpoison.UniformKeys(rng, *n, *domain)
	case "normal":
		ks, err = cdfpoison.NormalKeys(rng, *n, *domain)
	case "lognormal":
		ks, err = cdfpoison.LogNormalKeys(rng, *n, *domain, *mu, *sigma)
	case "salaries":
		ks, err = cdfpoison.MiamiSalaries(rng)
	case "osm":
		ks, err = cdfpoison.OSMLatitudes(rng)
	default:
		return fmt.Errorf("gen: unknown distribution %q", *dist)
	}
	if err != nil {
		return fmt.Errorf("gen: %w", err)
	}
	if err := writeKeys(*out, ks); err != nil {
		return fmt.Errorf("gen: %w", err)
	}
	fmt.Printf("wrote %d keys (min %d, max %d) to %s\n", ks.Len(), ks.Min(), ks.Max(), *out)
	return nil
}

func cmdAttack(args []string) error {
	fs := flag.NewFlagSet("attack", flag.ExitOnError)
	in := fs.String("in", "", "input key file (required)")
	percent := fs.Float64("percent", 10, "poisoning percentage φ·100")
	modelSize := fs.Int("modelsize", 0, "RMI second-stage model size; 0 = plain regression attack")
	models := fs.Int("models", 0, "RMI fanout N (alternative to -modelsize)")
	alpha := fs.Float64("alpha", 3, "per-model poisoning threshold multiplier (RMI)")
	removal := fs.Bool("removal", false, "mount the deletion adversary instead of injection")
	workers := fs.Int("workers", 0, "worker pool size for the attack: 0 = one per core, 1 = sequential; results are identical for any value (injection attacks only)")
	out := fs.String("o", "", "output file for poison (or removed) keys (required)")
	outAll := fs.String("o-poisoned", "", "optional output file for the full poisoned (or surviving) key set")
	fs.Parse(args)
	if *in == "" || *out == "" {
		return fmt.Errorf("attack: -in and -o are required")
	}
	ks, err := readKeys(*in)
	if err != nil {
		return fmt.Errorf("attack: %w", err)
	}

	if *removal {
		budget := int(float64(ks.Len()) * *percent / 100)
		g, err := cdfpoison.GreedyRemoval(ks, budget)
		if err != nil {
			return fmt.Errorf("attack: %w", err)
		}
		removed, err := cdfpoison.NewKeySetStrict(g.Removed)
		if err != nil {
			return fmt.Errorf("attack: %w", err)
		}
		fmt.Printf("removal attack: %d keys deleted, MSE %.6g -> %.6g (ratio %.2f×)\n",
			len(g.Removed), g.CleanLoss, g.FinalLoss(), g.RatioLoss())
		if err := writeKeys(*out, removed); err != nil {
			return fmt.Errorf("attack: %w", err)
		}
		fmt.Printf("wrote %d removed keys to %s\n", removed.Len(), *out)
		if *outAll != "" {
			if err := writeKeys(*outAll, g.Remaining); err != nil {
				return fmt.Errorf("attack: %w", err)
			}
			fmt.Printf("wrote %d surviving keys to %s\n", g.Remaining.Len(), *outAll)
		}
		return nil
	}

	var poison cdfpoison.KeySet
	var poisoned cdfpoison.KeySet
	if *modelSize == 0 && *models == 0 {
		budget := int(float64(ks.Len()) * *percent / 100)
		g, err := cdfpoison.GreedyMultiPoint(ks, budget, cdfpoison.WithParallelism(*workers))
		if err != nil {
			return fmt.Errorf("attack: %w", err)
		}
		poison, err = cdfpoison.NewKeySetStrict(g.Poison)
		if err != nil {
			return fmt.Errorf("attack: %w", err)
		}
		poisoned = g.Poisoned
		fmt.Printf("regression attack: %d poison keys, MSE %.6g -> %.6g (ratio %.2f×)\n",
			len(g.Poison), g.CleanLoss, g.FinalLoss(), g.RatioLoss())
		if g.BlocksTotal > 0 {
			fmt.Printf("pruned scan: %d candidates over %d/%d gap blocks (%.1f%% visited)\n",
				g.Candidates, g.BlocksVisited, g.BlocksTotal,
				100*float64(g.BlocksVisited)/float64(g.BlocksTotal))
		}
	} else {
		N := *models
		if N == 0 {
			N = ks.Len() / *modelSize
			if N < 1 {
				N = 1
			}
		}
		res, err := cdfpoison.RMIAttack(ks, cdfpoison.RMIAttackOptions{
			NumModels: N, Percent: *percent, Alpha: *alpha,
		}, cdfpoison.WithParallelism(*workers))
		if err != nil {
			return fmt.Errorf("attack: %w", err)
		}
		poison = res.Poison
		poisoned = ks.Union(res.Poison)
		fmt.Printf("RMI attack: N=%d models, %d/%d poison keys injected, L_RMI %.6g -> %.6g (ratio %.2f×), %d exchanges\n",
			N, res.Injected, res.Budget, res.CleanRMILoss, res.PoisonedRMILoss, res.RMIRatio(), res.Moves)
	}
	if err := writeKeys(*out, poison); err != nil {
		return fmt.Errorf("attack: %w", err)
	}
	fmt.Printf("wrote %d poison keys to %s\n", poison.Len(), *out)
	if *outAll != "" {
		if err := writeKeys(*outAll, poisoned); err != nil {
			return fmt.Errorf("attack: %w", err)
		}
		fmt.Printf("wrote %d poisoned keys to %s\n", poisoned.Len(), *outAll)
	}
	return nil
}

func cmdOnline(args []string) error {
	fs := flag.NewFlagSet("online", flag.ExitOnError)
	in := fs.String("in", "", "input key file (required)")
	epochs := fs.Int("epochs", 8, "number of attack epochs (retrain cycles)")
	percent := fs.Float64("percent", 2, "per-EPOCH poisoning percentage of the input keys")
	policyStr := fs.String("policy", "manual", "retrain policy: manual | every:K | buffer:K")
	arrivals := fs.Int("arrivals", 0, "honest inserts per epoch, drawn uniformly over the key range")
	oracle := fs.String("oracle", "regression", "per-epoch attack oracle: regression | rmi")
	models := fs.Int("models", 0, "RMI fanout N (rmi oracle)")
	alpha := fs.Float64("alpha", 3, "per-model poisoning threshold multiplier (rmi oracle)")
	seed := fs.Uint64("seed", 42, "rng seed for the arrival stream")
	workers := fs.Int("workers", 0, "worker pool size: 0 = one per core, 1 = sequential; results are identical for any value")
	out := fs.String("o", "", "optional output file for the injected poison keys")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("online: -in is required")
	}
	if *epochs < 1 {
		return fmt.Errorf("online: -epochs must be >= 1, got %d", *epochs)
	}
	ks, err := readKeys(*in)
	if err != nil {
		return fmt.Errorf("online: %w", err)
	}
	policy, err := cdfpoison.ParseRetrainPolicy(*policyStr)
	if err != nil {
		return fmt.Errorf("online: %w", err)
	}
	opts := cdfpoison.OnlineOptions{
		Epochs:      *epochs,
		EpochBudget: int(float64(ks.Len()) * *percent / 100),
		Policy:      policy,
	}
	switch *oracle {
	case "regression":
	case "rmi":
		opts.Oracle = cdfpoison.OracleRMI
		N := *models
		if N == 0 {
			N = ks.Len() / 100
			if N < 1 {
				N = 1
			}
		}
		opts.RMI = cdfpoison.RMIAttackOptions{NumModels: N, Alpha: *alpha}
	default:
		return fmt.Errorf("online: unknown oracle %q (want regression | rmi)", *oracle)
	}
	if *arrivals > 0 {
		rng := cdfpoison.NewRNG(*seed)
		span := ks.Max() - ks.Min() + 1
		opts.Arrivals = make([][]int64, *epochs)
		for e := range opts.Arrivals {
			for i := 0; i < *arrivals; i++ {
				opts.Arrivals[e] = append(opts.Arrivals[e], ks.Min()+rng.Int63n(span))
			}
		}
	}
	res, err := cdfpoison.OnlinePoisonAttack(ks, opts, cdfpoison.WithParallelism(*workers))
	if err != nil {
		return fmt.Errorf("online: %w", err)
	}
	fmt.Printf("online attack: policy=%s, %d keys/epoch over %d epochs (%d honest arrivals/epoch)\n",
		policy, opts.EpochBudget, *epochs, *arrivals)
	fmt.Printf("%5s %9s %7s %9s %7s %10s %12s %12s\n",
		"epoch", "injected", "buffer", "retrains", "ratio", "displaced", "clean_prob", "pois_prob")
	for _, e := range res.Epochs {
		fmt.Printf("%5d %9d %7d %9d %7.2f %10d %12.2f %12.2f\n",
			e.Epoch, e.Injected, e.BufferLen, e.Retrains, e.RatioLoss,
			e.Displaced, e.CleanProbes, e.PoisonedProbes)
	}
	fmt.Printf("final ratio %.2f× (max %.2f×), %d poison keys, %d retrains\n",
		res.FinalRatio(), res.MaxRatio(), res.Poison.Len(), res.Retrains)
	if *out != "" {
		if err := writeKeys(*out, res.Poison); err != nil {
			return fmt.Errorf("online: %w", err)
		}
		fmt.Printf("wrote %d poison keys to %s\n", res.Poison.Len(), *out)
	}
	return nil
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	in := fs.String("in", "", "input key file (required)")
	epochs := fs.Int("epochs", 6, "number of serving epochs")
	percent := fs.Float64("percent", 2, "per-EPOCH poisoning percentage of the input keys")
	shards := fs.Int("shards", 4, "shard count (1 = unsharded)")
	policyStr := fs.String("policy", "manual", "per-shard retrain policy: manual | every:K | buffer:K")
	costStr := fs.String("cost", "zero", "rebuild cost model: zero | fixed:F | linear:F:P[:U] (zero = synchronous)")
	workloadStr := fs.String("workload", "zipf:1.1:90", "honest mix: uniform[:R] | zipf[:T[:R]] | hotspot[:H[:R]]")
	ops := fs.Int("ops", 0, "honest operations per epoch (default 10% of the input keys)")
	seed := fs.Uint64("seed", 42, "rng seed for the operation stream")
	workers := fs.Int("workers", 0, "worker pool size: 0 = one per core, 1 = sequential; results are identical for any value")
	out := fs.String("o", "", "optional output file for the injected poison keys")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("serve: -in is required")
	}
	ks, err := readKeys(*in)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	policy, err := cdfpoison.ParseRetrainPolicy(*policyStr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	cost, err := cdfpoison.ParseRebuildCost(*costStr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	mix, err := cdfpoison.ParseWorkload(*workloadStr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	opsPerEpoch := *ops
	if opsPerEpoch == 0 {
		opsPerEpoch = ks.Len() / 10
	}
	res, err := cdfpoison.ServeAttack(ks, cdfpoison.ServeOptions{
		Epochs:      *epochs,
		OpsPerEpoch: opsPerEpoch,
		EpochBudget: int(float64(ks.Len()) * *percent / 100),
		Shards:      *shards,
		Policy:      policy,
		Workload:    mix,
		Seed:        *seed,
		RebuildCost: cost,
	}, cdfpoison.WithParallelism(*workers))
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	fmt.Printf("serve attack: %d shards, policy=%s, workload=%s, %d ops/epoch over %d epochs\n",
		*shards, policy, mix, opsPerEpoch, *epochs)
	fmt.Printf("%5s %6s %7s %9s %7s %9s %7s %10s %12s %12s %10s\n",
		"epoch", "reads", "writes", "injected", "buffer", "retrains", "ratio",
		"imbalance", "clean_prob", "pois_prob", "max_shard")
	for _, e := range res.Epochs {
		fmt.Printf("%5d %6d %7d %9d %7d %9d %7.2f %10.2f %12.2f %12.2f %10.2f\n",
			e.Epoch, e.Reads, e.Writes, e.Injected, e.BufferLen, e.Retrains,
			e.RatioLoss, e.Imbalance, e.CleanProbes, e.PoisonedProbes, e.MaxShardRatio())
	}
	fmt.Printf("final ratio %.2f× (max %.2f×, worst shard %.2f×), %d poison keys, %d retrains\n",
		res.FinalRatio(), res.MaxRatio(), res.MaxShardRatio(), res.Poison.Len(), res.Retrains)
	if *out != "" {
		if err := writeKeys(*out, res.Poison); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		fmt.Printf("wrote %d poison keys to %s\n", res.Poison.Len(), *out)
	}
	return nil
}

func cmdChurn(args []string) error {
	fs := flag.NewFlagSet("churn", flag.ExitOnError)
	in := fs.String("in", "", "input key file (required)")
	epochs := fs.Int("epochs", 6, "number of serving epochs")
	percent := fs.Float64("percent", 2, "per-EPOCH poisoning percentage of the input keys")
	shards := fs.Int("shards", 4, "shard count (1 = unsharded)")
	policyStr := fs.String("policy", "buffer:64", "per-shard retrain policy: manual | every:K | buffer:K")
	costStr := fs.String("cost", "linear:10:25:100", "rebuild cost model: zero | fixed:F | linear:F:P[:U]")
	workloadStr := fs.String("workload", "zipf:1.1:90", "honest mix: uniform[:R] | zipf[:T[:R]] | hotspot[:H[:R]]")
	ops := fs.Int("ops", 0, "honest operations per epoch (default 10% of the input keys)")
	seed := fs.Uint64("seed", 42, "rng seed for the operation stream")
	workers := fs.Int("workers", 0, "worker pool size: 0 = one per core, 1 = sequential; results are identical for any value")
	out := fs.String("o", "", "optional output file for the injected poison keys")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("churn: -in is required")
	}
	ks, err := readKeys(*in)
	if err != nil {
		return fmt.Errorf("churn: %w", err)
	}
	policy, err := cdfpoison.ParseRetrainPolicy(*policyStr)
	if err != nil {
		return fmt.Errorf("churn: %w", err)
	}
	cost, err := cdfpoison.ParseRebuildCost(*costStr)
	if err != nil {
		return fmt.Errorf("churn: %w", err)
	}
	mix, err := cdfpoison.ParseWorkload(*workloadStr)
	if err != nil {
		return fmt.Errorf("churn: %w", err)
	}
	opsPerEpoch := *ops
	if opsPerEpoch == 0 {
		opsPerEpoch = ks.Len() / 10
	}
	res, err := cdfpoison.ChurnAttack(ks, cdfpoison.ChurnOptions{
		Epochs:      *epochs,
		OpsPerEpoch: opsPerEpoch,
		EpochBudget: int(float64(ks.Len()) * *percent / 100),
		Shards:      *shards,
		Policy:      policy,
		Workload:    mix,
		Seed:        *seed,
		Cost:        cost,
	}, cdfpoison.WithParallelism(*workers))
	if err != nil {
		return fmt.Errorf("churn: %w", err)
	}
	fmt.Printf("churn attack: %d shards, policy=%s, cost=%s, workload=%s, %d ops/epoch over %d epochs\n",
		*shards, policy, cost, mix, opsPerEpoch, *epochs)
	fmt.Printf("%5s %6s %9s %7s %9s %9s %10s %10s %8s %8s %7s %11s\n",
		"epoch", "shard", "injected", "stale%", "publish", "coalesce", "lat_mean", "lat_max",
		"rebuild", "stale_t", "ratio", "probe_ratio")
	for _, e := range res.Epochs {
		fmt.Printf("%5d %6d %9d %6.1f%% %9d %9d %10.1f %10d %8d %8d %7.2f %11.2f\n",
			e.Epoch, e.TargetShard, e.Injected, e.StaleFrac*100, e.Publishes, e.Coalesced,
			e.MeanPublishLatency, e.MaxPublishLatency, e.RebuildTicks, e.StaleTicks,
			e.RatioLoss, e.ProbeRatio)
	}
	fmt.Printf("max stale fraction %.2f, max publish latency %d ticks, final ratio %.2f×, %d poison keys, %d retrains\n",
		res.MaxStaleFrac(), res.VictimChurn.MaxLatencyTicks, res.FinalRatio(),
		res.Poison.Len(), res.Retrains)
	if *out != "" {
		if err := writeKeys(*out, res.Poison); err != nil {
			return fmt.Errorf("churn: %w", err)
		}
		fmt.Printf("wrote %d poison keys to %s\n", res.Poison.Len(), *out)
	}
	return nil
}

func cmdCascade(args []string) error {
	fs := flag.NewFlagSet("cascade", flag.ExitOnError)
	in := fs.String("in", "", "input key file (required)")
	epochs := fs.Int("epochs", 6, "number of serving epochs")
	percent := fs.Float64("percent", 2, "per-EPOCH poisoning percentage of the input keys")
	leaf := fs.Int("leaf", 0, "bulk-load leaf size of the gapped-array index (0 = default)")
	workloadStr := fs.String("workload", "zipf:1.1:85", "honest mix: uniform[:R] | zipf[:T[:R]] | hotspot[:H[:R]]")
	ops := fs.Int("ops", 0, "honest operations per epoch (default 10% of the input keys)")
	seed := fs.Uint64("seed", 42, "rng seed for the operation stream")
	workers := fs.Int("workers", 0, "worker pool size: 0 = one per core, 1 = sequential; results are identical for any value")
	out := fs.String("o", "", "optional output file for the injected poison keys")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("cascade: -in is required")
	}
	ks, err := readKeys(*in)
	if err != nil {
		return fmt.Errorf("cascade: %w", err)
	}
	mix, err := cdfpoison.ParseWorkload(*workloadStr)
	if err != nil {
		return fmt.Errorf("cascade: %w", err)
	}
	opsPerEpoch := *ops
	if opsPerEpoch == 0 {
		opsPerEpoch = ks.Len() / 10
	}
	res, err := cdfpoison.CascadeAttack(ks, cdfpoison.CascadeOptions{
		Epochs:      *epochs,
		OpsPerEpoch: opsPerEpoch,
		EpochBudget: int(float64(ks.Len()) * *percent / 100),
		LeafTarget:  *leaf,
		Workload:    mix,
		Seed:        *seed,
	}, cdfpoison.WithParallelism(*workers))
	if err != nil {
		return fmt.Errorf("cascade: %w", err)
	}
	fmt.Printf("cascade attack: leaf=%d, workload=%s, %d ops/epoch over %d epochs\n",
		*leaf, mix, opsPerEpoch, *epochs)
	fmt.Printf("%5s %6s %9s %9s %11s %7s %9s %6s %11s %12s %9s %12s %11s\n",
		"epoch", "node", "density", "injected", "shift_wr", "splits", "cascades",
		"nodes", "struct_cost", "clean_cost", "ratio", "damage", "probe_ratio")
	for _, e := range res.Epochs {
		fmt.Printf("%5d %6d %9.2f %9d %11d %7d %9d %6d %11d %12d %9.2f %12.0f %11.2f\n",
			e.Epoch, e.TargetNode, e.TargetDensity, e.Injected, e.ShiftWrites,
			e.Splits, e.Cascades, e.Nodes, e.StructCost, e.CleanStructCost,
			e.StructRatio, e.DamageScore, e.ProbeRatio)
	}
	fmt.Printf("final struct ratio %.2f× (victim cost %d vs clean %d), %d splits (+%d cascades) vs clean %d (+%d), %d poison keys\n",
		res.FinalStructRatio(), res.VictimStruct.Cost(), res.CleanStruct.Cost(),
		res.VictimStruct.Splits, res.VictimStruct.Cascades,
		res.CleanStruct.Splits, res.CleanStruct.Cascades, res.Poison.Len())
	if *out != "" {
		if err := writeKeys(*out, res.Poison); err != nil {
			return fmt.Errorf("cascade: %w", err)
		}
		fmt.Printf("wrote %d poison keys to %s\n", res.Poison.Len(), *out)
	}
	return nil
}

func cmdThroughput(args []string) error {
	fs := flag.NewFlagSet("throughput", flag.ExitOnError)
	in := fs.String("in", "", "input key file (required)")
	epochs := fs.Int("epochs", 5, "number of serving epochs")
	percent := fs.Float64("percent", 2, "per-EPOCH poisoning percentage of the input keys")
	shards := fs.Int("shards", 4, "shard count (1 = unsharded)")
	policyStr := fs.String("policy", "buffer:64", "per-shard retrain policy: manual | every:K | buffer:K")
	costStr := fs.String("cost", "fixed:40", "rebuild cost model: zero | fixed:F | linear:F:P[:U]")
	workloadStr := fs.String("workload", "zipf:1.1:90", "honest mix: uniform[:R] | zipf[:T[:R]] | hotspot[:H[:R]]")
	ops := fs.Int("ops", 0, "honest operations per epoch (default 10% of the input keys)")
	seed := fs.Uint64("seed", 42, "rng seed for the operation stream")
	readers := fs.Int("readers", 0, "reader goroutines: 0 = one per core; percentiles are identical for any value")
	batch := fs.Int("batch", 0, "reads per dispatch batch (0 = default); does not affect any metric")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("throughput: -in is required")
	}
	ks, err := readKeys(*in)
	if err != nil {
		return fmt.Errorf("throughput: %w", err)
	}
	policy, err := cdfpoison.ParseRetrainPolicy(*policyStr)
	if err != nil {
		return fmt.Errorf("throughput: %w", err)
	}
	cost, err := cdfpoison.ParseRebuildCost(*costStr)
	if err != nil {
		return fmt.Errorf("throughput: %w", err)
	}
	mix, err := cdfpoison.ParseWorkload(*workloadStr)
	if err != nil {
		return fmt.Errorf("throughput: %w", err)
	}
	opsPerEpoch := *ops
	if opsPerEpoch == 0 {
		opsPerEpoch = ks.Len() / 10
	}
	domain := ks.Max() + ks.Max()/10 + 1
	base := cdfpoison.ServingScenarioOptions{
		Epochs:      *epochs,
		OpsPerEpoch: opsPerEpoch,
		Workload:    mix,
		Domain:      domain,
		Seed:        *seed,
		Cost:        cost,
		Oracle:      cdfpoison.GreedyPoisonOracle(),
	}
	plane := cdfpoison.ServingPlaneOptions{Readers: *readers, BatchSize: *batch}
	run := func(budget int) ([]cdfpoison.ServingEpochMetrics, float64, error) {
		b, err := cdfpoison.NewShardedIndex(ks, *shards, policy)
		if err != nil {
			return nil, 0, err
		}
		o := base
		o.EpochBudget = budget
		start := time.Now()
		m, err := cdfpoison.ServeScenarioConcurrent(context.Background(), b, o, plane)
		if err != nil {
			return nil, 0, err
		}
		elapsed := time.Since(start)
		total := 0
		for _, e := range m {
			total += e.Reads + e.Writes + e.Injected
		}
		return m, float64(total) / elapsed.Seconds(), nil
	}
	clean, cleanOps, err := run(0)
	if err != nil {
		return fmt.Errorf("throughput: clean run: %w", err)
	}
	budget := int(float64(ks.Len()) * *percent / 100)
	poisoned, poisonedOps, err := run(budget)
	if err != nil {
		return fmt.Errorf("throughput: poisoned run: %w", err)
	}
	fmt.Printf("throughput scenario: %d shards, policy=%s, cost=%s, workload=%s, %d ops/epoch over %d epochs, budget %d/epoch\n",
		*shards, policy, cost, mix, opsPerEpoch, *epochs, budget)
	fmt.Printf("%5s %9s %9s %10s %11s %9s %10s %11s %8s %7s %7s\n",
		"epoch", "clean_p50", "clean_p99", "clean_p999",
		"poison_p50", "poison_p99", "poison_p999", "stale_frac", "injected", "ratio", "p999×")
	for i, p := range poisoned {
		c := clean[i]
		fmt.Printf("%5d %9d %9d %10d %11d %9d %10d %11.3f %8d %7.2f %7.2f\n",
			p.Epoch, c.P50, c.P99, c.P999, p.P50, p.P99, p.P999,
			p.StaleFrac, p.Injected, safeRatio(p.ContentLoss, c.ContentLoss),
			safeRatio(float64(p.P999), float64(c.P999)))
	}
	fmt.Printf("wall-clock (machine-dependent): clean %.0f ops/s, poisoned %.0f ops/s, %d readers\n",
		cleanOps, poisonedOps, plane.WithDefaults().Readers)
	return nil
}

func safeRatio(poisoned, clean float64) float64 {
	if clean == 0 {
		if poisoned == 0 {
			return 1
		}
		return poisoned
	}
	return poisoned / clean
}

func cmdEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	cleanPath := fs.String("clean", "", "clean key file (required)")
	poisonPath := fs.String("poison", "", "poison key file (required)")
	modelSize := fs.Int("modelsize", 0, "evaluate as RMI with this model size (0 = single regression)")
	fs.Parse(args)
	if *cleanPath == "" || *poisonPath == "" {
		return fmt.Errorf("eval: -clean and -poison are required")
	}
	clean, err := readKeys(*cleanPath)
	if err != nil {
		return fmt.Errorf("eval: %w", err)
	}
	poison, err := readKeys(*poisonPath)
	if err != nil {
		return fmt.Errorf("eval: %w", err)
	}
	poisoned := clean.Union(poison)
	if poisoned.Len() != clean.Len()+poison.Len() {
		return fmt.Errorf("eval: poison file overlaps the clean keys")
	}

	if *modelSize == 0 {
		cm, err := cdfpoison.FitCDF(clean)
		if err != nil {
			return fmt.Errorf("eval: %w", err)
		}
		pm, err := cdfpoison.FitCDF(poisoned)
		if err != nil {
			return fmt.Errorf("eval: %w", err)
		}
		fmt.Printf("clean:    %v\n", cm)
		fmt.Printf("poisoned: %v\n", pm)
		if cm.Loss > 0 {
			fmt.Printf("ratio loss: %.2f×\n", pm.Loss/cm.Loss)
		}
		return nil
	}
	fanout := clean.Len() / *modelSize
	if fanout < 1 {
		fanout = 1
	}
	cleanIdx, err := cdfpoison.BuildRMI(clean, cdfpoison.RMIConfig{Fanout: fanout})
	if err != nil {
		return fmt.Errorf("eval: %w", err)
	}
	poisIdx, err := cdfpoison.BuildRMI(poisoned, cdfpoison.RMIConfig{Fanout: fanout})
	if err != nil {
		return fmt.Errorf("eval: %w", err)
	}
	cs, ps := cleanIdx.Stats(), poisIdx.Stats()
	cleanProbes, _ := cleanIdx.AvgProbes(clean.Keys())
	poisProbes, _ := poisIdx.AvgProbes(clean.Keys())
	fmt.Printf("fanout %d models\n", fanout)
	fmt.Printf("second-stage MSE: %.6g -> %.6g (ratio %.2f×)\n",
		cs.SecondStageMSE, ps.SecondStageMSE, ps.SecondStageMSE/cs.SecondStageMSE)
	fmt.Printf("avg search window: %.1f -> %.1f\n", cs.AvgWindow, ps.AvgWindow)
	fmt.Printf("avg probes per lookup (legit keys): %.2f -> %.2f\n", cleanProbes, poisProbes)
	return nil
}

func cmdDefend(args []string) error {
	fs := flag.NewFlagSet("defend", flag.ExitOnError)
	in := fs.String("in", "", "poisoned key file (required)")
	cleanCount := fs.Int("clean-count", 0, "presumed number of clean keys (required)")
	restarts := fs.Int("restarts", 2, "TRIM random restarts")
	seed := fs.Uint64("seed", 42, "rng seed")
	out := fs.String("o", "", "output file for kept keys (required)")
	outRemoved := fs.String("o-removed", "", "optional output file for flagged keys")
	fs.Parse(args)
	if *in == "" || *out == "" || *cleanCount == 0 {
		return fmt.Errorf("defend: -in, -clean-count and -o are required")
	}
	poisoned, err := readKeys(*in)
	if err != nil {
		return fmt.Errorf("defend: %w", err)
	}
	res, err := cdfpoison.TrimDefense(poisoned, *cleanCount, cdfpoison.TrimOptions{
		Restarts: *restarts, Seed: *seed,
	})
	if err != nil {
		return fmt.Errorf("defend: %w", err)
	}
	fmt.Printf("TRIM kept %d keys (removed %d) in %d iterations (converged=%v)\n",
		res.Kept.Len(), res.Removed.Len(), res.Iterations, res.Converged)
	fmt.Printf("kept-set model: %v\n", res.Model)
	if err := writeKeys(*out, res.Kept); err != nil {
		return fmt.Errorf("defend: %w", err)
	}
	if *outRemoved != "" {
		if err := writeKeys(*outRemoved, res.Removed); err != nil {
			return fmt.Errorf("defend: %w", err)
		}
	}
	return nil
}

// cmdDefense mounts one attack scenario twice — undefended, then with the
// requested defense plane armed — and prints the damage reduction the
// defense bought against the honest-traffic overhead it charged. The same
// numbers, swept across scenarios and tiers, are `lisbench -fig defense`.
func cmdDefense(args []string) error {
	fs := flag.NewFlagSet("defense", flag.ExitOnError)
	in := fs.String("in", "", "input key file (required)")
	scenario := fs.String("scenario", "static", "attack scenario to defend: static | online | serve | churn | cascade")
	chainStr := fs.String("chain", "density:8:3|dupmass:3:3", "detector chain spec: density:W:R | dupmass:W:C | gapout:R | lossspike:R, '|'-separated; none disables")
	fitterStr := fs.String("fitter", "", "robust CDF fitter replacing OLS in retrains: ols | theilsen | trimmed:P (empty = keep OLS)")
	rateStr := fs.String("rate", "", "per-source write rate limit BUDGET:WINDOW (empty = no limiter)")
	sources := fs.Int("sources", 0, "spread honest writes round-robin over this many sources (the attacker gets its own)")
	balanced := fs.Bool("balanced", false, "use the density-balancing split policy (cascade scenario)")
	epochs := fs.Int("epochs", 4, "scenario epochs (online|serve|churn|cascade)")
	percent := fs.Float64("percent", 5, "attacker budget as %% of the input keys (per epoch; one-shot for static)")
	ops := fs.Int("ops", 0, "honest operations per epoch — honest writes total for static (default 10%% of the input keys)")
	shards := fs.Int("shards", 4, "shard count (serve|churn)")
	policyStr := fs.String("policy", "", "retrain policy: manual | every:K | buffer:K (default manual; buffer:K/8 for churn)")
	costStr := fs.String("cost", "fixed:30", "rebuild cost model for churn: zero | fixed:F | linear:F:P[:U]")
	workloadStr := fs.String("workload", "zipf:1.1:85", "honest mix: uniform[:R] | zipf[:T[:R]] | hotspot[:H[:R]]")
	seed := fs.Uint64("seed", 42, "rng seed for the operation stream")
	workers := fs.Int("workers", 0, "worker pool size: 0 = one per core, 1 = sequential; results are identical for any value")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("defense: -in is required")
	}
	ks, err := readKeys(*in)
	if err != nil {
		return fmt.Errorf("defense: %w", err)
	}

	spec := cdfpoison.ScenarioDefense{Sources: *sources, BalancedSplit: *balanced}
	if *chainStr != "" {
		if spec.Policies, err = cdfpoison.ParseGuardPolicyChain(*chainStr); err != nil {
			return fmt.Errorf("defense: %w", err)
		}
	}
	if *fitterStr != "" {
		if spec.Fitter, err = cdfpoison.ParseCDFFitter(*fitterStr); err != nil {
			return fmt.Errorf("defense: %w", err)
		}
	}
	if *rateStr != "" {
		if n, err := fmt.Sscanf(*rateStr, "%d:%d", &spec.RateBudget, &spec.RateWindow); n != 2 || err != nil {
			return fmt.Errorf("defense: -rate wants BUDGET:WINDOW, got %q", *rateStr)
		}
	}

	mix, err := cdfpoison.ParseWorkload(*workloadStr)
	if err != nil {
		return fmt.Errorf("defense: %w", err)
	}
	cost, err := cdfpoison.ParseRebuildCost(*costStr)
	if err != nil {
		return fmt.Errorf("defense: %w", err)
	}
	policySpec := *policyStr
	if policySpec == "" {
		policySpec = "manual"
		if *scenario == "churn" {
			policySpec = fmt.Sprintf("buffer:%d", max(ks.Len()/8/max(*shards, 1), 2))
		}
	}
	policy, err := cdfpoison.ParseRetrainPolicy(policySpec)
	if err != nil {
		return fmt.Errorf("defense: %w", err)
	}
	budget := int(float64(ks.Len()) * *percent / 100)
	opsPerEpoch := *ops
	if opsPerEpoch == 0 {
		opsPerEpoch = ks.Len() / 10
	}

	ratio := func(victim, clean float64) float64 {
		switch {
		case clean != 0:
			return victim / clean
		case victim == 0:
			return 1
		default:
			return math.Inf(1)
		}
	}
	run := func(d cdfpoison.ScenarioDefense) (float64, cdfpoison.ScenarioDefenseReport, error) {
		w := cdfpoison.WithParallelism(*workers)
		switch *scenario {
		case "static":
			res, err := cdfpoison.StaticScenarioAttack(ks, cdfpoison.StaticAttackOptions{
				Budget: budget, HonestWrites: opsPerEpoch,
				Domain: ks.Max() + 1, Seed: *seed, Defense: d,
			}, w)
			if err != nil {
				return 0, cdfpoison.ScenarioDefenseReport{}, err
			}
			return res.RatioLoss, res.Defense, nil
		case "online":
			res, err := cdfpoison.OnlinePoisonAttack(ks, cdfpoison.OnlineOptions{
				Epochs: *epochs, EpochBudget: budget, Policy: policy, Defense: d,
			}, w)
			if err != nil {
				return 0, cdfpoison.ScenarioDefenseReport{}, err
			}
			return res.FinalRatio(), res.Defense, nil
		case "serve":
			res, err := cdfpoison.ServeAttack(ks, cdfpoison.ServeOptions{
				Epochs: *epochs, OpsPerEpoch: opsPerEpoch, EpochBudget: budget,
				Shards: *shards, Policy: policy, Workload: mix, Seed: *seed, Defense: d,
			}, w)
			if err != nil {
				return 0, cdfpoison.ScenarioDefenseReport{}, err
			}
			return res.FinalRatio(), res.Defense, nil
		case "churn":
			res, err := cdfpoison.ChurnAttack(ks, cdfpoison.ChurnOptions{
				Epochs: *epochs, OpsPerEpoch: opsPerEpoch, EpochBudget: budget,
				Shards: *shards, Policy: policy, Workload: mix, Seed: *seed,
				Cost: cost, Defense: d,
			}, w)
			if err != nil {
				return 0, cdfpoison.ScenarioDefenseReport{}, err
			}
			return ratio(float64(res.VictimChurn.RebuildTicks), float64(res.CleanChurn.RebuildTicks)), res.Defense, nil
		case "cascade":
			res, err := cdfpoison.CascadeAttack(ks, cdfpoison.CascadeOptions{
				Epochs: *epochs, OpsPerEpoch: opsPerEpoch, EpochBudget: budget,
				Workload: mix, Seed: *seed, Defense: d,
			}, w)
			if err != nil {
				return 0, cdfpoison.ScenarioDefenseReport{}, err
			}
			return res.FinalStructRatio(), res.Defense, nil
		default:
			return 0, cdfpoison.ScenarioDefenseReport{}, fmt.Errorf("unknown scenario %q (want static | online | serve | churn | cascade)", *scenario)
		}
	}

	bare, _, err := run(cdfpoison.ScenarioDefense{})
	if err != nil {
		return fmt.Errorf("defense: undefended %s: %w", *scenario, err)
	}
	defended, rep, err := run(spec)
	if err != nil {
		return fmt.Errorf("defense: defended %s: %w", *scenario, err)
	}

	fmt.Printf("%s scenario, attacker budget %d keys (%.3g%%)\n", *scenario, budget, *percent)
	fmt.Printf("  undefended damage ratio  %8.3f\n", bare)
	fmt.Printf("  defended damage ratio    %8.3f\n", defended)
	fmt.Printf("  damage reduction         %8.3fx (on the excess over 1)\n",
		ratio(math.Max(bare-1, 0), math.Max(defended-1, 0)))
	fmt.Printf("  poison blocked           %8.1f%% (%d flagged, %d throttled of %d attempts)\n",
		rep.PoisonBlockedFrac()*100, rep.FlaggedPoison, rep.ThrottledPoison, rep.PoisonAttempts)
	fmt.Printf("  honest overhead          %8.1f%% (clean twin: %d flagged, %d throttled of %d attempts)\n",
		rep.HonestBlockedFrac()*100, rep.CleanFlagged, rep.CleanThrottled, rep.CleanAttempts)
	return nil
}
