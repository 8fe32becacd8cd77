// Command lispoison generates key datasets, mounts the paper's poisoning
// attacks against them, evaluates the damage, and runs the TRIM defense —
// all on plain text key files (one decimal key per line).
//
// Subcommands, in the order of the command table that dispatches them:
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
// The defense subcommand mounts one of static, online, serve, churn or
// cascade twice, undefended and then behind the requested defense plane.
//
// Every command is deterministic given -seed (throughput's ops/sec figures
// are wall-clock; every other column is deterministic). Exit status: 0 on
// success and for -h, 1 when a command fails, 2 for a bad command line.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"cdfpoison"
)

// subcommand is one row of the command table: main dispatches on name,
// usage lists the summaries, and bind registers the subcommand's flags and
// returns the action to run once they are parsed.
type subcommand struct {
	name, summary string
	bind          func(fs *flag.FlagSet) func() error
}

var subcommands = []subcommand{
	{"gen", "generate a key dataset (uniform|normal|lognormal|salaries|osm)", bindGen},
	{"attack", "poison a key file (linear regression on CDF, or two-stage RMI)", bindAttack},
	{"online", "drip-feed poison into an updatable index across retrain cycles", scenarios["online"].bind},
	{"serve", "poison a sharded serving index under an honest read/write load", scenarios["serve"].bind},
	{"churn", "maximize retrain churn and stale windows on the rebuild pipeline", scenarios["churn"].bind},
	{"cascade", "force splits and rebuild cascades on the gapped-array index", scenarios["cascade"].bind},
	{"throughput", "poison the concurrent serving plane; report tail-latency SLOs", scenarios["throughput"].bind},
	{"eval", "measure ratio loss of a poisoned file against the clean file", bindEval},
	{"defend", "run the TRIM defense on a poisoned file", bindDefend},
	{"defense", "arm the online defense plane against one scenario; report the trade-off", bindDefense},
}

// errUsage marks a command line that usage or the flag package has already
// explained on stderr.
var errUsage = errors.New("bad command line")

func main() {
	switch err := run(os.Args[1:]); {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintf(os.Stderr, "lispoison: %v\n", err)
		os.Exit(1)
	}
}

// run dispatches one command line (without the program name) through the
// command table. It is the one place a subcommand's errors get their
// "<name>: " prefix.
func run(args []string) error {
	if len(args) > 0 {
		for _, c := range subcommands {
			if c.name != args[0] {
				continue
			}
			fs, act := c.flagSet()
			if err := fs.Parse(args[1:]); err != nil {
				return fmt.Errorf("%w: %w", errUsage, err)
			}
			if err := act(); err != nil {
				return fmt.Errorf("%s: %w", c.name, err)
			}
			return nil
		}
		if h := args[0]; h != "-h" && h != "--help" && h != "help" {
			fmt.Fprintf(os.Stderr, "lispoison: unknown subcommand %q\n\n", h)
		}
	}
	usage()
	return errUsage
}

// flagSet binds c's flags to a fresh FlagSet and returns it with the
// action to run once it is parsed.
func (c subcommand) flagSet() (*flag.FlagSet, func() error) {
	fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
	return fs, c.bind(fs)
}

func usage() {
	names := make([]string, len(subcommands))
	var list strings.Builder
	for i, c := range subcommands {
		names[i] = c.name
		fmt.Fprintf(&list, "  %-10s %s\n", c.name, c.summary)
	}
	fmt.Fprintf(os.Stderr, "usage: lispoison <%s> [flags]\n\n%s\nRun 'lispoison <subcommand> -h' for flags.\n",
		strings.Join(names, "|"), list.String())
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

// budgetCeiling is where percentOf saturates a budget too large for an
// int. It is far above the free slots of any key set, so a saturated
// budget poisons exactly like the unsaturated one would: the attack runs
// until it stops or the slots run out.
const budgetCeiling = 1 << 62

// percentOf is pct percent of n keys, rounded down: the key budget every
// -percent flag names, saturated at budgetCeiling. A negative or NaN
// percentage is an error naming the flag, even one that rounds to a zero
// budget.
func percentOf(n int, pct float64) (int, error) {
	if math.IsNaN(pct) {
		return 0, fmt.Errorf("-percent must be a number, got %v", pct)
	}
	if pct < 0 {
		return 0, fmt.Errorf("-percent must be >= 0, got %v", pct)
	}
	if n == 0 {
		return 0, nil // any percentage of no keys, even an infinite one
	}
	return int(min(float64(n)*pct/100, budgetCeiling)), nil
}

func bindGen(fs *flag.FlagSet) func() error {
	dist := fs.String("dist", "uniform", "uniform|normal|lognormal|salaries|osm")
	n := fs.Int("n", 10000, "number of keys (ignored for salaries/osm full sets)")
	domain := fs.Int64("domain", 1_000_000, "key universe size m (synthetic dists)")
	mu := fs.Float64("mu", 0, "log-normal mu")
	sigma := fs.Float64("sigma", 2, "log-normal sigma")
	seed := fs.Uint64("seed", 42, "rng seed")
	out := fs.String("o", "", "output file (required)")
	return func() error {
		if *out == "" {
			return errors.New("-o is required")
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
			return fmt.Errorf("unknown distribution %q", *dist)
		}
		if err == nil && ks.Len() == 0 {
			err = fmt.Errorf("-n %d generates no keys", *n)
		}
		if err != nil {
			return err
		}
		if err := writeKeys(*out, ks); err != nil {
			return err
		}
		fmt.Printf("wrote %d keys (min %d, max %d) to %s\n", ks.Len(), ks.Min(), ks.Max(), *out)
		return nil
	}
}

func bindAttack(fs *flag.FlagSet) func() error {
	in := fs.String("in", "", "input key file (required)")
	percent := fs.Float64("percent", 10, "poisoning percentage φ·100")
	modelSize := fs.Int("modelsize", 0, "RMI second-stage model size; 0 = plain regression attack")
	models := fs.Int("models", 0, "RMI fanout N (alternative to -modelsize)")
	alpha := fs.Float64("alpha", 3, "per-model poisoning threshold multiplier (RMI)")
	removal := fs.Bool("removal", false, "mount the deletion adversary instead of injection")
	workers := fs.Int("workers", 0, "worker pool size for the attack: 0 = one per core, 1 = sequential; results are identical for any value (injection attacks only)")
	out := fs.String("o", "", "output file for poison (or removed) keys (required)")
	outAll := fs.String("o-poisoned", "", "optional output file for the full poisoned (or surviving) key set")
	return func() error {
		if *in == "" || *out == "" {
			return errors.New("-in and -o are required")
		}
		if *modelSize < 0 {
			return fmt.Errorf("-modelsize must be >= 0, got %d", *modelSize)
		}
		ks, err := readKeys(*in)
		if err != nil {
			return err
		}
		budget, err := percentOf(ks.Len(), *percent)
		if err != nil {
			return err
		}
		var (
			poison, poisoned cdfpoison.KeySet
			what, whole      = "poison", "poisoned"
		)
		switch {
		case *removal:
			g, err := cdfpoison.GreedyRemoval(ks, budget)
			if err != nil {
				return err
			}
			if poison, err = cdfpoison.NewKeySetStrict(g.Removed); err != nil {
				return err
			}
			poisoned, what, whole = g.Remaining, "removed", "surviving"
			fmt.Printf("removal attack: %d keys deleted, MSE %.6g -> %.6g (ratio %.2f×)\n",
				len(g.Removed), g.CleanLoss, g.FinalLoss(), g.RatioLoss())
		case *modelSize == 0 && *models == 0:
			g, err := cdfpoison.GreedyMultiPoint(ks, budget, cdfpoison.WithParallelism(*workers))
			if err != nil {
				return err
			}
			if poison, err = cdfpoison.NewKeySetStrict(g.Poison); err != nil {
				return err
			}
			poisoned = g.Poisoned
			fmt.Printf("regression attack: %d poison keys, MSE %.6g -> %.6g (ratio %.2f×)\n",
				len(g.Poison), g.CleanLoss, g.FinalLoss(), g.RatioLoss())
			if g.BlocksTotal > 0 {
				fmt.Printf("pruned scan: %d candidates over %d/%d gap blocks (%.1f%% visited)\n",
					g.Candidates, g.BlocksVisited, g.BlocksTotal,
					100*float64(g.BlocksVisited)/float64(g.BlocksTotal))
			}
		default:
			N := *models
			if N == 0 {
				N = max(ks.Len() / *modelSize, 1)
			}
			res, err := cdfpoison.RMIAttack(ks, cdfpoison.RMIAttackOptions{
				NumModels: N, Percent: *percent, Alpha: *alpha,
			}, cdfpoison.WithParallelism(*workers))
			if err != nil {
				return err
			}
			poison, poisoned = res.Poison, ks.Union(res.Poison)
			fmt.Printf("RMI attack: N=%d models, %d/%d poison keys injected, L_RMI %.6g -> %.6g (ratio %.2f×), %d exchanges\n",
				N, res.Injected, res.Budget, res.CleanRMILoss, res.PoisonedRMILoss, res.RMIRatio(), res.Moves)
		}
		if err := writeKeys(*out, poison); err != nil {
			return err
		}
		fmt.Printf("wrote %d %s keys to %s\n", poison.Len(), what, *out)
		if *outAll != "" {
			if err := writeKeys(*outAll, poisoned); err != nil {
				return err
			}
			fmt.Printf("wrote %d %s keys to %s\n", poisoned.Len(), whole, *outAll)
		}
		return nil
	}
}

func bindEval(fs *flag.FlagSet) func() error {
	cleanPath := fs.String("clean", "", "clean key file (required)")
	poisonPath := fs.String("poison", "", "poison key file (required)")
	modelSize := fs.Int("modelsize", 0, "evaluate as RMI with this model size (0 = single regression)")
	return func() error {
		if *cleanPath == "" || *poisonPath == "" {
			return errors.New("-clean and -poison are required")
		}
		if *modelSize < 0 {
			return fmt.Errorf("-modelsize must be >= 0, got %d", *modelSize)
		}
		clean, err := readKeys(*cleanPath)
		if err != nil {
			return err
		}
		poison, err := readKeys(*poisonPath)
		if err != nil {
			return err
		}
		poisoned := clean.Union(poison)
		if poisoned.Len() != clean.Len()+poison.Len() {
			return errors.New("poison file overlaps the clean keys")
		}

		if *modelSize == 0 {
			cm, err := cdfpoison.FitCDF(clean)
			if err != nil {
				return err
			}
			pm, err := cdfpoison.FitCDF(poisoned)
			if err != nil {
				return err
			}
			fmt.Printf("clean:    %v\n", cm)
			fmt.Printf("poisoned: %v\n", pm)
			if cm.Loss > 0 {
				fmt.Printf("ratio loss: %.2f×\n", pm.Loss/cm.Loss)
			}
			return nil
		}
		fanout := max(clean.Len() / *modelSize, 1)
		cleanIdx, err := cdfpoison.BuildRMI(clean, cdfpoison.RMIConfig{Fanout: fanout})
		if err != nil {
			return err
		}
		poisIdx, err := cdfpoison.BuildRMI(poisoned, cdfpoison.RMIConfig{Fanout: fanout})
		if err != nil {
			return err
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
}

func bindDefend(fs *flag.FlagSet) func() error {
	in := fs.String("in", "", "poisoned key file (required)")
	cleanCount := fs.Int("clean-count", 0, "presumed number of clean keys (required)")
	restarts := fs.Int("restarts", 2, "TRIM random restarts")
	seed := fs.Uint64("seed", 42, "rng seed")
	out := fs.String("o", "", "output file for kept keys (required)")
	outRemoved := fs.String("o-removed", "", "optional output file for flagged keys")
	return func() error {
		if *in == "" || *out == "" || *cleanCount == 0 {
			return errors.New("-in, -clean-count and -o are required")
		}
		poisoned, err := readKeys(*in)
		if err != nil {
			return err
		}
		res, err := cdfpoison.TrimDefense(poisoned, *cleanCount, cdfpoison.TrimOptions{
			Restarts: *restarts, Seed: *seed,
		})
		if err != nil {
			return err
		}
		fmt.Printf("TRIM kept %d keys (removed %d) in %d iterations (converged=%v)\n",
			res.Kept.Len(), res.Removed.Len(), res.Iterations, res.Converged)
		fmt.Printf("kept-set model: %v\n", res.Model)
		if err := writeKeys(*out, res.Kept); err != nil {
			return err
		}
		if *outRemoved != "" {
			return writeKeys(*outRemoved, res.Removed)
		}
		return nil
	}
}

// bindDefense is `lispoison defense`: it mounts one scenario-table row
// twice — undefended, then with the requested defense plane armed — and
// prints the damage reduction the defense bought against the honest-traffic
// overhead it charged. The same numbers, swept across scenarios and tiers,
// are `lisbench -fig defense`.
func bindDefense(fs *flag.FlagSet) func() error {
	a := defenseFlags.bind(fs)
	name := fs.String("scenario", "static", "attack scenario to defend: static | online | serve | churn | cascade")
	chain := fs.String("chain", "density:8:3|dupmass:3:3", "detector chain spec: density:W:R | dupmass:W:C | gapout:R | lossspike:R, '|'-separated; none disables")
	fitter := fs.String("fitter", "", "robust CDF fitter replacing OLS in retrains: ols | theilsen | trimmed:P (empty = keep OLS)")
	rate := fs.String("rate", "", "per-source write rate limit BUDGET:WINDOW (empty = no limiter)")
	sources := fs.Int("sources", 0, "spread honest writes round-robin over this many sources (the attacker gets its own)")
	balanced := fs.Bool("balanced", false, "use the density-balancing split policy (cascade scenario)")
	return func() error {
		sc := scenarios[*name]
		if sc == nil || sc.armedPolicy == nil {
			return fmt.Errorf("unknown scenario %q (want static | online | serve | churn | cascade)", *name)
		}
		in, err := defenseFlags.load(a, func(n int) string { return sc.armedPolicy(n, a.shards) })
		if err != nil {
			return err
		}
		if !sc.armedCost {
			in.rebuild = cdfpoison.RebuildCostModel{}
		}
		spec := cdfpoison.ScenarioDefense{Sources: *sources, BalancedSplit: *balanced}
		if *chain != "" {
			if spec.Policies, err = cdfpoison.ParseGuardPolicyChain(*chain); err != nil {
				return err
			}
		}
		if *fitter != "" {
			if spec.Fitter, err = cdfpoison.ParseCDFFitter(*fitter); err != nil {
				return err
			}
		}
		if *rate != "" {
			if spec.RateBudget, spec.RateWindow, err = parseRate(*rate); err != nil {
				return err
			}
		}

		bare, err := sc.run(in, cdfpoison.ScenarioDefense{})
		if err != nil {
			return fmt.Errorf("undefended %s: %w", *name, err)
		}
		armed, err := sc.run(in, spec)
		if err != nil {
			return fmt.Errorf("defended %s: %w", *name, err)
		}
		rep := armed.defense
		fmt.Printf("%s scenario, attacker budget %d keys (%.3g%%)\n", *name, in.budget, in.percent)
		fmt.Printf("  undefended damage ratio  %8.3f\n", bare.damage)
		fmt.Printf("  defended damage ratio    %8.3f\n", armed.damage)
		fmt.Printf("  damage reduction         %8.3fx (on the excess over 1)\n",
			cdfpoison.SafeRatio(math.Max(bare.damage-1, 0), math.Max(armed.damage-1, 0)))
		fmt.Printf("  poison blocked           %8.1f%% (%d flagged, %d throttled of %d attempts)\n",
			rep.PoisonBlockedFrac()*100, rep.FlaggedPoison, rep.ThrottledPoison, rep.PoisonAttempts)
		fmt.Printf("  honest overhead          %8.1f%% (clean twin: %d flagged, %d throttled of %d attempts)\n",
			rep.HonestBlockedFrac()*100, rep.CleanFlagged, rep.CleanThrottled, rep.CleanAttempts)
		return nil
	}
}

// parseRate parses -rate's BUDGET:WINDOW: exactly two integers, each at
// least 1, since a limiter with either below 1 would not be armed at all.
func parseRate(s string) (budget, window int, err error) {
	b, w, ok := strings.Cut(s, ":")
	if ok {
		budget, err = strconv.Atoi(b)
		if err == nil {
			window, err = strconv.Atoi(w)
		}
		if err == nil && budget >= 1 && window >= 1 {
			return budget, window, nil
		}
	}
	return 0, 0, fmt.Errorf("-rate wants BUDGET:WINDOW, two integers >= 1, got %q", s)
}

// scenario is one row of the scenario table: the flag surface of its
// subcommand (none for static, which only the defense subcommand runs), how
// the defense subcommand arms it, and the runner that mounts it on a loaded
// input under a defense. armedPolicy is the retrain policy an empty
// `defense -policy` means for the row, nil when the row cannot be armed;
// `defense -cost` reaches only the rows with armedCost, the others run on
// the zero cost model.
type scenario struct {
	flags       scenarioFlags
	armedPolicy func(n, shards int) string
	armedCost   bool
	run         func(in *scenarioInput, d cdfpoison.ScenarioDefense) (scenarioOutcome, error)
}

// scenarioOutcome is what a runner returns: the per-epoch report its
// subcommand prints, the headline damage ratio the defense subcommand
// compares, the defense-plane accounting and the injected poison.
type scenarioOutcome struct {
	report  string
	damage  float64
	defense cdfpoison.ScenarioDefenseReport
	poison  cdfpoison.KeySet
}

func manualPolicy(n, shards int) string { return "manual" }

// churnPolicy is churn's armed default: retrain once a shard's buffer holds
// an eighth of the shard.
func churnPolicy(n, shards int) string { return fmt.Sprintf("buffer:%d", max(n/8/max(shards, 1), 2)) }

// scenarios is the scenario table, keyed by the name the subcommand table
// and `defense -scenario` use.
var scenarios = map[string]*scenario{
	"static": {armedPolicy: manualPolicy, run: runStatic},
	"online": {
		flags: scenarioFlags{
			names:    "in epochs percent policy arrivals oracle models alpha seed workers o",
			defaults: scenarioArgs{epochs: 8, percent: 2, policy: "manual", oracle: "regression", alpha: 3, seed: 42},
		},
		armedPolicy: manualPolicy, run: runOnline,
	},
	"serve": {
		flags: scenarioFlags{
			names:    "in epochs percent shards policy cost workload ops seed workers o",
			defaults: scenarioArgs{epochs: 6, percent: 2, shards: 4, policy: "manual", cost: "zero", workload: "zipf:1.1:90", seed: 42},
		},
		armedPolicy: manualPolicy, run: runServe,
	},
	"churn": {
		flags: scenarioFlags{
			names:    "in epochs percent shards policy cost workload ops seed workers o",
			defaults: scenarioArgs{epochs: 6, percent: 2, shards: 4, policy: "buffer:64", cost: "linear:10:25:100", workload: "zipf:1.1:90", seed: 42},
		},
		armedPolicy: churnPolicy, armedCost: true, run: runChurn,
	},
	"cascade": {
		flags: scenarioFlags{
			names:    "in epochs percent leaf workload ops seed o",
			defaults: scenarioArgs{epochs: 6, percent: 2, workload: "zipf:1.1:85", seed: 42},
		},
		armedPolicy: manualPolicy, run: runCascade,
	},
	"throughput": {
		flags: scenarioFlags{
			names:    "in epochs percent shards policy cost workload ops seed readers batch",
			defaults: scenarioArgs{epochs: 5, percent: 2, shards: 4, policy: "buffer:64", cost: "fixed:40", workload: "zipf:1.1:90", seed: 42},
		},
		run: runThroughput,
	},
}

// defenseFlags is the defense subcommand's share of the scenario flags. It
// runs online with the regression oracle and no honest arrivals.
var defenseFlags = scenarioFlags{
	names:    "in epochs percent shards policy cost workload ops seed workers",
	defaults: scenarioArgs{epochs: 4, percent: 5, shards: 4, cost: "fixed:30", workload: "zipf:1.1:85", seed: 42, oracle: "regression"},
	help: map[string]string{
		"epochs":  "scenario epochs (online|serve|churn|cascade)",
		"percent": "attacker budget as % of the input keys (per epoch; one-shot for static)",
		"shards":  "shard count (serve|churn)",
		"policy":  "retrain policy: manual | every:K | buffer:K (default manual; buffer:K/8 for churn)",
		"cost":    "rebuild cost model for churn: zero | fixed:F | linear:F:P[:U]",
		"ops":     "honest operations per epoch — honest writes total for static (default 10% of the input keys)",
	},
}

// bind registers the row's flags on fs. Its action loads the input, runs
// the scenario undefended, prints the report and writes the poison to -o.
func (sc *scenario) bind(fs *flag.FlagSet) func() error {
	a := sc.flags.bind(fs)
	return func() error {
		in, err := sc.flags.load(a, nil)
		if err != nil {
			return err
		}
		out, err := sc.run(in, cdfpoison.ScenarioDefense{})
		if err != nil {
			return err
		}
		fmt.Print(out.report)
		if a.out != "" {
			if err = writeKeys(a.out, out.poison); err == nil {
				fmt.Printf("wrote %d poison keys to %s\n", out.poison.Len(), a.out)
			}
		}
		return err
	}
}

// scenarioArgs holds the value of every scenario flag. A flag surface
// registers some of them; the others keep the surface's defaults.
type scenarioArgs struct {
	in, policy, cost, workload, oracle, out                              string
	epochs, shards, ops, workers, arrivals, models, leaf, readers, batch int
	percent, alpha                                                       float64
	seed                                                                 uint64
}

// scenarioFlag is where a scenario flag's value lives and its help text.
type scenarioFlag struct {
	value any // *string, *int, *float64 or *uint64
	help  string
}

// flags maps every scenario flag's name to its value in a and its help
// text; a surface may reword the help.
func (a *scenarioArgs) flags() map[string]scenarioFlag {
	return map[string]scenarioFlag{
		"in":       {&a.in, "input key file (required)"},
		"epochs":   {&a.epochs, "number of attack epochs (retrain cycles)"},
		"percent":  {&a.percent, "per-EPOCH poisoning percentage of the input keys"},
		"shards":   {&a.shards, "shard count (1 = unsharded)"},
		"policy":   {&a.policy, "retrain policy, per shard where sharded: manual | every:K | buffer:K"},
		"cost":     {&a.cost, "rebuild cost model: zero | fixed:F | linear:F:P[:U] (zero = synchronous)"},
		"workload": {&a.workload, "honest mix: uniform[:R] | zipf[:T[:R]] | hotspot[:H[:R]]"},
		"ops":      {&a.ops, "honest operations per epoch (default 10% of the input keys)"},
		"seed":     {&a.seed, "rng seed for the honest operation (or arrival) stream"},
		"workers":  {&a.workers, "worker pool size: 0 = one per core, 1 = sequential; results are identical for any value"},
		"o":        {&a.out, "optional output file for the injected poison keys"},
		"arrivals": {&a.arrivals, "honest inserts per epoch, drawn uniformly over the key range"},
		"oracle":   {&a.oracle, "per-epoch attack oracle: regression | rmi"},
		"models":   {&a.models, "RMI fanout N (rmi oracle)"},
		"alpha":    {&a.alpha, "per-model poisoning threshold multiplier (rmi oracle)"},
		"leaf":     {&a.leaf, "bulk-load leaf size of the gapped-array index (0 = default)"},
		"readers":  {&a.readers, "reader goroutines: 0 = one per core; percentiles are identical for any value"},
		"batch":    {&a.batch, "reads per dispatch batch (0 = default); does not affect any metric"},
	}
}

// scenarioFlags is one flag surface over scenarioArgs: the flags it
// registers, their defaults, and its rewordings of their help.
type scenarioFlags struct {
	names    string // space-separated
	defaults scenarioArgs
	help     map[string]string
}

func (f scenarioFlags) has(name string) bool {
	return strings.Contains(" "+f.names+" ", " "+name+" ")
}

// bind registers the surface's flags on fs, bound to a fresh copy of its
// defaults.
func (f scenarioFlags) bind(fs *flag.FlagSet) *scenarioArgs {
	a := f.defaults
	all := a.flags()
	for _, name := range strings.Fields(f.names) {
		help := f.help[name]
		if help == "" {
			help = all[name].help
		}
		switch p := all[name].value.(type) {
		case *string:
			fs.StringVar(p, name, *p, help)
		case *int:
			fs.IntVar(p, name, *p, help)
		case *float64:
			fs.Float64Var(p, name, *p, help)
		case *uint64:
			fs.Uint64Var(p, name, *p, help)
		}
	}
	return &a
}

// scenarioInput is a loaded flag surface: the arguments with -ops
// resolved, the key file, the parsed specs, and the bounds the runners
// derive from the keys' extremes.
type scenarioInput struct {
	scenarioArgs
	ks      cdfpoison.KeySet
	budget  int // -percent of the input keys
	retrain cdfpoison.RetrainPolicy
	rebuild cdfpoison.RebuildCostModel
	mix     cdfpoison.Workload
	// span is max-min+1, the range online's honest arrivals are drawn
	// from; domain is max+1, the static scenario's key universe; and
	// wideDomain is max+max/10+1, throughput's.
	span, domain, wideDomain keyBound
}

// keyBound is an int64 derived from the key file's extremes, or the error,
// naming -in, that the derivation overflows int64 (or has no keys to
// derive from). Only a runner that needs the value reports the error.
type keyBound struct {
	v   int64
	err error
}

// load reads -in and parses the -policy, -cost and -workload specs the
// surface registers. It resolves an unset -ops to 10% of the keys and
// -percent to a key budget. An empty -policy takes emptyPolicy(n), which
// only the defense subcommand supplies.
func (f scenarioFlags) load(a *scenarioArgs, emptyPolicy func(n int) string) (*scenarioInput, error) {
	if a.in == "" {
		return nil, errors.New("-in is required")
	}
	ks, err := readKeys(a.in)
	if err != nil {
		return nil, err
	}
	budget, err := percentOf(ks.Len(), a.percent)
	if err != nil {
		return nil, err
	}
	in := &scenarioInput{scenarioArgs: *a, ks: ks, budget: budget}
	if in.ops == 0 {
		in.ops = ks.Len() / 10
	}
	if in.policy == "" && emptyPolicy != nil {
		in.policy = emptyPolicy(ks.Len())
	}
	if f.has("policy") {
		if in.retrain, err = cdfpoison.ParseRetrainPolicy(in.policy); err != nil {
			return nil, err
		}
	}
	if f.has("cost") {
		if in.rebuild, err = cdfpoison.ParseRebuildCost(in.cost); err != nil {
			return nil, err
		}
	}
	if f.has("workload") {
		if in.mix, err = cdfpoison.ParseWorkload(in.workload); err != nil {
			return nil, err
		}
	}

	if ks.Len() == 0 {
		none := keyBound{err: fmt.Errorf("-in %s holds no keys", a.in)}
		in.span, in.domain, in.wideDomain = none, none, none
		return in, nil
	}
	// Keys are non-negative, so a bound overflows int64 exactly when its
	// two's-complement value wraps negative.
	bound := func(what string, v int64) keyBound {
		if v < 0 {
			return keyBound{err: fmt.Errorf("-in %s: %s overflows int64", a.in, what)}
		}
		return keyBound{v: v}
	}
	lo, hi := ks.Min(), ks.Max()
	in.span = bound("the key span max-min+1", hi-lo+1)
	in.domain = bound("the domain max+1", hi+1)
	in.wideDomain = bound("the domain max+max/10+1", hi+hi/10+1)
	return in, nil
}

func runStatic(in *scenarioInput, d cdfpoison.ScenarioDefense) (scenarioOutcome, error) {
	if in.domain.err != nil {
		return scenarioOutcome{}, in.domain.err
	}
	res, err := cdfpoison.StaticScenarioAttack(in.ks, cdfpoison.StaticAttackOptions{
		Budget: in.budget, HonestWrites: in.ops, Domain: in.domain.v, Seed: in.seed, Defense: d,
	}, cdfpoison.WithParallelism(in.workers))
	return scenarioOutcome{damage: res.RatioLoss, defense: res.Defense, poison: res.Poison}, err
}

func runOnline(in *scenarioInput, d cdfpoison.ScenarioDefense) (scenarioOutcome, error) {
	if in.epochs < 1 {
		return scenarioOutcome{}, fmt.Errorf("-epochs must be >= 1, got %d", in.epochs)
	}
	if in.arrivals < 0 {
		return scenarioOutcome{}, fmt.Errorf("-arrivals must be >= 0, got %d", in.arrivals)
	}
	opts := cdfpoison.OnlineOptions{Epochs: in.epochs, EpochBudget: in.budget, Policy: in.retrain, Defense: d}
	switch in.oracle {
	case "regression":
	case "rmi":
		opts.Oracle = cdfpoison.OracleRMI
		N := in.models
		if N == 0 {
			N = max(in.ks.Len()/100, 1)
		}
		opts.RMI = cdfpoison.RMIAttackOptions{NumModels: N, Alpha: in.alpha}
	default:
		return scenarioOutcome{}, fmt.Errorf("unknown oracle %q (want regression | rmi)", in.oracle)
	}
	if in.arrivals > 0 {
		if in.span.err != nil {
			return scenarioOutcome{}, in.span.err
		}
		rng := cdfpoison.NewRNG(in.seed)
		opts.Arrivals = make([][]int64, in.epochs)
		for e := range opts.Arrivals {
			for i := 0; i < in.arrivals; i++ {
				opts.Arrivals[e] = append(opts.Arrivals[e], in.ks.Min()+rng.Int63n(in.span.v))
			}
		}
	}
	res, err := cdfpoison.OnlinePoisonAttack(in.ks, opts, cdfpoison.WithParallelism(in.workers))
	if err != nil {
		return scenarioOutcome{}, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "online attack: policy=%s, %d keys/epoch over %d epochs (%d honest arrivals/epoch)\n",
		in.retrain, opts.EpochBudget, in.epochs, in.arrivals)
	fmt.Fprintf(&b, "%5s %9s %7s %9s %7s %10s %12s %12s\n",
		"epoch", "injected", "buffer", "retrains", "ratio", "displaced", "clean_prob", "pois_prob")
	for _, e := range res.Epochs {
		fmt.Fprintf(&b, "%5d %9d %7d %9d %7.2f %10d %12.2f %12.2f\n",
			e.Epoch, e.Injected, e.BufferLen, e.Retrains, e.RatioLoss,
			e.Displaced, e.CleanProbes, e.PoisonedProbes)
	}
	fmt.Fprintf(&b, "final ratio %.2f× (max %.2f×), %d poison keys, %d retrains\n",
		res.FinalRatio(), res.MaxRatio(), res.Poison.Len(), res.Retrains)
	return scenarioOutcome{b.String(), res.FinalRatio(), res.Defense, res.Poison}, nil
}

func runServe(in *scenarioInput, d cdfpoison.ScenarioDefense) (scenarioOutcome, error) {
	res, err := cdfpoison.ServeAttack(in.ks, cdfpoison.ServeOptions{
		Epochs: in.epochs, OpsPerEpoch: in.ops, EpochBudget: in.budget, Shards: in.shards,
		Policy: in.retrain, Workload: in.mix, Seed: in.seed, RebuildCost: in.rebuild, Defense: d,
	}, cdfpoison.WithParallelism(in.workers))
	if err != nil {
		return scenarioOutcome{}, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "serve attack: %d shards, policy=%s, workload=%s, %d ops/epoch over %d epochs\n",
		in.shards, in.retrain, in.mix, in.ops, in.epochs)
	fmt.Fprintf(&b, "%5s %6s %7s %9s %7s %9s %7s %10s %12s %12s %10s\n",
		"epoch", "reads", "writes", "injected", "buffer", "retrains", "ratio",
		"imbalance", "clean_prob", "pois_prob", "max_shard")
	for _, e := range res.Epochs {
		fmt.Fprintf(&b, "%5d %6d %7d %9d %7d %9d %7.2f %10.2f %12.2f %12.2f %10.2f\n",
			e.Epoch, e.Reads, e.Writes, e.Injected, e.BufferLen, e.Retrains,
			e.RatioLoss, e.Imbalance, e.CleanProbes, e.PoisonedProbes, e.MaxShardRatio())
	}
	fmt.Fprintf(&b, "final ratio %.2f× (max %.2f×, worst shard %.2f×), %d poison keys, %d retrains\n",
		res.FinalRatio(), res.MaxRatio(), res.MaxShardRatio(), res.Poison.Len(), res.Retrains)
	return scenarioOutcome{b.String(), res.FinalRatio(), res.Defense, res.Poison}, nil
}

func runChurn(in *scenarioInput, d cdfpoison.ScenarioDefense) (scenarioOutcome, error) {
	res, err := cdfpoison.ChurnAttack(in.ks, cdfpoison.ChurnOptions{
		Epochs: in.epochs, OpsPerEpoch: in.ops, EpochBudget: in.budget, Shards: in.shards,
		Policy: in.retrain, Workload: in.mix, Seed: in.seed, Cost: in.rebuild, Defense: d,
	}, cdfpoison.WithParallelism(in.workers))
	if err != nil {
		return scenarioOutcome{}, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "churn attack: %d shards, policy=%s, cost=%s, workload=%s, %d ops/epoch over %d epochs\n",
		in.shards, in.retrain, in.rebuild, in.mix, in.ops, in.epochs)
	fmt.Fprintf(&b, "%5s %6s %9s %7s %9s %9s %10s %10s %8s %8s %7s %11s\n",
		"epoch", "shard", "injected", "stale%", "publish", "coalesce", "lat_mean", "lat_max",
		"rebuild", "stale_t", "ratio", "probe_ratio")
	for _, e := range res.Epochs {
		fmt.Fprintf(&b, "%5d %6d %9d %6.1f%% %9d %9d %10.1f %10d %8d %8d %7.2f %11.2f\n",
			e.Epoch, e.TargetShard, e.Injected, e.StaleFrac*100, e.Publishes, e.Coalesced,
			e.MeanPublishLatency, e.MaxPublishLatency, e.RebuildTicks, e.StaleTicks,
			e.RatioLoss, e.ProbeRatio)
	}
	fmt.Fprintf(&b, "max stale fraction %.2f, max publish latency %d ticks, final ratio %.2f×, %d poison keys, %d retrains\n",
		res.MaxStaleFrac(), res.VictimChurn.MaxLatencyTicks, res.FinalRatio(),
		res.Poison.Len(), res.Retrains)
	damage := cdfpoison.SafeRatio(float64(res.VictimChurn.RebuildTicks), float64(res.CleanChurn.RebuildTicks))
	return scenarioOutcome{b.String(), damage, res.Defense, res.Poison}, nil
}

func runCascade(in *scenarioInput, d cdfpoison.ScenarioDefense) (scenarioOutcome, error) {
	res, err := cdfpoison.CascadeAttack(in.ks, cdfpoison.CascadeOptions{
		Epochs: in.epochs, OpsPerEpoch: in.ops, EpochBudget: in.budget,
		LeafTarget: in.leaf, Workload: in.mix, Seed: in.seed, Defense: d,
	})
	if err != nil {
		return scenarioOutcome{}, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "cascade attack: leaf=%d, workload=%s, %d ops/epoch over %d epochs\n",
		in.leaf, in.mix, in.ops, in.epochs)
	fmt.Fprintf(&b, "%5s %6s %9s %9s %11s %7s %9s %6s %11s %12s %9s %12s %11s\n",
		"epoch", "node", "density", "injected", "shift_wr", "splits", "cascades",
		"nodes", "struct_cost", "clean_cost", "ratio", "damage", "probe_ratio")
	for _, e := range res.Epochs {
		fmt.Fprintf(&b, "%5d %6d %9.2f %9d %11d %7d %9d %6d %11d %12d %9.2f %12.0f %11.2f\n",
			e.Epoch, e.TargetNode, e.TargetDensity, e.Injected, e.ShiftWrites,
			e.Splits, e.Cascades, e.Nodes, e.StructCost, e.CleanStructCost,
			e.StructRatio, e.DamageScore, e.ProbeRatio)
	}
	fmt.Fprintf(&b, "final struct ratio %.2f× (victim cost %d vs clean %d), %d splits (+%d cascades) vs clean %d (+%d), %d poison keys\n",
		res.FinalStructRatio(), res.VictimStruct.Cost(), res.CleanStruct.Cost(),
		res.VictimStruct.Splits, res.VictimStruct.Cascades,
		res.CleanStruct.Splits, res.CleanStruct.Cascades, res.Poison.Len())
	return scenarioOutcome{b.String(), res.FinalStructRatio(), res.Defense, res.Poison}, nil
}

// runThroughput mounts the scenario on the concurrent serving plane, clean
// and then poisoned. The plane takes no defense, so d is unused.
func runThroughput(in *scenarioInput, d cdfpoison.ScenarioDefense) (scenarioOutcome, error) {
	if in.wideDomain.err != nil {
		return scenarioOutcome{}, in.wideDomain.err
	}
	switch {
	case in.readers < 0:
		return scenarioOutcome{}, fmt.Errorf("-readers must be >= 0, got %d", in.readers)
	case in.batch < 0:
		return scenarioOutcome{}, fmt.Errorf("-batch must be >= 0, got %d", in.batch)
	}
	// Manual retrains once per epoch, as in serve, online and churn.
	base := cdfpoison.ServingScenarioOptions{
		Epochs: in.epochs, OpsPerEpoch: in.ops, Workload: in.mix, Domain: in.wideDomain.v,
		Seed: in.seed, Cost: in.rebuild, Oracle: cdfpoison.GreedyPoisonOracle(),
		ManualRetrain: in.retrain == cdfpoison.RetrainManually(),
	}
	plane := cdfpoison.ServingPlaneOptions{Readers: in.readers, BatchSize: in.batch}.ForEpoch(in.ops)
	serve := func(budget int) ([]cdfpoison.ServingEpochMetrics, float64, error) {
		b, err := cdfpoison.NewShardedIndex(in.ks, in.shards, in.retrain)
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
	clean, cleanOps, err := serve(0)
	if err != nil {
		return scenarioOutcome{}, fmt.Errorf("clean run: %w", err)
	}
	poisoned, poisonedOps, err := serve(in.budget)
	if err != nil {
		return scenarioOutcome{}, fmt.Errorf("poisoned run: %w", err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "throughput scenario: %d shards, policy=%s, cost=%s, workload=%s, %d ops/epoch over %d epochs, budget %d/epoch\n",
		in.shards, in.retrain, in.rebuild, in.mix, in.ops, in.epochs, in.budget)
	fmt.Fprintf(&b, "%5s %9s %9s %10s %11s %9s %10s %11s %8s %7s %7s\n",
		"epoch", "clean_p50", "clean_p99", "clean_p999",
		"poison_p50", "poison_p99", "poison_p999", "stale_frac", "injected", "ratio", "p999×")
	for i, p := range poisoned {
		c := clean[i]
		fmt.Fprintf(&b, "%5d %9d %9d %10d %11d %9d %10d %11.3f %8d %7.2f %7.2f\n",
			p.Epoch, c.P50, c.P99, c.P999, p.P50, p.P99, p.P999,
			p.StaleFrac, p.Injected, cdfpoison.SafeRatio(p.ContentLoss, c.ContentLoss),
			cdfpoison.SafeRatio(float64(p.P999), float64(c.P999)))
	}
	fmt.Fprintf(&b, "wall-clock (machine-dependent): clean %.0f ops/s, poisoned %.0f ops/s, %d readers\n",
		cleanOps, poisonedOps, plane.Readers)
	return scenarioOutcome{report: b.String()}, nil
}
