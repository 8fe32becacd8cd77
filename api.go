package cdfpoison

import (
	"context"
	"io"

	"cdfpoison/internal/alex"
	"cdfpoison/internal/blackbox"
	"cdfpoison/internal/btree"
	"cdfpoison/internal/core"
	"cdfpoison/internal/dataset"
	"cdfpoison/internal/defense"
	"cdfpoison/internal/dynamic"
	"cdfpoison/internal/index"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/pla"
	"cdfpoison/internal/regression"
	"cdfpoison/internal/rmi"
	"cdfpoison/internal/robust"
	"cdfpoison/internal/serve"
	"cdfpoison/internal/shard"
	"cdfpoison/internal/workload"
	"cdfpoison/internal/xrand"
)

// ---------------------------------------------------------------------------
// Key sets
// ---------------------------------------------------------------------------

// KeySet is an immutable, sorted, duplicate-free set of non-negative integer
// keys — the index's training data.
type KeySet = keys.Set

// Gap is a maximal run of unoccupied interior keys, the feasible region for
// poisoning insertions.
type Gap = keys.Gap

// NewKeySet builds a KeySet from arbitrary input, sorting and deduplicating.
func NewKeySet(input []int64) (KeySet, error) { return keys.New(input) }

// NewKeySetStrict is NewKeySet but rejects duplicate keys.
func NewKeySetStrict(input []int64) (KeySet, error) { return keys.NewStrict(input) }

// ReadKeysText parses one decimal key per line ('#' comments allowed).
func ReadKeysText(r io.Reader) (KeySet, error) { return keys.ReadText(r) }

// ---------------------------------------------------------------------------
// Randomness and datasets
// ---------------------------------------------------------------------------

// RNG is the deterministic random generator used across the library.
type RNG = xrand.RNG

// NewRNG returns a deterministic generator for the seed.
func NewRNG(seed uint64) *RNG { return xrand.New(seed) }

// UniformKeys draws n unique keys uniformly from [0, m).
func UniformKeys(rng *RNG, n int, m int64) (KeySet, error) { return dataset.Uniform(rng, n, m) }

// NormalKeys draws n unique keys from the paper's truncated normal over
// [0, m) (mean m/2, stddev m/3 — the Figure 8 workload).
func NormalKeys(rng *RNG, n int, m int64) (KeySet, error) { return dataset.Normal(rng, n, m) }

// LogNormalKeys draws n unique keys whose continuous law is log-normal with
// log-space parameters (mu, sigma) scaled into [0, m) — the paper's skewed
// synthetic workload uses mu=0, sigma=2.
func LogNormalKeys(rng *RNG, n int, m int64, mu, sigma float64) (KeySet, error) {
	return dataset.LogNormal(rng, n, m, mu, sigma)
}

// MiamiSalaries simulates the paper's Miami-Dade salary dataset (n=5,300
// unique salaries in [22,733, 190,034]).
func MiamiSalaries(rng *RNG) (KeySet, error) { return dataset.MiamiSalaries(rng) }

// OSMLatitudes simulates the paper's OpenStreetMap school-latitude dataset
// (n=302,973 keys in [0, 1,200,000)).
func OSMLatitudes(rng *RNG) (KeySet, error) { return dataset.OSMLatitudes(rng) }

// ---------------------------------------------------------------------------
// Linear regression on CDFs (the model under attack)
// ---------------------------------------------------------------------------

// Line is a fitted line rank ≈ W·key + B.
type Line = regression.Line

// Model is a fitted CDF regression with its in-sample MSE.
type Model = regression.Model

// FitCDF fits the least-squares line through (key, rank) — Theorem 1's
// closed form, computed with translation-stable centered moments.
func FitCDF(ks KeySet) (Model, error) { return regression.FitCDF(ks) }

// ---------------------------------------------------------------------------
// Parallel execution
// ---------------------------------------------------------------------------

// AttackOption tunes how an attack entry point executes (worker count,
// cancellation) without changing what it computes: for any parallelism the
// result is byte-identical to the sequential run. See internal/engine for
// the determinism contract.
type AttackOption = core.Option

// WithParallelism bounds the attack's worker pool: n == 1 runs
// sequentially on the calling goroutine (the default), n > 1 uses exactly
// n workers, and n <= 0 uses one worker per core. The pool reaches exactly
// Algorithm 1's candidate scans (the single-point oracles, GreedyMultiPoint
// and every scenario oracle built on it) and Algorithm 2's per-segment
// attacks (RMIAttack); everything else runs sequentially.
func WithParallelism(n int) AttackOption { return core.WithWorkers(n) }

// WithCancellation makes the attack abort with ctx.Err() once ctx is
// cancelled, checking between candidate evaluations.
func WithCancellation(ctx context.Context) AttackOption { return core.WithContext(ctx) }

// WithExhaustiveScan disables the closed-form pruned scan (DESIGN.md §11)
// and forces the classic exhaustive gap-endpoint sweep. Results are
// bit-identical either way; use it for ablations or when the classic
// 2(n−1)-candidate accounting is wanted.
func WithExhaustiveScan() AttackOption { return core.WithExhaustiveScan() }

// ---------------------------------------------------------------------------
// Poisoning attacks (the paper's contribution)
// ---------------------------------------------------------------------------

// SinglePointResult reports an optimal single-key poisoning.
type SinglePointResult = core.SinglePointResult

// GreedyResult reports a greedy multi-point poisoning (Algorithm 1).
type GreedyResult = core.GreedyResult

// LossPoint is one entry of the loss sequence L(kp).
type LossPoint = core.LossPoint

// RMIAttackOptions parameterizes the two-stage RMI attack (Algorithm 2).
type RMIAttackOptions = core.RMIAttackOptions

// RMIAttackResult reports the RMI attack outcome.
type RMIAttackResult = core.RMIAttackResult

// ModelReport describes one second-stage model after the RMI attack.
type ModelReport = core.ModelReport

// ErrNoGap and ErrTooFew are the attack feasibility errors.
var (
	ErrNoGap  = core.ErrNoGap
	ErrTooFew = core.ErrTooFew
)

// SafeRatio returns poisoned/clean with the convention 0/0 = 1 and x/0 =
// +Inf: the loss ratio every result reports and both CLIs print.
func SafeRatio(poisoned, clean float64) float64 { return core.SafeRatio(poisoned, clean) }

// OptimalSinglePoint finds the poisoning key maximizing the retrained MSE.
// Only gap endpoints are candidates (Theorem 2), and a closed-form bound
// prunes whole blocks of gaps before evaluation (DESIGN.md §11), so the
// scan is sublinear in practice with an O(n) worst case — bit-identical to
// the exhaustive sweep either way (see WithExhaustiveScan). The result's
// BlocksVisited/BlocksTotal fields count evaluated and total 16-gap leaf
// blocks, so they report how much the pruning saved; both stay zero on
// sets under 64 gaps, which take the full scan.
func OptimalSinglePoint(ks KeySet, opts ...AttackOption) (SinglePointResult, error) {
	return core.OptimalSinglePoint(ks, opts...)
}

// BruteForceSinglePoint evaluates every unoccupied interior key — the
// correctness oracle and ablation baseline for OptimalSinglePoint.
func BruteForceSinglePoint(ks KeySet, opts ...AttackOption) (SinglePointResult, error) {
	return core.BruteForceSinglePoint(ks, opts...)
}

// GreedyMultiPoint inserts up to p poisoning keys, each locally optimal
// (Algorithm 1); it stops early if the domain saturates or no insertion can
// increase the loss. Each step runs the pruned endpoint scan (DESIGN.md
// §11), and WithParallelism spreads the surviving candidate blocks across
// workers — neither changes any result byte.
func GreedyMultiPoint(ks KeySet, p int, opts ...AttackOption) (GreedyResult, error) {
	return core.GreedyMultiPoint(ks, p, opts...)
}

// LossSequence evaluates the poisoned loss for every feasible poisoning key
// (the Figure 3 curve); the second result is the clean loss. The scan is
// sequential: WithParallelism changes nothing, and WithCancellation is
// checked once per gap.
func LossSequence(ks KeySet, opts ...AttackOption) ([]LossPoint, float64, error) {
	return core.LossSequence(ks, opts...)
}

// RMIAttack poisons the second stage of a two-stage RMI (Algorithm 2):
// greedy volume allocation across models under a per-model threshold.
// WithParallelism fans the per-model attacks out across workers; the
// result is identical for every worker count.
func RMIAttack(ks KeySet, opts RMIAttackOptions, execOpts ...AttackOption) (RMIAttackResult, error) {
	return core.RMIAttack(ks, opts, execOpts...)
}

// RemovalResult reports an optimal single-key removal attack.
type RemovalResult = core.RemovalResult

// GreedyRemovalResult reports a greedy multi-key removal attack.
type GreedyRemovalResult = core.GreedyRemovalResult

// OptimalSingleRemoval finds the stored key whose deletion maximizes the
// retrained MSE in O(n) — the deletion adversary the paper lists as future
// work (Section VI).
func OptimalSingleRemoval(ks KeySet) (RemovalResult, error) {
	return core.OptimalSingleRemoval(ks)
}

// GreedyRemoval deletes up to p keys, each locally optimal, stopping early
// when no deletion can increase the loss.
func GreedyRemoval(ks KeySet, p int) (GreedyRemovalResult, error) {
	return core.GreedyRemoval(ks, p)
}

// ModificationResult reports a greedy multi-modification attack.
type ModificationResult = core.ModificationResult

// GreedyModification applies up to p key modifications (one deletion plus
// one insertion each, keeping the key count constant) — the third adversary
// capability the paper's Section VI anticipates.
func GreedyModification(ks KeySet, p int) (ModificationResult, error) {
	return core.GreedyModification(ks, p)
}

// ---------------------------------------------------------------------------
// Dynamic indexes and online poisoning
// ---------------------------------------------------------------------------

// DynamicIndex is an updatable learned index: a CDF model over a base key
// set plus a sorted delta buffer, merged and retrained per its policy. It
// is the victim of the online poisoning scenario.
type DynamicIndex = dynamic.Index

// RetrainPolicy selects when a DynamicIndex merges its delta buffer and
// refits its model.
type RetrainPolicy = dynamic.RetrainPolicy

// DynamicLookupResult reports a point query against a DynamicIndex.
type DynamicLookupResult = dynamic.LookupResult

// DynamicStats summarizes a DynamicIndex's state.
type DynamicStats = dynamic.Stats

// RetrainManually retrains only on explicit Retrain() calls (in the online
// scenario: one forced retrain at the end of every epoch).
func RetrainManually() RetrainPolicy { return dynamic.ManualPolicy() }

// RetrainEvery retrains after every k-th insert call — a write-count
// maintenance schedule the adversary's own writes tick forward.
func RetrainEvery(k int) RetrainPolicy { return dynamic.EveryKInserts(k) }

// RetrainAtBufferSize retrains once the delta buffer holds k accepted keys
// — the bounded-buffer merge policy of dynamic learned indexes.
func RetrainAtBufferSize(k int) RetrainPolicy { return dynamic.BufferLimit(k) }

// NewDynamicIndex builds an updatable learned index over the initial keys
// (>= 2) and trains the first model.
func NewDynamicIndex(ks KeySet, policy RetrainPolicy) (*DynamicIndex, error) {
	return dynamic.New(ks, policy)
}

// OnlineOptions parameterizes OnlinePoisonAttack.
type OnlineOptions = core.OnlineOptions

// OnlineResult reports the online poisoning scenario, one EpochReport per
// retrain cycle.
type OnlineResult = core.OnlineResult

// EpochReport is one epoch's end-state: injected keys, retrains, loss ratio
// against the clean counterfactual, and lookup probe costs.
type EpochReport = core.EpochReport

// OnlineOracle selects the attacker's per-epoch poisoning oracle.
type OnlineOracle = core.OnlineOracle

// Per-epoch oracles: Algorithm 1 against the full visible content, or
// Algorithm 2 against the partitioning a future RMI rebuild would use.
const (
	OracleRegression = core.OracleRegression
	OracleRMI        = core.OracleRMI
)

// OnlinePoisonAttack mounts the dynamic-index poisoning scenario: an
// adversary with a per-epoch key budget injects poison into an updatable
// learned index between retrains, interleaved with an honest insert stream,
// and the damage is tracked per epoch against a clean counterfactual index
// running the same retrain policy. WithParallelism fans out the per-epoch
// oracle scans without changing any result byte.
func OnlinePoisonAttack(initial KeySet, opts OnlineOptions, execOpts ...AttackOption) (OnlineResult, error) {
	return core.OnlinePoisonAttack(initial, opts, execOpts...)
}

// ---------------------------------------------------------------------------
// Index backends, sharding, workloads, and the serving scenario
// ---------------------------------------------------------------------------

// IndexBackend is the contract every index substrate serves through,
// composed of three planes: IndexReader (immutable snapshots), IndexWriter
// (delta-plane inserts), and IndexAdmin (explicit retrains + stats), plus
// direct probe-counted reads against the current state. DynamicIndex
// (also the single-model index NewSingleModelIndex builds), BTree,
// ShardedIndex, AlexIndex, GuardedBackend, and RetrainPipeline all satisfy
// it, and the scenarios (OnlinePoisonAttack, ServeAttack, ChurnAttack)
// drive victims only through it.
type IndexBackend = index.Backend

// IndexReader is the read plane: it publishes the immutable Snapshot
// lookups should be served from.
type IndexReader = index.Reader

// IndexWriter is the write plane: inserts into the backend's delta area.
type IndexWriter = index.Writer

// IndexAdmin is the maintenance plane: explicit Retrain plus Stats.
type IndexAdmin = index.Admin

// IndexSnapshot is an immutable point-in-time view of a backend's content:
// its answers are frozen at capture, surviving any later mutation or
// retrain of the backend it came from.
type IndexSnapshot = index.Snapshot

// BackendLookupResult reports a probe-counted backend point query.
type BackendLookupResult = index.LookupResult

// BackendStats is the uniform backend summary: key, buffer and retrain
// counts, model and content losses, and the search-window width. A
// guard's rejected-insert count is not in it: read Guard.Flagged or a
// scenario's ScenarioDefenseReport.
type BackendStats = index.Stats

// ParseRetrainPolicy parses the policy spec syntax shared by the lispoison
// online and serve subcommands: "manual", "every:K", or "buffer:K".
func ParseRetrainPolicy(s string) (RetrainPolicy, error) { return dynamic.ParsePolicy(s) }

// NewSingleModelIndex builds the single-model (fanout-1) RMI path behind
// the backend contract over at least two keys: a static learned index
// whose inserts are staged until an explicit Retrain rebuilds the model —
// the paper's own victim shape. It is a manually retrained DynamicIndex
// trained by the fanout-1 RMI's stage-2 fit.
func NewSingleModelIndex(ks KeySet) (*DynamicIndex, error) { return rmi.NewSingle(ks) }

// ShardedIndex is a range-partitioned serving index: a router fitted over
// the initial key CDF in front of independent dynamic shards. See
// DESIGN.md §6 for the router invariants.
type ShardedIndex = shard.Index

// NewShardedIndex builds a sharded index over the initial keys: the router
// is frozen at construction and each shard runs its own copy of the
// retrain policy. Requires at least two initial keys per shard.
func NewShardedIndex(ks KeySet, shards int, policy RetrainPolicy) (*ShardedIndex, error) {
	return shard.New(ks, shards, policy)
}

// Workload parameterizes a deterministic read/write operation stream for
// the serving scenario (reads by rank over the stored keys, uniform writes
// over the key universe).
type Workload = workload.Spec

// WorkloadOp is one operation of a workload stream.
type WorkloadOp = workload.Op

// WorkloadGenerator produces a workload's deterministic operation stream.
type WorkloadGenerator = workload.Generator

// UniformWorkload reads every stored rank equally often; readPct is the
// percentage of operations that are reads.
func UniformWorkload(readPct float64) Workload { return workload.NewUniform(readPct) }

// ZipfWorkload reads rank r with probability ∝ 1/r^theta — the classic
// skewed-popularity serving mix.
func ZipfWorkload(theta, readPct float64) Workload { return workload.NewZipf(theta, readPct) }

// HotspotWorkload concentrates reads on a hot window covering hotPct
// percent of the rank space — the adversarial mix.
func HotspotWorkload(hotPct, readPct float64) Workload {
	return workload.NewHotspot(hotPct, readPct)
}

// ParseWorkload parses the workload spec syntax of `lispoison serve`:
// "uniform[:R]", "zipf[:T[:R]]", or "hotspot[:H[:R]]".
func ParseWorkload(s string) (Workload, error) { return workload.ParseSpec(s) }

// NewWorkloadGenerator builds the deterministic stream generator: reads
// target initial by rank, writes are uniform over [0, domain).
func NewWorkloadGenerator(w Workload, initial KeySet, domain int64, seed uint64) (*WorkloadGenerator, error) {
	return workload.NewGenerator(w, initial, domain, seed)
}

// RebuildCostModel prices one index rebuild in logical ticks (fixed plus
// per-key components); the zero value makes every rebuild publish
// instantly — the synchronous golden path.
type RebuildCostModel = index.CostModel

// ParseRebuildCost parses the rebuild-cost spec syntax of the churn and
// serve subcommands: "zero", "fixed:F", or "linear:F:P[:U]".
func ParseRebuildCost(s string) (RebuildCostModel, error) { return index.ParseCostModel(s) }

// RetrainPipeline wraps any IndexBackend with the deterministic
// background-retrain schedule: a retrain triggered at logical tick T keeps
// the read plane on the pre-rebuild snapshot until tick T+cost, with
// coalescing, staleness, and publish-latency accounting. It is itself an
// IndexBackend, and it runs every retrain through the wrapped backend's own
// Retrain on the caller's goroutine. See DESIGN.md §7.
type RetrainPipeline = index.Pipeline

// PipelineChurnStats is a RetrainPipeline's cumulative accounting:
// coalesces, publishes, stale ticks, rebuild cost, and publish latency.
type PipelineChurnStats = index.ChurnStats

// NewRetrainPipeline wraps a backend with the given rebuild cost model.
func NewRetrainPipeline(b IndexBackend, cost RebuildCostModel) *RetrainPipeline {
	return index.NewPipeline(b, cost)
}

// ServeOptions parameterizes ServeAttack.
type ServeOptions = core.ServeOptions

// ServeResult reports the serving scenario, one ServeEpochReport per epoch,
// with the accepted poison, the victim's retrain total, and the defense
// accounting.
type ServeResult = core.ServeResult

// ServeEpochReport is one serving epoch's end state: loss ratios
// (aggregate and per shard), mean probes over the epoch's reads on both
// indexes, the victim's shard imbalance, buffer depth, and retrain count.
type ServeEpochReport = core.ServeEpochReport

// ServeShardReport is one shard's end-of-epoch loss ratio, victim over
// clean, within an epoch report.
type ServeShardReport = core.ServeShardReport

// ServeAttack mounts the attack-under-load scenario: an adversary with a
// per-epoch key budget poisons a sharded serving index (NewShardedIndex)
// while an honest population reads and writes it, tracked against a clean
// counterfactual running the identical operation stream. WithParallelism
// fans out the oracle scans without changing any result byte.
func ServeAttack(initial KeySet, opts ServeOptions, execOpts ...AttackOption) (ServeResult, error) {
	return core.ServeAttack(initial, opts, execOpts...)
}

// ChurnOptions parameterizes ChurnAttack.
type ChurnOptions = core.ChurnOptions

// ChurnResult reports the retrain-churn scenario, one ChurnEpochReport per
// epoch plus both pipelines' final accounting.
type ChurnResult = core.ChurnResult

// ChurnEpochReport is one churn epoch's end state: stale-read fractions,
// publish latency in ticks, rebuild cost, coalescing, loss ratio against
// the clean counterfactual, and inline probe costs.
type ChurnEpochReport = core.ChurnEpochReport

// ChurnAttack mounts the retrain-churn scenario: an adversary drip-feeds
// its per-epoch budget into the ONE shard where each key buys the most
// rebuild work, maximizing retrain frequency × rebuild cost × stale-window
// exposure on a sharded index behind a RetrainPipeline, against a clean
// counterfactual running the identical pipeline and operation stream.
// WithParallelism fans out the oracle scans without changing any result
// byte.
func ChurnAttack(initial KeySet, opts ChurnOptions, execOpts ...AttackOption) (ChurnResult, error) {
	return core.ChurnAttack(initial, opts, execOpts...)
}

// AlexIndex is the ALEX-style two-level gapped-array learned index
// (DESIGN.md §9): model-based inserts into slot gaps, exponential-search
// fallback, leaf splits at the density threshold, and a full rebuild
// cascade when splitting overflows the root's fanout limit. It implements
// IndexBackend with COW snapshots.
type AlexIndex = alex.Index

// AlexStructStats is an AlexIndex's cumulative structural-maintenance
// accounting: slot writes from insert shifts, leaf splits, and fanout
// cascades. Cost() folds them into total slot writes — the currency the
// cascade attacker maximizes.
type AlexStructStats = alex.StructStats

// NewAlexIndex builds a gapped-array index over the initial keys at ~50%
// leaf occupancy. leafTarget is the bulk-load keys-per-leaf (0 selects the
// default); smaller leaves mean a tighter fanout limit.
func NewAlexIndex(ks KeySet, leafTarget int) (*AlexIndex, error) {
	return alex.New(ks, leafTarget)
}

// CascadeOptions parameterizes CascadeAttack.
type CascadeOptions = core.CascadeOptions

// CascadeResult reports the split-cascade scenario, one CascadeEpochReport
// per epoch plus both indexes' final structural accounting.
type CascadeResult = core.CascadeResult

// CascadeEpochReport is one cascade epoch's end state: cumulative shift
// writes, splits, and cascades for victim and clean counterfactual, the
// structural-cost and probe ratios, and the epoch's damage score.
type CascadeEpochReport = core.CascadeEpochReport

// CascadeAttack mounts the split-cascade scenario: an adversary drip-feeds
// its per-epoch budget into the DENSEST leaf of a gapped-array index —
// where every insert shifts the longest occupied runs and the split
// threshold is nearest — forcing cascading splits and fanout-overflow
// rebuilds, against a clean counterfactual running the identical operation
// stream. The scenario is sequential: WithParallelism changes nothing, and
// WithCancellation aborts between epochs and between operations.
func CascadeAttack(initial KeySet, opts CascadeOptions, execOpts ...AttackOption) (CascadeResult, error) {
	return core.CascadeAttack(initial, opts, execOpts...)
}

// ServingPlaneOptions are the concurrent serving plane's knobs: reader
// goroutine count and read-batch size. The zero value is valid; neither
// knob affects any metric — only wall-clock throughput (the scheduler-
// equivalence contract, DESIGN.md §8).
type ServingPlaneOptions = serve.Options

// ServingScenarioOptions parameterizes one serving scenario: a workload
// stream served for Epochs epochs of OpsPerEpoch operations, with
// EpochBudget poison keys per epoch drip-fed into the write plane by the
// PoisonOracle.
type ServingScenarioOptions = serve.ScenarioOptions

// ServingEpochMetrics is one epoch's deterministic result: tail-latency
// percentiles in probes (p50/p99/p999), stale-read fraction, content loss,
// and pipeline churn counters — byte-identical under the tick oracle and
// the concurrent plane, for any reader count.
type ServingEpochMetrics = serve.EpochMetrics

// ProbeHistogram is the deterministic HDR-style histogram behind the
// percentiles: fixed log-bucket layout, exact below 64, relative error
// ≤ 1/32 above, with a merge that is commutative and associative.
type ProbeHistogram = serve.Histogram

// PoisonOracle computes a poison key sequence against the currently
// visible content; the scenario calls it once per epoch.
type PoisonOracle = serve.Oracle

// GreedyPoisonOracle adapts GreedyMultiPoint (Algorithm 1) to the serving
// scenario's per-epoch oracle shape.
func GreedyPoisonOracle(opts ...AttackOption) PoisonOracle { return core.GreedyOracle(opts...) }

// ServeScenarioTick runs the serving scenario on the single-threaded tick
// scheduler — the golden oracle the concurrent plane is tested against.
func ServeScenarioTick(b IndexBackend, o ServingScenarioOptions) ([]ServingEpochMetrics, error) {
	return serve.RunTick(b, o)
}

// ServeScenarioConcurrent runs the serving scenario on the goroutine-
// concurrent plane: lock-free lookups, each served from the immutable
// snapshot it was queued with, a single writer, and true background
// retrains. Deterministic metrics are identical to ServeScenarioTick.
func ServeScenarioConcurrent(ctx context.Context, b IndexBackend, o ServingScenarioOptions, p ServingPlaneOptions) ([]ServingEpochMetrics, error) {
	return serve.RunConcurrent(ctx, b, o, p)
}

// PredictionOracle is query access to a deployed index's raw position
// predictions — the observable of the black-box threat model.
type PredictionOracle = blackbox.Oracle

// BlackBoxInference is the recovered second-stage architecture.
type BlackBoxInference = blackbox.InferenceResult

// BlackBoxAttackResult is the attack mounted on the inferred architecture.
type BlackBoxAttackResult = blackbox.AttackResult

// InferSecondStage recovers a deployed RMI's second-stage models (fanout,
// boundaries, and each linear model's parameters) from one prediction probe
// per known key — the black-box variant the paper sketches in Section VI.
func InferSecondStage(o PredictionOracle, known KeySet) (BlackBoxInference, error) {
	return blackbox.InferSecondStage(o, known)
}

// BlackBoxRMIAttack infers the architecture through the oracle and mounts
// Algorithm 2 against it; opts.NumModels is overridden by the inference.
func BlackBoxRMIAttack(o PredictionOracle, known KeySet, opts RMIAttackOptions) (BlackBoxAttackResult, error) {
	return blackbox.Attack(o, known, opts)
}

// ---------------------------------------------------------------------------
// Index substrates
// ---------------------------------------------------------------------------

// Index is the two-stage recursive model index.
type Index = rmi.Index

// RMIConfig configures BuildRMI.
type RMIConfig = rmi.Config

// LookupResult reports an index point query.
type LookupResult = rmi.LookupResult

// IndexStats summarizes an index's lookup-cost structure.
type IndexStats = rmi.Stats

// BuildRMI constructs a two-stage RMI over the key set.
func BuildRMI(ks KeySet, cfg RMIConfig) (*Index, error) { return rmi.Build(ks, cfg) }

// PLAIndex is an error-bounded piecewise-linear learned index (the
// FITing-tree / PGM-index family). Against it, CDF poisoning surfaces as
// segment-count (memory) inflation rather than lookup error.
type PLAIndex = pla.Index

// BuildPLA constructs a piecewise-linear index with the given guaranteed
// error bound epsilon (the fewest one-pass greedy segments).
func BuildPLA(ks KeySet, epsilon int) (*PLAIndex, error) { return pla.Build(ks, epsilon) }

// PLAInflationResult reports the segment-inflation attack outcome.
type PLAInflationResult = pla.InflationResult

// PLAInflationAttack injects up to budget keys to maximize the number of
// ε-bounded segments a rebuild needs — the attack objective that actually
// transfers to PGM/FITing-tree-style indexes (see EXPERIMENTS.md, Ext. F).
func PLAInflationAttack(ks KeySet, budget, epsilon int) (PLAInflationResult, error) {
	return pla.InflationAttack(ks, budget, epsilon)
}

// BTree is the traditional baseline index.
type BTree = btree.Tree

// NewBTree returns an empty B-Tree of the given minimum degree.
func NewBTree(degree int) (*BTree, error) { return btree.New(degree) }

// BuildBTree bulk-loads a B-Tree from keys.
func BuildBTree(degree int, ks []int64) (*BTree, error) { return btree.Bulk(degree, ks) }

// ---------------------------------------------------------------------------
// Defenses
// ---------------------------------------------------------------------------

// TrimOptions tunes the TRIM defense.
type TrimOptions = defense.TrimOptions

// TrimResult reports the TRIM defense outcome.
type TrimResult = defense.TrimResult

// DefenseEval quantifies a defense against ground truth.
type DefenseEval = defense.Eval

// TrimDefense runs TRIM adapted to CDFs: iteratively keep the cleanCount
// best-fitting keys, re-ranking the candidate subset on every round.
func TrimDefense(poisoned KeySet, cleanCount int, opts TrimOptions) (TrimResult, error) {
	return defense.TrimCDF(poisoned, cleanCount, opts)
}

// EvaluateDefense scores flagged keys against the known poison set.
func EvaluateDefense(clean, poison, flagged, kept KeySet) (DefenseEval, error) {
	return defense.Evaluate(clean, poison, flagged, kept)
}

// RangeFilter drops keys outside [lo, hi] — the sanitizer the attack's
// interior-only keys are designed to evade.
func RangeFilter(ks KeySet, lo, hi int64) (kept, removed KeySet) {
	return defense.RangeFilter(ks, lo, hi)
}

// DensityFlagger flags keys in abnormally dense neighbourhoods (local
// density more than zThreshold standard deviations above the mean).
func DensityFlagger(ks KeySet, window int, zThreshold float64) KeySet {
	return defense.DensityFlagger(ks, window, zThreshold)
}

// GuardOptions holds NewGuardedBackend's detector chain (the density
// screen when nil).
type GuardOptions = defense.GuardOptions

// GuardedBackend is an online insert sanitizer wrapping any IndexBackend:
// reads pass through, writes are screened by a local-density heuristic at
// insert time. It is itself an IndexBackend, so guards compose with every
// backend and every scenario.
type GuardedBackend = defense.Guard

// NewGuardedBackend wraps a backend with the density screen.
func NewGuardedBackend(b IndexBackend, opts GuardOptions) *GuardedBackend {
	return defense.NewGuard(b, opts)
}

// ---------------------------------------------------------------------------
// Defense & robustness plane
// ---------------------------------------------------------------------------

// CDFFitter is a robust alternative to the OLS CDF fit: a deterministic
// estimator the learned backends can retrain with so that poison mass does
// not drag the model (internal/robust).
type CDFFitter = robust.Fitter

// OLSFitter is the baseline ordinary-least-squares CDF fit behind the
// Fitter interface.
type OLSFitter = robust.OLS

// TheilSenFitter is the deterministic Theil–Sen median-of-slopes estimator:
// up to ~29% contamination moves the fit only marginally.
type TheilSenFitter = robust.TheilSen

// TrimmedFitter is iteratively trimmed least squares: refit OLS on the
// (100-Pct)% best-fitting keys until the kept set stabilizes.
type TrimmedFitter = robust.Trimmed

// ParseCDFFitter parses a fitter spec: "ols" | "theilsen" | "trimmed:P".
func ParseCDFFitter(s string) (CDFFitter, error) { return robust.ParseFitter(s) }

// NewDynamicIndexWithFit is NewDynamicIndex with a pluggable CDF trainer
// (nil fit keeps OLS); pass a CDFFitter's Fit method to retrain robustly.
func NewDynamicIndexWithFit(ks KeySet, policy RetrainPolicy, fit func(KeySet) (Model, error)) (*DynamicIndex, error) {
	return dynamic.NewWithFit(ks, policy, fit)
}

// NewBalancedAlexIndex is NewAlexIndex with the density-balancing split
// policy: splits partition at the widest key-space gap instead of the
// occupancy midpoint, denying the cascade attacker its dense corner.
func NewBalancedAlexIndex(ks KeySet, leafTarget int) (*AlexIndex, error) {
	return alex.NewBalanced(ks, leafTarget)
}

// GuardPolicy is one composable insert-screening detector for the guarded
// backend; chain them in GuardOptions.Policies.
type GuardPolicy = defense.Policy

// DensityGuardPolicy screens one-sided rank-window density.
type DensityGuardPolicy = defense.DensityPolicy

// DupMassGuardPolicy screens near-duplicate key mass.
type DupMassGuardPolicy = defense.DupMassPolicy

// GapOutlierGuardPolicy screens gap-edge asymmetry.
type GapOutlierGuardPolicy = defense.GapOutlierPolicy

// LossSpikeGuardPolicy screens retrain-loss spikes using the attacker's own
// closed-form oracle.
type LossSpikeGuardPolicy = defense.LossSpikePolicy

// ParseGuardPolicyChain parses the '|'-separated detector-chain spec
// ("density:8:3|dupmass:3:3|gapout:6|lossspike:2"; "none" for the empty
// chain). It is total — any input yields a chain or an error.
func ParseGuardPolicyChain(spec string) ([]GuardPolicy, error) {
	return defense.ParsePolicyChain(spec)
}

// ScenarioDefense arms the defense plane of any attack scenario (static,
// online, serve, churn, cascade): detector chain, robust fitter, per-source
// rate limiting, and the balanced split policy. The zero value changes
// nothing.
type ScenarioDefense = core.DefenseSpec

// ScenarioDefenseReport is a scenario's defense-plane accounting, split by
// origin: the attacker's attempts, victim-side flags and throttles of
// honest and poison writes, and the clean twin's attempts, flags and
// throttles.
type ScenarioDefenseReport = core.DefenseReport

// StaticAttackOptions parameterizes StaticScenarioAttack.
type StaticAttackOptions = core.StaticOptions

// StaticAttackResult reports StaticScenarioAttack: the accepted poison,
// the victim/clean loss ratio after the final retrain, and the defense
// accounting.
type StaticAttackResult = core.StaticResult

// StaticScenarioAttack mounts the paper's one-shot (Algorithm 1) attack as
// a defense-aware scenario: the computed poison drips through the victim's
// write path — where a guard chain, rate limiter, or robust fitter can
// fight back — interleaved with honest writes, against a clean twin.
func StaticScenarioAttack(initial KeySet, opts StaticAttackOptions, execOpts ...AttackOption) (StaticAttackResult, error) {
	return core.StaticAttack(initial, opts, execOpts...)
}
