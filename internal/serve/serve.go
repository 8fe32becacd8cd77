// Package serve is the goroutine-concurrent serving plane: N reader
// goroutines serve lock-free lookups off immutable index snapshots, each
// read carrying the snapshot it was queued with, while the single writer —
// the goroutine that called RunConcurrent — ingests the workload stream,
// injects poison, and drives index.Pipeline retrains in a true background
// goroutine.
//
// The package's contract is SCHEDULER EQUIVALENCE. The same scenario runs
// under two schedulers:
//
//   - the tick oracle (RunTick): everything inline on one goroutine, reads
//     served directly from the pipeline's read plane — the deterministic
//     golden reference, byte-compatible with the historical scenarios;
//   - the concurrent plane (RunConcurrent): reads batched to reader
//     goroutines against captured snapshots, epoch-end retrains running on
//     a background goroutine while the read backlog drains.
//
// Both must produce IDENTICAL per-epoch metrics — loss, probe totals,
// stale windows, full latency-histogram state — because the two executors
// share one scenario loop (identical pipeline call sequence), a captured
// snapshot answers probe-for-probe like the read plane it was captured from
// (the snapshot-immutability and probe-identity contracts of
// internal/index), and histogram/probe accounting is a commutative integer
// fold, invariant under the reader partition. TestConcurrentMatchesTickOracle
// pins this across every backend; the concurrent plane is therefore
// provably a scheduling change, not a semantic one (DESIGN.md §8).
//
// "Latency" throughout is the probe count — the machine-independent cost
// unit — so percentile cells are deterministic and CSV fingerprints hold
// across machines. Wall-clock throughput (ops/sec) is measured by callers
// (internal/bench) around RunConcurrent and reported separately, never
// fingerprinted.
package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"cdfpoison/internal/index"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/workload"
)

// Oracle computes a poison key sequence against the currently visible
// content. The scenario calls it once per epoch with the live key set and
// the epoch's budget; internal/bench injects the paper's greedy multi-point
// attack, tests inject cheap deterministic stand-ins.
type Oracle func(visible keys.Set, budget int) ([]int64, error)

// Options are the concurrent plane's knobs. The zero value is valid:
// Readers defaults to GOMAXPROCS, BatchSize to defaultBatchSize. Neither
// knob affects any metric — only wall-clock throughput (the worker-count
// equivalence the suite pins).
type Options struct {
	// Readers is the number of reader goroutines serving lookups.
	Readers int
	// BatchSize is how many reads the writer groups into one dispatch.
	BatchSize int
}

const defaultBatchSize = 64

// WithDefaults resolves the zero-value knobs to their documented defaults.
func (o Options) WithDefaults() Options {
	if o.Readers <= 0 {
		o.Readers = runtime.GOMAXPROCS(0)
	}
	if o.BatchSize <= 0 {
		o.BatchSize = defaultBatchSize
	}
	return o
}

// ScenarioOptions parameterizes one serving scenario: a workload stream
// served for Epochs epochs of OpsPerEpoch operations (one pipeline tick
// each), with EpochBudget poison keys per epoch drip-fed into the write
// plane, and an optional explicit retrain closing each epoch.
type ScenarioOptions struct {
	Epochs      int
	OpsPerEpoch int
	// EpochBudget is the attacker's poison-insert budget per epoch; 0 runs
	// the clean baseline (no oracle calls).
	EpochBudget int
	// Workload is the honest population's read/write mix.
	Workload workload.Spec
	// Domain bounds honest write keys: uniform over [0, Domain).
	Domain int64
	// Seed drives the workload stream (and nothing else).
	Seed uint64
	// Cost prices background rebuilds in pipeline ticks.
	Cost index.CostModel
	// ManualRetrain forces an explicit Retrain at each epoch end — the
	// maintenance cadence for Manual-policy and model-free backends.
	ManualRetrain bool
	// Oracle supplies poison keys; required when EpochBudget > 0.
	Oracle Oracle
}

func (o ScenarioOptions) validate() error {
	if o.Epochs < 1 {
		return fmt.Errorf("serve: need epochs >= 1, got %d", o.Epochs)
	}
	if o.OpsPerEpoch < 1 {
		return fmt.Errorf("serve: need ops/epoch >= 1, got %d", o.OpsPerEpoch)
	}
	if o.EpochBudget < 0 {
		return fmt.Errorf("serve: negative epoch budget %d", o.EpochBudget)
	}
	if o.EpochBudget > 0 && o.Oracle == nil {
		return fmt.Errorf("serve: epoch budget %d without an oracle", o.EpochBudget)
	}
	return nil
}

// EpochMetrics is one epoch's deterministic report. Every field is a pure
// function of (backend initial state, ScenarioOptions) — independent of
// scheduler, reader count, and batch size; the equivalence suite compares
// these structs across schedulers with reflect.DeepEqual.
type EpochMetrics struct {
	Epoch int

	// Operation counts: honest reads/writes served, poison inserts accepted.
	Reads    int
	Writes   int
	Injected int

	// StaleReads counts reads served while a rebuild was in flight (the
	// frozen-snapshot window); StaleFrac = StaleReads/Reads.
	StaleReads int
	StaleFrac  float64

	// Probe-latency distribution over this epoch's reads.
	ProbeTotal   int64
	MeanProbes   float64
	P50          int64
	P99          int64
	P999         int64
	MaxProbes    int64
	HistChecksum uint64 // full-distribution fingerprint (Histogram.Checksum)

	// ContentLoss is the victim model's loss against its full content at
	// epoch end — the paper's damage metric, feeding the loss-ratio cells.
	ContentLoss float64

	// Pipeline accounting, per epoch (deltas of the cumulative ChurnStats);
	// MaxLatencyTicks is cumulative (a worst-case is not an epoch quantity).
	Retrains        int
	Publishes       int
	Coalesced       int
	StaleTicks      int64
	MaxLatencyTicks int64
}

// executor abstracts the scheduler: how reads are served and how the
// epoch-end retrain runs. The driver loop is shared verbatim between the
// two implementations — that sharing IS the equivalence argument.
type executor interface {
	bind(p *index.Pipeline)
	// read serves one lookup from the read plane.
	read(key int64)
	// retrain runs (tick) or starts in the background (concurrent) the
	// epoch-end retrain.
	retrain()
	// flush drains all outstanding work — read batches, the background
	// retrain — merges the epoch's read accounting into h, and returns the
	// epoch's probe total. After flush the pipeline is quiescent again.
	flush(h *Histogram) int64
}

// runScenario is the single driver both schedulers execute: per epoch it
// plans poison against the visible content, drip-feeds it through the
// honest stream (one pipeline tick per honest op), closes with an optional
// explicit retrain, and snapshots the metrics. Executors only decide WHERE
// reads and retrains run, never WHAT runs.
func runScenario(ctx context.Context, b index.Backend, o ScenarioOptions, ex executor) ([]EpochMetrics, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	initial := b.Keys()
	gen, err := workload.NewGenerator(o.Workload, initial, o.Domain, o.Seed)
	if err != nil {
		return nil, err
	}
	pipe := index.NewPipeline(b, o.Cost)
	ex.bind(pipe)

	var (
		out          = make([]EpochMetrics, 0, o.Epochs)
		ops          []workload.Op
		hist         Histogram
		prev         index.ChurnStats
		prevRetrains int
	)
	for e := 0; e < o.Epochs; e++ {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		var poison []int64
		if o.EpochBudget > 0 {
			poison, err = o.Oracle(pipe.Keys(), o.EpochBudget)
			if err != nil {
				return out, fmt.Errorf("serve: poison oracle: %w", err)
			}
		}
		m := EpochMetrics{Epoch: e}
		inj := 0
		ops = gen.OpsInto(ops, o.OpsPerEpoch)
		for i, op := range ops {
			if i&63 == 0 && ctx.Err() != nil {
				ex.flush(&hist)
				return out, ctx.Err()
			}
			// Drip-feed the epoch's poison budget evenly through the stream.
			for inj < len(poison) && inj*o.OpsPerEpoch <= i*o.EpochBudget {
				if acc, _ := pipe.Insert(poison[inj]); acc {
					m.Injected++
				}
				inj++
			}
			pipe.Tick(1)
			if op.Read {
				m.Reads++
				if pipe.IsStale() {
					m.StaleReads++
				}
				ex.read(op.Key)
			} else {
				m.Writes++
				pipe.Insert(op.Key)
			}
		}
		if o.ManualRetrain {
			ex.retrain()
		}
		hist.Reset()
		m.ProbeTotal = ex.flush(&hist)

		st := pipe.Stats()
		cs := pipe.ChurnStats()
		m.ContentLoss = st.ContentLoss
		m.Retrains = st.Retrains - prevRetrains
		prevRetrains = st.Retrains
		m.Publishes = cs.Publishes - prev.Publishes
		m.Coalesced = cs.Coalesced - prev.Coalesced
		m.StaleTicks = cs.StaleTicks - prev.StaleTicks
		m.MaxLatencyTicks = cs.MaxLatencyTicks
		prev = cs
		if m.Reads > 0 {
			m.StaleFrac = float64(m.StaleReads) / float64(m.Reads)
		}
		m.MeanProbes = hist.Mean()
		m.P50 = hist.Percentile(50)
		m.P99 = hist.Percentile(99)
		m.P999 = hist.Percentile(99.9)
		m.MaxProbes = hist.Max()
		m.HistChecksum = hist.Checksum()
		out = append(out, m)
	}
	return out, nil
}

// RunTick runs the scenario under the tick oracle: fully inline,
// sequential, deterministic — the golden reference the concurrent plane is
// pinned against.
func RunTick(b index.Backend, o ScenarioOptions) ([]EpochMetrics, error) {
	return runScenario(context.Background(), b, o, &tickExec{})
}

// tickExec serves reads inline from the pipeline's read plane.
type tickExec struct {
	pipe   *index.Pipeline
	probes int64
	hist   Histogram
}

func (e *tickExec) bind(p *index.Pipeline) { e.pipe = p }

func (e *tickExec) read(key int64) {
	r := e.pipe.Lookup(key)
	e.probes += int64(r.Probes)
	e.hist.Record(int64(r.Probes))
}

func (e *tickExec) retrain() { e.pipe.Retrain() }

func (e *tickExec) flush(h *Histogram) int64 {
	h.Merge(&e.hist)
	p := e.probes
	e.hist.Reset()
	e.probes = 0
	return p
}

// RunConcurrent runs the scenario on the concurrent plane: the calling
// goroutine is the writer — it drives the scenario, queueing each read with
// the snapshot it must be served from for the plane's reader goroutines,
// and runs each epoch-end retrain on a background goroutine. Metrics are
// identical to RunTick's for the same backend and options. The knobs in
// popts are first bounded by what one epoch can use: a batch holds at most
// OpsPerEpoch reads, and readers never outnumber the epoch's batches.
// Cancellation via ctx returns the epochs completed so far with ctx's
// error; every goroutine the plane started is drained and joined before
// return.
func RunConcurrent(ctx context.Context, b index.Backend, o ScenarioOptions, popts Options) ([]EpochMetrics, error) {
	plane := NewPlane(popts.ForEpoch(o.OpsPerEpoch))
	defer plane.Close()
	return runScenario(ctx, b, o, &concExec{plane: plane})
}

// ForEpoch resolves the defaults and bounds the knobs by what an epoch of
// opsPerEpoch operations can use: a batch never holds more than the
// epoch's reads, and readers past the epoch's batch count would never get
// work. It is the plane shape RunConcurrent runs, so reports that echo the
// shape call it too.
func (o Options) ForEpoch(opsPerEpoch int) Options {
	o = o.WithDefaults()
	ops := max(opsPerEpoch, 1)
	o.BatchSize = min(o.BatchSize, ops)
	o.Readers = min(o.Readers, (ops-1)/o.BatchSize+1)
	return o
}

// task is one read bound to the snapshot it must be served from. The task
// keeps that snapshot alive until the read is served; the garbage collector
// retires it once nothing points at it.
type task struct {
	snap index.Snapshot
	key  int64
}

// readerAcc is one reader goroutine's private accounting, merged by the
// writer at epoch flush (after the batch barrier, so no synchronization
// beyond the WaitGroup is needed).
type readerAcc struct {
	probes int64
	hist   Histogram
}

// Plane owns the concurrent machinery: the reader goroutines and the one
// work queue they drain. Create with NewPlane, dispose with Close
// (idempotent); Close drains and joins every reader — Goroutines() reports
// 0 after.
type Plane struct {
	opts Options
	work chan []task
	free chan []task
	acc  []readerAcc

	wg      sync.WaitGroup // reader goroutines
	batchWG sync.WaitGroup // outstanding read batches
	alive   atomic.Int64   // live reader count, for the leak tests
	once    sync.Once
}

// NewPlane starts the reader goroutines.
func NewPlane(opts Options) *Plane {
	opts = opts.WithDefaults()
	p := &Plane{
		opts: opts,
		// Room for two batches per reader lets the writer queue the
		// readers' next batches while they serve their current ones.
		work: make(chan []task, 2*opts.Readers),
		// The buffer pool holds every batch that can be queued, served or
		// filled at once, so the steady state allocates none.
		free: make(chan []task, 4*opts.Readers),
		acc:  make([]readerAcc, opts.Readers),
	}
	p.wg.Add(opts.Readers)
	p.alive.Add(int64(opts.Readers))
	for i := range p.acc {
		go p.reader(&p.acc[i])
	}
	return p
}

// reader drains the work queue: look each task's key up in its snapshot
// and account the probes locally.
func (p *Plane) reader(acc *readerAcc) {
	defer p.wg.Done()
	defer p.alive.Add(-1)
	for b := range p.work {
		for _, t := range b {
			r := t.snap.Lookup(t.key)
			acc.probes += int64(r.Probes)
			acc.hist.Record(int64(r.Probes))
		}
		p.putBuf(b)
		p.batchWG.Done()
	}
}

// Close shuts the plane down: the work queue closes, readers drain the
// backlog, every reader joins. Idempotent.
func (p *Plane) Close() {
	p.once.Do(func() {
		close(p.work)
		p.wg.Wait()
	})
}

// Goroutines reports the plane's live reader count (0 after Close) — the
// leak witness the clean-shutdown test asserts on.
func (p *Plane) Goroutines() int64 { return p.alive.Load() }

func (p *Plane) getBuf() []task {
	select {
	case b := <-p.free:
		return b[:0]
	default:
		return make([]task, 0, p.opts.BatchSize)
	}
}

func (p *Plane) putBuf(b []task) {
	select {
	case p.free <- b:
	default:
	}
}

// concExec dispatches the shared driver's reads and retrains onto a Plane.
type concExec struct {
	plane *Plane
	pipe  *index.Pipeline

	snap       index.Snapshot
	lastRev    uint64
	batch      []task
	retraining sync.WaitGroup // the epoch's background retrain
}

func (e *concExec) bind(p *index.Pipeline) {
	e.pipe = p
	e.batch = e.plane.getBuf()
}

// read queues the lookup with the current read-plane snapshot, re-captured
// only when the pipeline's ReadRevision moved.
func (e *concExec) read(key int64) {
	if rev := e.pipe.ReadRevision(); e.snap == nil || rev != e.lastRev {
		e.snap = e.pipe.Snapshot()
		e.lastRev = rev
	}
	e.batch = append(e.batch, task{snap: e.snap, key: key})
	if len(e.batch) >= e.plane.opts.BatchSize {
		e.send()
	}
}

func (e *concExec) send() {
	if len(e.batch) == 0 {
		return
	}
	e.plane.batchWG.Add(1)
	e.plane.work <- e.batch
	e.batch = e.plane.getBuf()
}

// retrain runs the pipeline's maintenance step on a background goroutine.
// The scenario loop's next pipeline interaction goes through flush, which
// joins it — single-writer discipline is preserved while already-dispatched
// read batches drain concurrently with the rebuild.
func (e *concExec) retrain() {
	e.retraining.Add(1)
	go func() {
		defer e.retraining.Done()
		e.pipe.Retrain()
	}()
}

// flush is the epoch barrier: dispatch the partial batch, wait for every
// read batch to drain, join the background retrain, then fold the readers'
// private accounting (a commutative integer merge — any reader partition
// yields identical bytes). The next epoch captures a fresh snapshot.
func (e *concExec) flush(h *Histogram) int64 {
	e.send()
	e.plane.batchWG.Wait()
	e.retraining.Wait()
	var probes int64
	for i := range e.plane.acc {
		acc := &e.plane.acc[i]
		probes += acc.probes
		h.Merge(&acc.hist)
		acc.probes = 0
		acc.hist.Reset()
	}
	e.snap = nil
	return probes
}
