package main

// Outside-in tracing. Nothing inside the program is instrumented: every
// span is recorded here, by decorators around the values the benchmark
// passes in (index.Backend, index.Snapshot, serve.Oracle, dynamic.FitFunc)
// and by timers around the benchmark's own direct calls.
//
// Writer-path spans are strictly nested and never overlap: the serving
// driver calls the backend from one goroutine at a time (the background
// retrainer runs while the writer waits on it), so one span stack is
// enough, and a span's self time is its duration minus its children's.
// Reader-side lookups run on several goroutines at once; they are counted
// exactly and timed on a 1-in-64 sample.

import (
	"context"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"cdfpoison/internal/dynamic"
	"cdfpoison/internal/engine"
	"cdfpoison/internal/index"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/regression"
)

// Writer-path categories: every span's self time lands in exactly one, and
// together with the residual they make up an epoch's wall time.
const (
	catOracle   = "oracle"
	catInsert   = "insert"
	catRetrain  = "retrain"
	catSnapshot = "snapshot"
	catKeys     = "keys"
	catGuard    = "guard"
	catFit      = "fit"
)

var writerCategories = []string{catOracle, catInsert, catRetrain, catSnapshot, catKeys, catGuard, catFit}

// spanCategory maps a span name to its writer-path category ("" for spans
// off the serving writer path, such as the attack-eval timers).
var spanCategory = map[string]string{
	"core.oracle":      catOracle,
	"core.greedy":      catOracle,
	"shard.insert":     catInsert,
	"shard.retrain":    catRetrain,
	"shard.snapshot":   catSnapshot,
	"defense.snapshot": catSnapshot,
	"shard.keys":       catKeys,
	"defense.keys":     catKeys,
	"defense.insert":   catGuard,
	"defense.retrain":  catGuard,
	"robust.fit":       catFit,
}

type frame struct {
	name  string
	start time.Time
	child time.Duration
}

// spanStat accumulates one span name: calls, inclusive and self time, and
// (for the names whose percentiles are reported) every duration.
type spanStat struct {
	calls       int
	total, self time.Duration
	durs        []time.Duration
}

// epochSplit is one serving epoch's wall time (oracle call to next oracle
// call) and the self time of each writer-path category inside it.
type epochSplit struct {
	wall time.Duration
	self map[string]time.Duration
}

// tracer records spans and counters. A nil *tracer records nothing, so the
// untraced path runs the same code with no decorators and no timers.
type tracer struct {
	active bool // inside a measured session or cell
	stack  []frame
	spans  map[string]*spanStat
	counts map[string]int

	epochOpen  bool
	epochStart time.Time
	epochSelf  map[string]time.Duration
	epochs     []epochSplit

	reads readerStats
}

func newTracer() *tracer {
	return &tracer{spans: map[string]*spanStat{}, counts: map[string]int{}}
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	t.stack = append(t.stack, frame{name: name, start: time.Now()})
}

// end closes the innermost span, renaming it (a shard Insert that tripped
// a retrain is recorded as a retrain).
func (t *tracer) end(name string) {
	if t == nil {
		return
	}
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := time.Since(f.start)
	if len(t.stack) > 0 {
		t.stack[len(t.stack)-1].child += d
	}
	if !t.active {
		return
	}
	st := t.spans[name]
	if st == nil {
		st = &spanStat{}
		t.spans[name] = st
	}
	st.calls++
	st.total += d
	st.self += d - f.child
	if quantiled[name] {
		st.durs = append(st.durs, d)
	}
	if cat := spanCategory[name]; cat != "" && t.epochOpen {
		t.epochSelf[cat] += d - f.child
	}
}

// quantiled names the spans whose every duration is kept for percentiles.
var quantiled = map[string]bool{
	"core.greedy": true, "core.rmi_attack": true, "core.oracle": true,
	"dynamic.build": true, "rmi.build": true,
	"dynamic.eval": true, "rmi.eval": true,
}

// parent returns the name of the innermost open span ("" when none).
func (t *tracer) parent() string {
	if len(t.stack) == 0 {
		return ""
	}
	return t.stack[len(t.stack)-1].name
}

// count adds to a counter while a session or cell is being measured.
func (t *tracer) count(name string, n int) {
	if t == nil || !t.active {
		return
	}
	t.counts[name] += n
}

func (t *tracer) startSession() {
	if t == nil {
		return
	}
	t.active = true
	t.epochOpen = false
}

// epochBoundary closes the open epoch (if any) at now and opens the next.
func (t *tracer) epochBoundary(now time.Time) {
	if t == nil {
		return
	}
	t.closeEpoch(now)
	t.epochOpen = true
	t.epochStart = now
	t.epochSelf = map[string]time.Duration{}
}

func (t *tracer) closeEpoch(now time.Time) {
	if t.epochOpen {
		t.epochs = append(t.epochs, epochSplit{wall: now.Sub(t.epochStart), self: t.epochSelf})
		t.epochOpen = false
	}
}

func (t *tracer) endSession(now time.Time) {
	if t == nil {
		return
	}
	t.closeEpoch(now)
	t.active = false
}

func (t *tracer) stat(name string) *spanStat {
	if st := t.spans[name]; st != nil {
		return st
	}
	return &spanStat{}
}

// readerStats is the reader-side accounting, striped so concurrent readers
// rarely share a cache line.
type readerStats struct {
	slots [8]struct {
		lookups, sampled, ns atomic.Int64
		_                    [40]byte
	}
}

// sampleMask sets the reader timing sample rate: one lookup in 64.
const sampleMask = 63

func (r *readerStats) totals() (lookups, sampled, ns int64) {
	for i := range r.slots {
		s := &r.slots[i]
		lookups += s.lookups.Load()
		sampled += s.sampled.Load()
		ns += s.ns.Load()
	}
	return lookups, sampled, ns
}

// tracedBackend decorates a Backend: Insert, Retrain, Snapshot and Keys
// are spans named layer+"."+method; the other methods forward untimed.
// When wrapSnaps is set, the snapshots it hands out are decorated too (set
// only on the innermost layer, so each read is counted once).
type tracedBackend struct {
	inner     index.Backend
	layer     string
	t         *tracer
	wrapSnaps bool
}

func (d *tracedBackend) Insert(k int64) (accepted, retrained bool) {
	d.t.begin(d.layer + ".insert")
	accepted, retrained = d.inner.Insert(k)
	name := d.layer + ".insert"
	if retrained && d.layer == "shard" {
		name = "shard.retrain"
		d.t.count("shard.retrain_keys", d.rebuildSize())
	}
	d.t.end(name)
	return accepted, retrained
}

func (d *tracedBackend) rebuildSize() int {
	if rs, ok := d.inner.(index.RebuildSizer); ok {
		return rs.LastRebuildSize()
	}
	return d.inner.Len()
}

func (d *tracedBackend) Retrain() {
	d.t.begin(d.layer + ".retrain")
	d.inner.Retrain()
	if d.layer == "shard" {
		d.t.count("shard.retrain_keys", d.rebuildSize())
	}
	d.t.end(d.layer + ".retrain")
}

func (d *tracedBackend) retrainParallel(ctx context.Context, pool *engine.Pool) error {
	d.t.begin(d.layer + ".retrain")
	err := d.inner.(index.ParallelRetrainer).RetrainParallel(ctx, pool)
	if d.layer == "shard" {
		d.t.count("shard.retrain_keys", d.rebuildSize())
	}
	d.t.end(d.layer + ".retrain")
	return err
}

func (d *tracedBackend) Snapshot() index.Snapshot {
	d.t.begin(d.layer + ".snapshot")
	s := d.inner.Snapshot()
	if d.wrapSnaps {
		s = wrapSnapshot(s, &d.t.reads)
	}
	d.t.end(d.layer + ".snapshot")
	return s
}

func (d *tracedBackend) Keys() keys.Set {
	if d.layer == "shard" && d.t.parent() == "defense.insert" {
		d.t.count("defense.content_rebuilds", 1)
	}
	d.t.begin(d.layer + ".keys")
	ks := d.inner.Keys()
	d.t.end(d.layer + ".keys")
	return ks
}

func (d *tracedBackend) Lookup(k int64) index.LookupResult { return d.inner.Lookup(k) }
func (d *tracedBackend) ProbeSum(q []int64) (int64, int)   { return d.inner.ProbeSum(q) }
func (d *tracedBackend) Len() int                          { return d.inner.Len() }
func (d *tracedBackend) Stats() index.Stats                { return d.inner.Stats() }

// parFace adapts the traced parallel retrain to index.ParallelRetrainer.
type parFace struct{ d *tracedBackend }

func (f parFace) RetrainParallel(ctx context.Context, pool *engine.Pool) error {
	return f.d.retrainParallel(ctx, pool)
}

// wrapBackend decorates b so that the result implements each optional face
// the index pipeline type-asserts (BatchReader, ParallelRetrainer,
// RebuildSizer, TriggerPredictor) exactly when b does: hiding
// TriggerPredictor would make the pipeline snapshot before every write,
// hiding RebuildSizer would price rebuilds at Len().
func wrapBackend(b index.Backend, layer string, t *tracer, wrapSnaps bool) index.Backend {
	d := &tracedBackend{inner: b, layer: layer, t: t, wrapSnaps: wrapSnaps}
	br, hasBR := b.(index.BatchReader)
	_, hasPR := b.(index.ParallelRetrainer)
	rs, hasRS := b.(index.RebuildSizer)
	tp, hasTP := b.(index.TriggerPredictor)
	pr := parFace{d}
	type (
		B  = index.Backend
		BR = index.BatchReader
		PR = index.ParallelRetrainer
		RS = index.RebuildSizer
		TP = index.TriggerPredictor
	)
	switch [4]bool{hasBR, hasPR, hasRS, hasTP} {
	case [4]bool{false, false, false, false}:
		return d
	case [4]bool{true, false, false, false}:
		return struct {
			B
			BR
		}{d, br}
	case [4]bool{false, true, false, false}:
		return struct {
			B
			PR
		}{d, pr}
	case [4]bool{true, true, false, false}:
		return struct {
			B
			BR
			PR
		}{d, br, pr}
	case [4]bool{false, false, true, false}:
		return struct {
			B
			RS
		}{d, rs}
	case [4]bool{true, false, true, false}:
		return struct {
			B
			BR
			RS
		}{d, br, rs}
	case [4]bool{false, true, true, false}:
		return struct {
			B
			PR
			RS
		}{d, pr, rs}
	case [4]bool{true, true, true, false}:
		return struct {
			B
			BR
			PR
			RS
		}{d, br, pr, rs}
	case [4]bool{false, false, false, true}:
		return struct {
			B
			TP
		}{d, tp}
	case [4]bool{true, false, false, true}:
		return struct {
			B
			BR
			TP
		}{d, br, tp}
	case [4]bool{false, true, false, true}:
		return struct {
			B
			PR
			TP
		}{d, pr, tp}
	case [4]bool{true, true, false, true}:
		return struct {
			B
			BR
			PR
			TP
		}{d, br, pr, tp}
	case [4]bool{false, false, true, true}:
		return struct {
			B
			RS
			TP
		}{d, rs, tp}
	case [4]bool{true, false, true, true}:
		return struct {
			B
			BR
			RS
			TP
		}{d, br, rs, tp}
	case [4]bool{false, true, true, true}:
		return struct {
			B
			PR
			RS
			TP
		}{d, pr, rs, tp}
	default:
		return struct {
			B
			BR
			PR
			RS
			TP
		}{d, br, pr, rs, tp}
	}
}

// tracedSnapshot decorates a published snapshot: every Lookup is counted,
// one in 64 is timed.
type tracedSnapshot struct {
	inner index.Snapshot
	r     *readerStats
}

func (s *tracedSnapshot) Lookup(k int64) index.LookupResult {
	x := rand.Uint32()
	slot := &s.r.slots[x&7]
	slot.lookups.Add(1)
	if (x>>3)&sampleMask != 0 {
		return s.inner.Lookup(k)
	}
	start := time.Now()
	res := s.inner.Lookup(k)
	slot.ns.Add(int64(time.Since(start)))
	slot.sampled.Add(1)
	return res
}

func (s *tracedSnapshot) ProbeSum(q []int64) (int64, int) { return s.inner.ProbeSum(q) }
func (s *tracedSnapshot) Len() int                        { return s.inner.Len() }
func (s *tracedSnapshot) Keys() keys.Set                  { return s.inner.Keys() }

// wrapSnapshot decorates s, forwarding index.BatchReader exactly when s
// implements it. Snapshots are the read plane only: BatchReader is the one
// optional face anything type-asserts on them (the pipeline's stale-window
// batch path), so it is the one the decorator must preserve.
func wrapSnapshot(s index.Snapshot, r *readerStats) index.Snapshot {
	d := &tracedSnapshot{inner: s, r: r}
	if br, ok := s.(index.BatchReader); ok {
		return struct {
			index.Snapshot
			index.BatchReader
		}{d, br}
	}
	return d
}

// tracedFit decorates a shard trainer: every fit is a robust.fit span.
func tracedFit(fit dynamic.FitFunc, t *tracer) dynamic.FitFunc {
	return func(ks keys.Set) (regression.Model, error) {
		t.begin("robust.fit")
		m, err := fit(ks)
		t.count("robust.fit_keys", ks.Len())
		t.end("robust.fit")
		return m, err
	}
}
