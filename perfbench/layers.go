package main

import (
	"fmt"
	"sort"
	"time"
)

// reconcileReport splits the traced writer path: each category's share of
// the summed epoch wall time, the residual share (Pipeline, driver, flush
// wait: wall time no span covers), and the worst epoch's overshoot of its
// wall time by the spans, which must stay within Tolerance.
type reconcileReport struct {
	Epochs    int                `json:"epochs"`
	WallMs    float64            `json:"wall_ms"`
	Shares    map[string]float64 `json:"shares"`
	Residual  float64            `json:"residual_share"`
	ExcessMax float64            `json:"excess_max"`
	Tolerance float64            `json:"tolerance"`
}

func reconcile(t *tracer) *reconcileReport {
	r := &reconcileReport{Epochs: len(t.epochs), Shares: map[string]float64{}, Tolerance: reconcileTol}
	var wall time.Duration
	cats := map[string]time.Duration{}
	for _, e := range t.epochs {
		wall += e.wall
		var covered time.Duration
		for c, d := range e.self {
			cats[c] += d
			covered += d
		}
		if x := float64(covered-e.wall) / float64(e.wall); x > r.ExcessMax {
			r.ExcessMax = x
		}
	}
	r.WallMs = ms(wall)
	if wall == 0 {
		return r
	}
	r.Residual = 1
	for _, c := range writerCategories {
		s := float64(cats[c]) / float64(wall)
		r.Shares[c] = s
		r.Residual -= s
	}
	return r
}

// layers fills the per-layer metrics of a traced run. Counts are per unit
// (per cell or per session), so they do not depend on the run's length.
// Layers a workload does not exercise read 0.
func layers(m map[string]metric, t *tracer, units []unitResult, genNsPerOp float64) *reconcileReport {
	per := float64(len(units))
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	p50ms := func(span string) float64 {
		var xs []float64
		for _, d := range t.stat(span).durs {
			xs = append(xs, ms(d))
		}
		return quantile(xs, 0.5)
	}
	meanNs := func(span string) float64 {
		st := t.stat(span)
		return div(float64(st.total.Nanoseconds()), float64(st.calls))
	}
	calls := func(span string) float64 { return float64(t.stat(span).calls) }
	c := func(name string) float64 { return float64(t.counts[name]) }

	set("core.greedy_ms_p50", "ms", p50ms("core.greedy"))
	set("core.greedy_block_visit_frac", "frac", div(c("core.greedy_blocks_visited"), c("core.greedy_blocks_total")))
	set("core.greedy_candidates_per_key", "count", div(c("core.greedy_candidates"), c("core.greedy_key_steps")))
	set("core.rmi_attack_ms_p50", "ms", p50ms("core.rmi_attack"))
	set("core.rmi_moves", "count", div(c("core.rmi_moves"), c("core.rmi_attacks")))
	set("dynamic.build_ms", "ms", p50ms("dynamic.build"))
	set("dynamic.eval_ns_per_key", "ns", div(float64(t.stat("dynamic.eval").total.Nanoseconds()), c("dynamic.eval_keys")))
	set("rmi.build_ms", "ms", p50ms("rmi.build"))
	set("rmi.eval_ns_per_key", "ns", div(float64(t.stat("rmi.eval").total.Nanoseconds()), c("rmi.eval_keys")))
	set("core.oracle_ms_p50", "ms", p50ms("core.oracle"))

	lookups, sampled, ns := t.reads.totals()
	set("serve.read_ns_mean", "ns", div(float64(ns), float64(sampled)))
	set("serve.reads", "count", float64(lookups)/per)
	set("serve.stale_frac", "frac", div(c("serve.stale_reads"), c("serve.reads")))

	set("shard.snapshot_us_mean", "us", meanNs("shard.snapshot")/1e3)
	set("shard.snapshot_calls", "count", calls("shard.snapshot")/per)
	set("shard.insert_ns_mean", "ns", meanNs("shard.insert"))
	set("shard.insert_calls", "count", calls("shard.insert")/per)
	set("shard.retrain_ms_mean", "ms", meanNs("shard.retrain")/1e6)
	set("shard.retrain_calls", "count", calls("shard.retrain")/per)
	set("shard.retrain_keys", "count", c("shard.retrain_keys")/per)
	set("shard.keys_ms_mean", "ms", meanNs("shard.keys")/1e6)
	set("shard.keys_calls", "count", calls("shard.keys")/per)

	guard := t.stat("defense.insert")
	set("defense.insert_self_ns_mean", "ns", div(float64(guard.self.Nanoseconds()), float64(guard.calls)))
	set("defense.content_rebuilds", "count", c("defense.content_rebuilds")/per)
	set("defense.flagged_frac", "frac", div(c("defense.flagged"), float64(guard.calls)))

	set("robust.fit_ms_mean", "ms", meanNs("robust.fit")/1e6)
	set("robust.fit_calls", "count", calls("robust.fit")/per)
	set("robust.fit_keys_mean", "count", div(c("robust.fit_keys"), calls("robust.fit")))

	set("workload.gen_ns_per_op", "ns", genNsPerOp)

	rec := reconcile(t)
	set("core.oracle_share", "frac", rec.Shares[catOracle])
	set("writer.insert_share", "frac", rec.Shares[catInsert])
	set("writer.retrain_share", "frac", rec.Shares[catRetrain])
	set("writer.snapshot_share", "frac", rec.Shares[catSnapshot])
	set("writer.keys_share", "frac", rec.Shares[catKeys])
	set("writer.guard_share", "frac", rec.Shares[catGuard])
	set("writer.fit_share", "frac", rec.Shares[catFit])
	set("index.residual_share", "frac", rec.Residual)
	set("trace.reconcile_excess_max", "frac", rec.ExcessMax)
	return rec
}

// traceChecks verifies the traced run itself: the reader decorator counted
// exactly the reads the sessions report, and the writer-path spans fit
// inside every epoch's wall time within the stated tolerance.
func traceChecks(t *tracer, rec *reconcileReport) []check {
	var out []check
	lookups, _, _ := t.reads.totals()
	var err error
	if lookups != int64(t.counts["serve.reads"]) {
		err = fmt.Errorf("snapshot decorator counted %d lookups, sessions report %d reads", lookups, t.counts["serve.reads"])
	}
	out = append(out, check{"traced-read-count", err})
	err = nil
	if rec.ExcessMax > rec.Tolerance {
		err = fmt.Errorf("writer-path spans exceed epoch wall time by %.3f (tolerance %.3f)", rec.ExcessMax, rec.Tolerance)
	}
	return append(out, check{"reconcile", err})
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
