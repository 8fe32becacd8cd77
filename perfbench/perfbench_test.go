package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"cdfpoison/internal/btree"
	"cdfpoison/internal/dataset"
	"cdfpoison/internal/dynamic"
	"cdfpoison/internal/index"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/rmi"
	"cdfpoison/internal/shard"
	"cdfpoison/internal/xrand"
)

var workloadNames = []string{"attack-eval", "serve-read-heavy", "ingest-defended"}

// tinyConfig shrinks every workload so one run takes well under a second.
func tinyConfig(workload string, trace bool) config {
	cfg := defaultConfig()
	cfg.workload = workload
	cfg.seed = 7
	cfg.seconds = 0.05
	cfg.trace = trace
	cfg.setups = 2
	cfg.attack = attackSpec{N: 2_000, P: 10, RMIN: 1_000, RMIModels: 5, RMIPct: 1, Alpha: 3}
	cfg.serveReadHeavy = serveSpec{N: 2_000, Shards: 4, BufferK: 32, Mix: "zipf:1.1:95",
		Epochs: 2, OpsPerEpoch: 500, Budget: 5, Cost: "fixed:50", Variants: 2}
	cfg.ingestDefended = serveSpec{N: 1_000, Shards: 4, BufferK: 16, Mix: "uniform:20",
		Epochs: 2, OpsPerEpoch: 200, Budget: 10, Cost: "linear:10:25:100",
		Chain: "density:8:3|dupmass:3:3", TrimPct: 10, Variants: 2}
	return cfg
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	for _, c := range []struct {
		what string
		got  []entry
		want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: %d metrics, want %d", c.what, len(c.got), len(c.want))
		}
		for i, d := range c.want {
			if c.got[i].Name != d.name || c.got[i].Unit != d.unit {
				t.Errorf("%s[%d] = %s/%s, want %s/%s", c.what, i, c.got[i].Name, c.got[i].Unit, d.name, d.unit)
			}
		}
	}
}

// TestTinyRunsEmitEveryMetric is the self-test: every workload, untraced
// and traced, verifies clean and emits every named metric with its unit.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			res, rep, err := execute(tinyConfig(w, traced))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Errorf("%s trace=%v: correct=%v failed=%d/%d checks=%+v", w, traced, res.Correct, res.Failed, res.Attempted, rep.Checks)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w, traced, d.name, m, d.unit)
				}
				if !traced && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.name, m.Value)
				}
			}
			if v := res.Metrics["verified_frac"].Value; !traced && v != 1 {
				t.Errorf("%s: verified_frac = %v, want 1", w, v)
			}
		}
	}
}

// TestCorruptedOutputIsCounted proves the checks can fail: one corrupted
// output (a flipped poison key, a perturbed probe total) fails its unit.
func TestCorruptedOutputIsCounted(t *testing.T) {
	for _, w := range workloadNames {
		cfg := tinyConfig(w, false)
		cfg.corrupt = true
		res, _, err := execute(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed != 1 || res.Metrics["verified_frac"].Value >= 1 {
			t.Errorf("%s: corrupted run: correct=%v failed=%d verified_frac=%v", w, res.Correct, res.Failed, res.Metrics["verified_frac"].Value)
		}
	}
}

func TestVerifiersRejectCorruption(t *testing.T) {
	b := &attackBench{spec: tinyConfig("attack-eval", false).attack, workers: 2, seed: 3}
	if err := b.setup(); err != nil {
		t.Fatal(err)
	}
	out, err := b.cell(kindUniform, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.verifyCell(kindUniform, out); err != nil {
		t.Fatalf("clean cell rejected: %v", err)
	}
	legit := b.big[kindUniform]
	flips := map[string]func(c *cellOut){
		"poison key is legit":     func(c *cellOut) { c.Greedy.Poison[0] = legit.At(1) },
		"poison key out of range": func(c *cellOut) { c.Greedy.Poison[0] = legit.Max() + 1 },
		"poison key duplicated":   func(c *cellOut) { c.Greedy.Poison[1] = c.Greedy.Poison[0] },
		"final loss off":          func(c *cellOut) { c.Greedy.Trajectory[len(c.Greedy.Trajectory)-1] *= 1 + 1e-8 },
		"rmi injected miscounted": func(c *cellOut) { c.RMI.Injected++ },
		"rmi poison is legit": func(c *cellOut) {
			c.RMI.Poison = c.RMI.Poison.Union(keys.FromSorted([]int64{b.small[kindUniform].At(0)}))
		},
		"victim lost a legit key":  func(c *cellOut) { c.DynMissing = 1 },
		"rmi victim lost a key":    func(c *cellOut) { c.RMIMiss = 1 },
		"greedy poison truncated":  func(c *cellOut) { c.Greedy.Poison = c.Greedy.Poison[:len(c.Greedy.Poison)-1] },
		"poisoned set wrong size ": func(c *cellOut) { c.Greedy.Poisoned = legit },
	}
	for name, flip := range flips {
		c := out
		c.Greedy.Poison = append([]int64(nil), out.Greedy.Poison...)
		c.Greedy.Trajectory = append([]float64(nil), out.Greedy.Trajectory...)
		flip(&c)
		if err := b.verifyCell(kindUniform, c); err == nil {
			t.Errorf("%s: verifier accepted the corrupted cell", name)
		}
	}
}

// TestTracedEpochMetricsEqualUntraced: the decorators change no metric the
// serving plane reports, on both serving workloads.
func TestTracedEpochMetricsEqualUntraced(t *testing.T) {
	for _, w := range workloadNames[1:] {
		bb, _, _, _, err := newBench(tinyConfig(w, true))
		if err != nil {
			t.Fatal(err)
		}
		b := bb.(*serveBench)
		if err := b.setup(); err != nil {
			t.Fatal(err)
		}
		v := &b.variants[0]
		plainV, _, err := b.victim(v.initial, nil)
		if err != nil {
			t.Fatal(err)
		}
		plain, _, _, err := b.session(v, plainV, nil)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		tracedV, _, err := b.victim(v.initial, tr)
		if err != nil {
			t.Fatal(err)
		}
		traced, _, _, err := b.session(v, tracedV, tr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, traced) {
			t.Errorf("%s: traced epoch metrics differ:\n%+v\n%+v", w, plain, traced)
		}
		if len(tr.epochs) != b.spec.Epochs || tr.stat("shard.insert").calls == 0 {
			t.Errorf("%s: traced %d epochs, %d shard inserts", w, len(tr.epochs), tr.stat("shard.insert").calls)
		}
	}
}

// faces reports which optional faces v implements.
func faces(v any) [4]bool {
	_, br := v.(index.BatchReader)
	_, pr := v.(index.ParallelRetrainer)
	_, rs := v.(index.RebuildSizer)
	_, tp := v.(index.TriggerPredictor)
	return [4]bool{br, pr, rs, tp}
}

// bareBackend implements index.Backend and no optional face.
type bareBackend struct{ index.Backend }

type sizerOnly struct{ bareBackend }

func (sizerOnly) LastRebuildSize() int { return 1 }

func TestDecoratorForwardsExactlyTheWrappedFaces(t *testing.T) {
	ks, err := dataset.Uniform(xrand.New(1), 400, 40_000)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := dynamic.New(ks, dynamic.BufferLimit(8))
	if err != nil {
		t.Fatal(err)
	}
	sh, err := shard.New(ks, 4, dynamic.BufferLimit(8))
	if err != nil {
		t.Fatal(err)
	}
	single, err := rmi.NewSingle(ks)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := btree.New(8)
	if err != nil {
		t.Fatal(err)
	}
	backends := map[string]index.Backend{
		"dynamic": dyn, "shard": sh, "rmi.Single": single, "btree": tree,
		"pipeline": index.NewPipeline(sh, index.CostModel{Fixed: 5}),
		"bare":     bareBackend{dyn}, "sizer-only": sizerOnly{bareBackend{dyn}},
	}
	tr := newTracer()
	seen := map[[4]bool]bool{}
	for name, b := range backends {
		w := wrapBackend(b, "shard", tr, true)
		if faces(w) != faces(b) {
			t.Errorf("%s: decorator faces %v, wrapped %v", name, faces(w), faces(b))
		}
		seen[faces(b)] = true
		s := b.Snapshot()
		_, sbr := s.(index.BatchReader)
		_, wbr := w.Snapshot().(index.BatchReader)
		if sbr != wbr {
			t.Errorf("%s: snapshot decorator BatchReader %v, wrapped %v", name, wbr, sbr)
		}
	}
	if len(seen) < 5 {
		t.Errorf("only %d distinct face sets exercised", len(seen))
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Errorf("exit %d, stdout %q", code, out.String())
	}
	if !strings.Contains(errOut.String(), "unknown workload") {
		t.Errorf("stderr %q", errOut.String())
	}
}
