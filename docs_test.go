package cdfpoison_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdRef matches Markdown-file references in Go source comments
// ("DESIGN.md", "EXPERIMENTS.md §3", "see README.md", …).
var mdRef = regexp.MustCompile(`\b([A-Za-z][A-Za-z0-9_-]*\.md)\b`)

// TestDocsReferencesExist is the docs gate: every .md file referenced from
// a *.go comment must exist at the repository root. This is what rotted
// for two PRs — code cited DESIGN.md and EXPERIMENTS.md before they were
// written — and what this gate makes impossible from now on.
func TestDocsReferencesExist(t *testing.T) {
	refs := map[string][]string{} // md file -> referencing go files
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range mdRef.FindAllStringSubmatch(string(data), -1) {
			if !contains(refs[m[1]], path) {
				refs[m[1]] = append(refs[m[1]], path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) == 0 {
		t.Fatal("no .md references found in any .go file — the scanner is broken")
	}
	for md, sources := range refs {
		if _, err := os.Stat(md); err != nil {
			t.Errorf("%s is referenced from %v but does not exist at the repo root", md, sources)
		}
	}
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// TestDocsCoverCitedSections: references from code point at specific
// sections; renaming or dropping those sections must fail here, not rot
// silently.
func TestDocsCoverCitedSections(t *testing.T) {
	for file, sections := range map[string][]string{
		// cmd/lisbench/main.go and bench_test.go cite §3 "Scaling policy";
		// internal/bench/ext.go cites the Extension A note; api.go and
		// doc.go lean on the determinism contract and package map.
		"DESIGN.md": {
			"§1 Package map",
			"§2 Determinism contract",
			"§3 Scaling policy",
			"Extension A",
			"§5 The online scenario",
			// api.go, internal/index, internal/shard, and the serve
			// runners cite the serving layer's interface and router
			// invariants.
			"§6 Serving layer",
			"Shard router invariants",
			// The incremental attack kernel (internal/regression,
			// internal/core) and the perf gate (internal/bench/perf.go,
			// cmd/lisbench) cite these subsections.
			"Incremental kernel invariants",
			"Allocation budget",
			// internal/index (planes, cost models, pipeline), the churn
			// scenario (internal/core/churn.go), and api.go cite §7.
			"§7 Read/write/admin planes and the retrain pipeline",
			// internal/serve (snapshot-carrying reads, scheduler equivalence,
			// histograms), index.Pipeline.ReadRevision, and api.go cite §8.
			"§8 Concurrent serving plane",
			"Scheduler equivalence",
			// internal/alex (gapped array, struct accounting), the cascade
			// scenario (internal/core/cascade.go), and api.go cite §9.
			"§9 Gapped-array backend",
			"cascade attack",
			// internal/robust (fitter contract), internal/defense (policy
			// chain), core.DefenseSpec, and the defense sweep cite §10.
			"§10 Defense plane",
			"Robust fitters",
			"Pareto harness",
			// The closed-form oracle (internal/regression/closedform.go),
			// the pruned scan (internal/core/pruned.go), api.go, and the
			// perf ablation cells cite §11.
			"§11 Closed-form oracle & pruned scan",
			// The batch probe kernel (internal/index/batch.go, the backend
			// kernels, core.probeEval, api.go) and the eval perf cells
			// cite §12.
			"§12 Batch probe kernel invariants",
			// The twin scenario harness (internal/core/twin.go) and the
			// fingerprint gate (cmd/lisbench) cite §13.
			"§13 Twin scenario harness",
		},
		// doc.go promises the paper-vs-measured record; api.go cites Ext. F;
		// bench/perf.go and the CI gate cite the perf trajectory.
		"EXPERIMENTS.md": {
			"paper vs. measured",
			"Online scenario",
			"Serving scenario",
			"Retrain-churn scenario",
			"-fig serve",
			"serve.csv",
			"-fig churn",
			"churn.csv",
			"| F |",
			"-seed 42",
			// BENCH_PR3.json, BENCH_PR5.json, and BENCH_PR6.json stay
			// recorded as previous trajectory points.
			"BENCH_PR3.json",
			"BENCH_PR5.json",
			"BENCH_PR6.json",
			// The throughput scenario (internal/bench/throughput.go,
			// cmd/lisbench) cites its CSV fingerprint section.
			"Throughput scenario",
			"-fig throughput",
			"throughput.csv",
			// The split-cascade scenario (internal/bench/cascade.go,
			// cmd/lisbench) cites its CSV fingerprint section; BENCH_PR7.json
			// stays recorded as a previous trajectory point.
			"Split-cascade scenario",
			"-fig cascade",
			"cascade.csv",
			"BENCH_PR7.json",
			// The defense sweep (internal/bench/defense.go, cmd/lisbench)
			// cites its fingerprint section; BENCH_PR8.json stays recorded
			// as a previous trajectory point.
			"Defense Pareto sweep",
			"-fig defense",
			"defense.csv",
			"BENCH_PR8.json",
			// BENCH_PR9.json stays recorded as the previous trajectory
			// point; BENCH_PR10.json (bench/perf.go, cmd/lisbench) is the
			// live baseline the CI perf gate compares against, re-recorded
			// for the batch probe kernel and its eval cells.
			"BENCH_PR9.json",
			"BENCH_PR10.json",
			"Batch probe kernel",
		},
		// doc.go points readers at the catalog and sweep instructions.
		"README.md": {
			"Attack catalog",
			"-workers",
			"OnlinePoisonAttack",
			"ServeAttack",
			"ChurnAttack",
			"NewShardedIndex",
			"NewRetrainPipeline",
			"ServeScenarioConcurrent",
			"figure sweeps",
			// The gapped-array backend and its structural attack (api.go,
			// examples/alex_cascade) point readers at the catalog entry.
			"CascadeAttack",
			"NewAlexIndex",
			// The defense plane (api.go, cmd/lispoison defense) points
			// readers at the catalog entry and the defense sweep line.
			"ScenarioDefense",
			"ParseGuardPolicyChain",
			"-fig defense",
		},
	} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Errorf("%s: %v", file, err)
			continue
		}
		for _, s := range sections {
			if !strings.Contains(string(data), s) {
				t.Errorf("%s no longer contains %q, which code comments cite", file, s)
			}
		}
	}
}
