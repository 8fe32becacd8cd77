package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cdfpoison/internal/bench"
)

// goldenFingerprints is the EXPERIMENTS.md fingerprint table: the first 12
// hex digits of each quick-scale CSV's sha256 at seed 42, per runner. The
// two timing CSVs (ext-trim.csv, ablation-endpoints.csv) are absent.
var goldenFingerprints = []struct {
	fig      string
	run      func(bench.Options, string) error
	scenario bool // also pinned at Workers: 1
	files    map[string]string
}{
	{"2", runFig2, false, map[string]string{"fig2.csv": "cd084eb1cdbb"}},
	{"3", runFig3, false, map[string]string{"fig3.csv": "6f01b715b6ff"}},
	{"4", runFig4, false, map[string]string{"fig4.csv": "7398f9c6a87a"}},
	{"5", runFig5, false, map[string]string{"fig5.csv": "78f68578b004"}},
	{"6", runFig6, false, map[string]string{"fig6.csv": "f2235876ecf7"}},
	{"7", runFig7, false, map[string]string{
		"fig7-miami-salaries.csv": "086dc9ae2821",
		"fig7-osm-latitudes.csv":  "ccf0371dd5d6",
	}},
	{"8", runFig8, false, map[string]string{"fig8.csv": "abc59fd0030c"}},
	{"ext", runExtensions, false, map[string]string{
		"ext-lookup.csv":      "ba25c14e45f7",
		"ext-backends.csv":    "785a09031e70",
		"ext-adversaries.csv": "097d73cce585",
		"ext-pla.csv":         "a3e7e68a8612",
		"ext-quad.csv":        "7d386281cf34",
	}},
	{"ablation", runAblations, false, map[string]string{
		"ablation-volume.csv": "cee7f2646378",
		"ablation-alpha.csv":  "99b22bc84afa",
	}},
	{"online", runOnline, true, map[string]string{"online.csv": "c657f8ce7d7a"}},
	{"serve", runServe, true, map[string]string{"serve.csv": "354cc901c4ed"}},
	{"churn", runChurn, true, map[string]string{"churn.csv": "d79ecda4cef2"}},
	{"cascade", runCascade, true, map[string]string{"cascade.csv": "0fc36d3f4d94"}},
	{"defense", runDefense, true, map[string]string{"defense.csv": "9d68be0d21a9"}},
	{"throughput", runThroughput, true, map[string]string{"throughput.csv": "fc9e0bd9278b"}},
}

// TestCSVFingerprints is the golden gate behind EXPERIMENTS.md: every
// fingerprinted quick-scale CSV at seed 42 hashes to its recorded value,
// with the default worker pool and, for the scenario CSVs, sequentially.
// A refactor that changes one byte of any CSV fails here, and a
// fingerprint dropped from EXPERIMENTS.md fails here too.
func TestCSVFingerprints(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range goldenFingerprints {
		for _, want := range g.files {
			if !strings.Contains(string(doc), "`"+want+"`") {
				t.Errorf("EXPERIMENTS.md no longer lists fingerprint %s (-fig %s)", want, g.fig)
			}
		}
		workers := []int{0}
		if g.scenario {
			workers = append(workers, 1)
		}
		for _, w := range workers {
			dir := t.TempDir()
			opts := bench.Options{Scale: bench.ScaleQuick, Seed: 42, Workers: w}
			if err := silently(t, func() error { return g.run(opts, dir) }); err != nil {
				t.Fatalf("-fig %s workers=%d: %v", g.fig, w, err)
			}
			for file, want := range g.files {
				blob, err := os.ReadFile(filepath.Join(dir, file))
				if err != nil {
					t.Fatalf("-fig %s workers=%d: %v", g.fig, w, err)
				}
				sum := sha256.Sum256(blob)
				if got := hex.EncodeToString(sum[:])[:12]; got != want {
					t.Errorf("-fig %s workers=%d: %s fingerprint %s, want %s", g.fig, w, file, got, want)
				}
			}
		}
	}
}
