package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cdfpoison"
)

// The subcommand functions are exercised directly with temp files, covering
// the full gen → attack → eval → defend pipeline without spawning processes.

func tmpPath(t *testing.T, name string) string {
	t.Helper()
	return filepath.Join(t.TempDir(), name)
}

func TestGenAttackEvalDefendPipeline(t *testing.T) {
	keysFile := tmpPath(t, "keys.txt")
	poisonFile := tmpPath(t, "poison.txt")
	allFile := tmpPath(t, "all.txt")
	keptFile := tmpPath(t, "kept.txt")

	if err := cmdGen([]string{"-dist", "uniform", "-n", "500", "-domain", "10000", "-seed", "7", "-o", keysFile}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	ks, err := readKeys(keysFile)
	if err != nil {
		t.Fatal(err)
	}
	if ks.Len() != 500 {
		t.Fatalf("generated %d keys", ks.Len())
	}

	if err := cmdAttack([]string{"-in", keysFile, "-percent", "10", "-o", poisonFile, "-o-poisoned", allFile}); err != nil {
		t.Fatalf("attack: %v", err)
	}
	poison, err := readKeys(poisonFile)
	if err != nil {
		t.Fatal(err)
	}
	if poison.Len() != 50 {
		t.Fatalf("poison count %d, want 50", poison.Len())
	}
	all, err := readKeys(allFile)
	if err != nil {
		t.Fatal(err)
	}
	if all.Len() != 550 {
		t.Fatalf("poisoned set %d, want 550", all.Len())
	}

	if err := cmdEval([]string{"-clean", keysFile, "-poison", poisonFile}); err != nil {
		t.Fatalf("eval: %v", err)
	}
	if err := cmdEval([]string{"-clean", keysFile, "-poison", poisonFile, "-modelsize", "50"}); err != nil {
		t.Fatalf("eval rmi: %v", err)
	}

	if err := cmdDefend([]string{"-in", allFile, "-clean-count", "500", "-o", keptFile}); err != nil {
		t.Fatalf("defend: %v", err)
	}
	kept, err := readKeys(keptFile)
	if err != nil {
		t.Fatal(err)
	}
	if kept.Len() != 500 {
		t.Fatalf("kept %d, want 500", kept.Len())
	}
}

func TestGenAllDistributions(t *testing.T) {
	for _, dist := range []string{"uniform", "normal", "lognormal"} {
		out := tmpPath(t, dist+".txt")
		if err := cmdGen([]string{"-dist", dist, "-n", "300", "-domain", "30000", "-o", out}); err != nil {
			t.Fatalf("%s: %v", dist, err)
		}
		ks, err := readKeys(out)
		if err != nil {
			t.Fatal(err)
		}
		if ks.Len() != 300 {
			t.Fatalf("%s: %d keys", dist, ks.Len())
		}
	}
}

func TestGenRejectsBadInput(t *testing.T) {
	if err := cmdGen([]string{"-dist", "zipf", "-o", tmpPath(t, "x.txt")}); err == nil {
		t.Fatal("unknown distribution accepted")
	}
	if err := cmdGen([]string{"-dist", "uniform", "-n", "10", "-domain", "5", "-o", tmpPath(t, "x.txt")}); err == nil {
		t.Fatal("infeasible n/domain accepted")
	}
	if err := cmdGen([]string{"-dist", "uniform"}); err == nil {
		t.Fatal("missing -o accepted")
	}
	// Non-finite log-normal parameters, and sigma 0, are errors naming the
	// parameter, not a saturated run of keys.
	for _, c := range [][2]string{
		{"-sigma", "NaN"}, {"-sigma", "Inf"}, {"-sigma", "0"}, {"-mu", "NaN"}, {"-mu", "-Inf"},
	} {
		out := tmpPath(t, "g.txt")
		err := cmdGen([]string{"-dist", "lognormal", "-n", "1000", c[0], c[1], "-o", out})
		if err == nil || !strings.Contains(err.Error(), c[0][1:]) {
			t.Errorf("gen -dist lognormal %s %s: err = %v, want one naming %s", c[0], c[1], err, c[0])
		}
		if _, serr := os.Stat(out); serr == nil {
			t.Errorf("gen -dist lognormal %s %s wrote %s", c[0], c[1], out)
		}
	}
}

// TestRMIFlagsRejectBadValues: a negative -modelsize and a NaN -alpha are
// errors naming the flag, not a silent fanout-1 or uncapped run.
func TestRMIFlagsRejectBadValues(t *testing.T) {
	keysFile := tmpPath(t, "keys.txt")
	poisonFile := tmpPath(t, "poison.txt")
	if err := cmdGen([]string{"-dist", "uniform", "-n", "300", "-domain", "12000", "-o", keysFile}); err != nil {
		t.Fatal(err)
	}
	if err := cmdAttack([]string{"-in", keysFile, "-percent", "5", "-o", poisonFile}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		run  func([]string) error
		args []string
		want string
	}{
		{cmdAttack, []string{"-in", keysFile, "-o", tmpPath(t, "p.txt"), "-modelsize", "-5"}, "-modelsize"},
		{cmdEval, []string{"-clean", keysFile, "-poison", poisonFile, "-modelsize", "-5"}, "-modelsize"},
		{cmdAttack, []string{"-in", keysFile, "-o", tmpPath(t, "p.txt"), "-models", "10", "-alpha", "NaN"}, "Alpha"},
		{cmdOnline, []string{"-in", keysFile, "-epochs", "2", "-oracle", "rmi", "-models", "10", "-alpha", "NaN"}, "Alpha"},
		{cmdOnline, []string{"-in", keysFile, "-oracle", "rmi", "-models", "10", "-alpha", "NaN", "-percent", "0.1"}, "Alpha"},
	} {
		if err := c.run(c.args); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: err = %v, want one naming %s", c.args, err, c.want)
		}
	}
}

func TestAttackRMIMode(t *testing.T) {
	keysFile := tmpPath(t, "keys.txt")
	poisonFile := tmpPath(t, "poison.txt")
	if err := cmdGen([]string{"-dist", "uniform", "-n", "600", "-domain", "12000", "-o", keysFile}); err != nil {
		t.Fatal(err)
	}
	if err := cmdAttack([]string{"-in", keysFile, "-percent", "10", "-modelsize", "100", "-o", poisonFile}); err != nil {
		t.Fatalf("rmi attack: %v", err)
	}
	poison, err := readKeys(poisonFile)
	if err != nil {
		t.Fatal(err)
	}
	if poison.Len() == 0 || poison.Len() > 60 {
		t.Fatalf("poison count %d", poison.Len())
	}
}

func TestAttackRemovalMode(t *testing.T) {
	keysFile := tmpPath(t, "keys.txt")
	removedFile := tmpPath(t, "removed.txt")
	survivorsFile := tmpPath(t, "survivors.txt")
	if err := cmdGen([]string{"-dist", "uniform", "-n", "400", "-domain", "8000", "-o", keysFile}); err != nil {
		t.Fatal(err)
	}
	if err := cmdAttack([]string{"-in", keysFile, "-percent", "5", "-removal", "-o", removedFile, "-o-poisoned", survivorsFile}); err != nil {
		t.Fatalf("removal attack: %v", err)
	}
	removed, err := readKeys(removedFile)
	if err != nil {
		t.Fatal(err)
	}
	survivors, err := readKeys(survivorsFile)
	if err != nil {
		t.Fatal(err)
	}
	if removed.Len()+survivors.Len() != 400 {
		t.Fatalf("keys lost: %d + %d != 400", removed.Len(), survivors.Len())
	}
	orig, _ := readKeys(keysFile)
	for _, k := range removed.Keys() {
		if !orig.Contains(k) || survivors.Contains(k) {
			t.Fatalf("removal bookkeeping broken for key %d", k)
		}
	}
}

func TestOnlineMode(t *testing.T) {
	keysFile := tmpPath(t, "keys.txt")
	poisonFile := tmpPath(t, "poison.txt")
	if err := cmdGen([]string{"-dist", "uniform", "-n", "400", "-domain", "16000", "-seed", "5", "-o", keysFile}); err != nil {
		t.Fatal(err)
	}
	if err := cmdOnline([]string{"-in", keysFile, "-epochs", "3", "-percent", "5",
		"-policy", "buffer:30", "-arrivals", "8", "-o", poisonFile}); err != nil {
		t.Fatalf("online: %v", err)
	}
	poison, err := readKeys(poisonFile)
	if err != nil {
		t.Fatal(err)
	}
	// 5% of 400 = 20 keys per epoch × 3 epochs.
	if poison.Len() == 0 || poison.Len() > 60 {
		t.Fatalf("poison count %d, want (0, 60]", poison.Len())
	}
	clean, _ := readKeys(keysFile)
	for _, k := range poison.Keys() {
		if clean.Contains(k) {
			t.Fatalf("poison key %d collides with a clean key", k)
		}
	}
}

func TestOnlineRMIOracleMode(t *testing.T) {
	keysFile := tmpPath(t, "keys.txt")
	if err := cmdGen([]string{"-dist", "uniform", "-n", "500", "-domain", "20000", "-o", keysFile}); err != nil {
		t.Fatal(err)
	}
	if err := cmdOnline([]string{"-in", keysFile, "-epochs", "2", "-percent", "4",
		"-policy", "manual", "-oracle", "rmi", "-models", "5"}); err != nil {
		t.Fatalf("online rmi: %v", err)
	}
}

func TestOnlineRejectsBadInput(t *testing.T) {
	keysFile := tmpPath(t, "keys.txt")
	if err := cmdGen([]string{"-dist", "uniform", "-n", "100", "-domain", "4000", "-o", keysFile}); err != nil {
		t.Fatal(err)
	}
	if err := cmdOnline([]string{"-epochs", "2"}); err == nil {
		t.Fatal("missing -in accepted")
	}
	if err := cmdOnline([]string{"-in", keysFile, "-policy", "hourly"}); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if err := cmdOnline([]string{"-in", keysFile, "-policy", "every:0"}); err == nil {
		t.Fatal("every:0 accepted")
	}
	if err := cmdOnline([]string{"-in", keysFile, "-policy", "buffer:x"}); err == nil {
		t.Fatal("buffer:x accepted")
	}
	if err := cmdOnline([]string{"-in", keysFile, "-oracle", "quantum"}); err == nil {
		t.Fatal("unknown oracle accepted")
	}
	// Must error cleanly, not panic building the arrival schedule.
	if err := cmdOnline([]string{"-in", keysFile, "-epochs", "-1", "-arrivals", "5"}); err == nil {
		t.Fatal("negative -epochs accepted")
	}
	if err := cmdOnline([]string{"-in", keysFile, "-arrivals", "-4"}); err == nil || !strings.Contains(err.Error(), "-arrivals") {
		t.Fatalf("online -arrivals -4: err = %v, want one naming -arrivals", err)
	}
}

// TestOnlineWorkersFlagDeterminism: like the attack subcommand, -workers
// must never change the online scenario's poison output.
func TestOnlineWorkersFlagDeterminism(t *testing.T) {
	keysFile := tmpPath(t, "keys.txt")
	if err := cmdGen([]string{"-dist", "uniform", "-n", "600", "-domain", "24000", "-seed", "13", "-o", keysFile}); err != nil {
		t.Fatal(err)
	}
	run := func(workers string) string {
		t.Helper()
		out := tmpPath(t, "poison.txt")
		if err := cmdOnline([]string{"-in", keysFile, "-epochs", "3", "-percent", "3",
			"-policy", "buffer:25", "-arrivals", "5", "-workers", workers, "-o", out}); err != nil {
			t.Fatalf("online -workers %s: %v", workers, err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	if seq, par := run("1"), run("4"); seq != par {
		t.Fatal("online attack output depends on -workers")
	}
}

func TestServeMode(t *testing.T) {
	keysFile := tmpPath(t, "keys.txt")
	poisonFile := tmpPath(t, "poison.txt")
	if err := cmdGen([]string{"-dist", "uniform", "-n", "400", "-domain", "16000", "-seed", "5", "-o", keysFile}); err != nil {
		t.Fatal(err)
	}
	if err := cmdServe([]string{"-in", keysFile, "-epochs", "3", "-percent", "5",
		"-shards", "4", "-workload", "zipf:1.1:85", "-o", poisonFile}); err != nil {
		t.Fatalf("serve: %v", err)
	}
	poison, err := readKeys(poisonFile)
	if err != nil {
		t.Fatal(err)
	}
	// 5% of 400 = 20 keys per epoch × 3 epochs.
	if poison.Len() == 0 || poison.Len() > 60 {
		t.Fatalf("poison count %d, want (0, 60]", poison.Len())
	}
	clean, _ := readKeys(keysFile)
	for _, k := range poison.Keys() {
		if clean.Contains(k) {
			t.Fatalf("poison key %d collides with a clean key", k)
		}
	}
}

func TestServeRejectsBadInput(t *testing.T) {
	keysFile := tmpPath(t, "keys.txt")
	if err := cmdGen([]string{"-dist", "uniform", "-n", "100", "-domain", "4000", "-o", keysFile}); err != nil {
		t.Fatal(err)
	}
	if err := cmdServe([]string{"-epochs", "2"}); err == nil {
		t.Fatal("missing -in accepted")
	}
	if err := cmdServe([]string{"-in", keysFile, "-workload", "pareto"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if err := cmdServe([]string{"-in", keysFile, "-workload", "zipf:0"}); err == nil {
		t.Fatal("zipf:0 accepted")
	}
	if err := cmdServe([]string{"-in", keysFile, "-policy", "hourly"}); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if err := cmdServe([]string{"-in", keysFile, "-shards", "80"}); err == nil {
		t.Fatal("80 shards over 100 keys accepted")
	}
}

// TestThroughputRejectsBadInput: a negative -readers or -batch is an error
// naming the flag, not a silent fall back to the default, and a negative
// -percent fails before the clean run instead of after it.
func TestThroughputRejectsBadInput(t *testing.T) {
	keysFile := tmpPath(t, "keys.txt")
	if err := cmdGen([]string{"-dist", "uniform", "-n", "100", "-domain", "4000", "-o", keysFile}); err != nil {
		t.Fatal(err)
	}
	for _, c := range [][2]string{{"-readers", "-1"}, {"-batch", "-1"}, {"-percent", "-1"}} {
		err := run([]string{"throughput", "-in", keysFile, "-epochs", "2", c[0], c[1]})
		if err == nil || !strings.Contains(err.Error(), c[0]) {
			t.Errorf("throughput %s %s: err = %v, want one naming %s", c[0], c[1], err, c[0])
		}
	}
}

// TestServeWorkersFlagDeterminism: -workers must never change the serve
// scenario's poison output.
func TestServeWorkersFlagDeterminism(t *testing.T) {
	keysFile := tmpPath(t, "keys.txt")
	if err := cmdGen([]string{"-dist", "uniform", "-n", "500", "-domain", "20000", "-seed", "13", "-o", keysFile}); err != nil {
		t.Fatal(err)
	}
	run := func(workers string) string {
		t.Helper()
		out := tmpPath(t, "poison.txt")
		if err := cmdServe([]string{"-in", keysFile, "-epochs", "2", "-percent", "3",
			"-shards", "2", "-workload", "hotspot:2:85", "-workers", workers, "-o", out}); err != nil {
			t.Fatalf("serve -workers %s: %v", workers, err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	if seq, par := run("1"), run("4"); seq != par {
		t.Fatal("serve attack output depends on -workers")
	}
}

func TestChurnMode(t *testing.T) {
	keysFile := tmpPath(t, "keys.txt")
	poisonFile := tmpPath(t, "poison.txt")
	if err := cmdGen([]string{"-dist", "uniform", "-n", "400", "-domain", "16000", "-seed", "5", "-o", keysFile}); err != nil {
		t.Fatal(err)
	}
	if err := cmdChurn([]string{"-in", keysFile, "-epochs", "3", "-percent", "5",
		"-shards", "4", "-policy", "buffer:12", "-cost", "fixed:30",
		"-workload", "zipf:1.1:85", "-o", poisonFile}); err != nil {
		t.Fatalf("churn: %v", err)
	}
	poison, err := readKeys(poisonFile)
	if err != nil {
		t.Fatal(err)
	}
	if poison.Len() == 0 || poison.Len() > 60 {
		t.Fatalf("poison count %d, want (0, 60]", poison.Len())
	}
	clean, _ := readKeys(keysFile)
	for _, k := range poison.Keys() {
		if clean.Contains(k) {
			t.Fatalf("poison key %d collides with a clean key", k)
		}
	}
}

func TestChurnRejectsBadInput(t *testing.T) {
	keysFile := tmpPath(t, "keys.txt")
	if err := cmdGen([]string{"-dist", "uniform", "-n", "100", "-domain", "4000", "-o", keysFile}); err != nil {
		t.Fatal(err)
	}
	if err := cmdChurn([]string{"-epochs", "2"}); err == nil {
		t.Fatal("missing -in accepted")
	}
	if err := cmdChurn([]string{"-in", keysFile, "-cost", "cubic:3"}); err == nil {
		t.Fatal("unknown cost model accepted")
	}
	if err := cmdChurn([]string{"-in", keysFile, "-cost", "fixed:-2"}); err == nil {
		t.Fatal("negative cost accepted")
	}
	if err := cmdChurn([]string{"-in", keysFile, "-policy", "hourly"}); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if err := cmdChurn([]string{"-in", keysFile, "-workload", "pareto"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestChurnWorkersFlagDeterminism: -workers must never change the churn
// scenario's poison output — the CLI leg of the workers=1 == workers=NumCPU
// byte-identity contract for ChurnAttack.
func TestChurnWorkersFlagDeterminism(t *testing.T) {
	keysFile := tmpPath(t, "keys.txt")
	if err := cmdGen([]string{"-dist", "uniform", "-n", "500", "-domain", "20000", "-seed", "13", "-o", keysFile}); err != nil {
		t.Fatal(err)
	}
	run := func(workers string) string {
		t.Helper()
		out := tmpPath(t, "poison.txt")
		if err := cmdChurn([]string{"-in", keysFile, "-epochs", "2", "-percent", "3",
			"-shards", "2", "-policy", "buffer:8", "-cost", "linear:10:25:100",
			"-workload", "hotspot:2:85", "-workers", workers, "-o", out}); err != nil {
			t.Fatalf("churn -workers %s: %v", workers, err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	if seq, par := run("1"), run("4"); seq != par {
		t.Fatal("churn attack output depends on -workers")
	}
}

func TestEvalRejectsOverlap(t *testing.T) {
	keysFile := tmpPath(t, "keys.txt")
	if err := cmdGen([]string{"-dist", "uniform", "-n", "100", "-domain", "1000", "-o", keysFile}); err != nil {
		t.Fatal(err)
	}
	// "Poison" file that overlaps the clean keys must be rejected.
	if err := cmdEval([]string{"-clean", keysFile, "-poison", keysFile}); err == nil {
		t.Fatal("overlapping poison file accepted")
	}
}

func TestMissingFlagErrors(t *testing.T) {
	if err := cmdAttack([]string{"-in", "nope.txt"}); err == nil {
		t.Fatal("attack without -o accepted")
	}
	if err := cmdEval([]string{"-clean", "nope.txt"}); err == nil {
		t.Fatal("eval without -poison accepted")
	}
	if err := cmdDefend([]string{"-in", "nope.txt", "-o", "x"}); err == nil {
		t.Fatal("defend without -clean-count accepted")
	}
	if err := cmdAttack([]string{"-in", "does-not-exist.txt", "-o", "x"}); err == nil {
		t.Fatal("attack on missing file accepted")
	}
}

func TestReadKeysRejectsGarbageFile(t *testing.T) {
	p := tmpPath(t, "garbage.txt")
	if err := os.WriteFile(p, []byte("12\nnot-a-number\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readKeys(p); err == nil {
		t.Fatal("garbage file accepted")
	}
}

func TestWriteKeysRoundTrip(t *testing.T) {
	ks, err := cdfpoison.NewKeySet([]int64{5, 1, 9})
	if err != nil {
		t.Fatal(err)
	}
	p := tmpPath(t, "rt.txt")
	if err := writeKeys(p, ks); err != nil {
		t.Fatal(err)
	}
	got, err := readKeys(p)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(ks) {
		t.Fatal("round trip mismatch")
	}
	data, _ := os.ReadFile(p)
	if !strings.HasPrefix(string(data), "1\n5\n9\n") {
		t.Fatalf("file format: %q", data)
	}
}

// TestAttackWorkersFlagDeterminism: -workers must never change the attack
// output — the poison files for sequential and parallel runs are identical
// bytes, for both the regression and the RMI attack modes.
func TestAttackWorkersFlagDeterminism(t *testing.T) {
	keysFile := tmpPath(t, "keys.txt")
	if err := cmdGen([]string{"-dist", "lognormal", "-n", "800", "-domain", "200000", "-seed", "11", "-o", keysFile}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	run := func(extra ...string) string {
		t.Helper()
		out := tmpPath(t, "poison.txt")
		args := append([]string{"-in", keysFile, "-percent", "10", "-o", out}, extra...)
		if err := cmdAttack(args); err != nil {
			t.Fatalf("attack %v: %v", extra, err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	if seq, par := run("-workers", "1"), run("-workers", "4"); seq != par {
		t.Fatal("regression attack output depends on -workers")
	}
	if seq, par := run("-workers", "1", "-modelsize", "80"), run("-workers", "4", "-modelsize", "80"); seq != par {
		t.Fatal("RMI attack output depends on -workers")
	}
}
