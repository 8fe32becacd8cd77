package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The CLI tests run the real binary: TestMain turns the test binary into
// lispoison when mainEnv is set, and each case re-executes it. They pin
// what a user sees — stdout, the exit code and every written key file —
// against goldens under testdata/. Refresh the goldens after an intended
// change with
//
//	go test ./cmd/lispoison -run 'TestLispoisonGolden|TestLispoisonFlags' -update

const mainEnv = "LISPOISON_RUN_MAIN"

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// lispoison runs the binary with args in dir and returns its stdout,
// stderr and exit code.
func lispoison(t *testing.T, dir string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), mainEnv+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err = cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatalf("lispoison %v: %v", args, err)
	}
	return out.String(), errb.String(), code
}

// goldenCases is the CLI matrix, run in order in one directory: the gen
// cases write the key files the later cases read.
var goldenCases = []struct {
	name string
	args string
}{
	{"gen-uniform", "gen -dist uniform -n 300 -domain 30000 -seed 7 -o uni.txt"},
	{"gen-normal", "gen -dist normal -n 300 -domain 30000 -seed 7 -o norm.txt"},
	{"gen-lognormal", "gen -dist lognormal -n 300 -domain 300000 -seed 7 -o logn.txt"},
	{"attack-regression", "attack -in uni.txt -percent 10 -o poison.txt -o-poisoned poisoned.txt"},
	{"attack-modelsize", "attack -in logn.txt -percent 5 -modelsize 50 -o rmi-poison.txt -o-poisoned rmi-poisoned.txt"},
	{"attack-removal", "attack -in norm.txt -percent 5 -removal -o removed.txt -o-poisoned survivors.txt"},
	{"attack-fractional-budget", "attack -in norm.txt -percent 3.3 -o frac.txt"},
	{"attack-missing-file", "attack -in missing.txt -o x.txt"},
	{"online-arrivals", "online -in uni.txt -epochs 3 -percent 3 -policy buffer:20 -arrivals 5 -o online.txt"},
	{"online-rmi", "online -in logn.txt -epochs 2 -percent 2 -oracle rmi -models 4"},
	{"serve", "serve -in uni.txt -epochs 3 -percent 3 -shards 2 -workload hotspot:2:85 -cost fixed:20 -o serve.txt"},
	{"serve-fractional-budget", "serve -in norm.txt -epochs 2 -percent 2.5 -shards 1 -ops 7"},
	{"churn", "churn -in uni.txt -epochs 3 -percent 3 -shards 2 -policy buffer:10 -o churn.txt"},
	{"cascade", "cascade -in logn.txt -epochs 3 -percent 3 -leaf 32 -o cascade.txt"},
	{"throughput", "throughput -in uni.txt -epochs 2 -percent 3 -shards 2 -readers 2"},
	{"throughput-manual", "throughput -in uni.txt -epochs 2 -percent 3 -shards 2 -readers 2 -policy manual"},
	{"eval", "eval -clean uni.txt -poison poison.txt"},
	{"eval-modelsize", "eval -clean uni.txt -poison poison.txt -modelsize 50"},
	{"defend", "defend -in poisoned.txt -clean-count 300 -o kept.txt -o-removed flagged.txt"},
	{"defense-static", "defense -in uni.txt -scenario static"},
	{"defense-online", "defense -in uni.txt -scenario online -epochs 2"},
	{"defense-serve", "defense -in uni.txt -scenario serve -epochs 2 -rate 4:20 -sources 8"},
	{"defense-churn", "defense -in uni.txt -scenario churn -epochs 2 -shards 2"},
	{"defense-cascade", "defense -in logn.txt -scenario cascade -epochs 2 -chain none -rate 2:40 -sources 16 -balanced"},
	{"no-args", ""},
	{"unknown-subcommand", "frobnicate"},
	{"help", "-h"},
	{"subcommand-help", "serve -h"},
	{"undefined-flag", "online -shards 4"},
}

// maskWallClock blanks throughput's wall-clock line, the one stdout line
// that depends on the host (ops/s and the default reader count).
func maskWallClock(s string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, "wall-clock (machine-dependent):") {
			lines[i] = "wall-clock (machine-dependent): <masked>"
		}
	}
	return strings.Join(lines, "\n")
}

// readDir maps every regular file in dir to its contents.
func readDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, e := range entries {
		blob, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(blob)
	}
	return files
}

// checkGolden compares got with testdata/name, or rewrites it under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the golden:\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}

// TestLispoisonGolden runs the CLI matrix and compares, per case, the exit
// code, stdout and every key file the case wrote with its golden.
func TestLispoisonGolden(t *testing.T) {
	dir := t.TempDir()
	for _, c := range goldenCases {
		before := readDir(t, dir)
		stdout, stderr, code := lispoison(t, dir, strings.Fields(c.args)...)
		var b strings.Builder
		fmt.Fprintf(&b, "$ lispoison %s\nexit %d\n--- stdout\n%s", c.args, code, maskWallClock(stdout))
		after := readDir(t, dir)
		names := make([]string, 0, len(after))
		for name := range after {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if prev, ok := before[name]; !ok || prev != after[name] {
				fmt.Fprintf(&b, "--- file %s\n%s", name, after[name])
			}
		}
		got := b.String()
		path := filepath.Join("golden", c.name+".txt")
		if !*update {
			if want, err := os.ReadFile(filepath.Join("testdata", path)); err == nil && got != string(want) {
				t.Logf("%s stderr:\n%s", c.name, stderr)
			}
		}
		checkGolden(t, path, got)
	}
}

// subcommandNames lists every lispoison subcommand, in usage order.
var subcommandNames = []string{"gen", "attack", "online", "serve", "churn", "cascade",
	"throughput", "eval", "defend", "defense"}

// flagDefaults parses a FlagSet's -h output into "-name default" lines. A
// "(default X)" suffix counts only when X is a valid value of the flag's
// type, since help text may itself mention a default in words.
func flagDefaults(help string) []string {
	var out []string
	lines := strings.Split(help, "\n")
	for i := 0; i < len(lines); i++ {
		l := lines[i]
		if !strings.HasPrefix(l, "  -") {
			continue
		}
		head := strings.Fields(strings.TrimPrefix(l, "  -"))
		name, typ := head[0], "bool"
		if len(head) > 1 {
			typ = head[1]
		}
		var usage string
		for i+1 < len(lines) && strings.HasPrefix(lines[i+1], "    \t") {
			i++
			usage += " " + strings.TrimPrefix(lines[i], "    \t")
		}
		def := ""
		if j := strings.LastIndex(usage, " (default "); j >= 0 && strings.HasSuffix(usage, ")") {
			v := usage[j+len(" (default ") : len(usage)-1]
			var err error
			switch typ {
			case "int":
				_, err = strconv.ParseInt(v, 10, 64)
			case "uint":
				_, err = strconv.ParseUint(v, 10, 64)
			case "float":
				_, err = strconv.ParseFloat(v, 64)
			case "string":
				_, err = strconv.Unquote(v)
			case "bool":
				_, err = strconv.ParseBool(v)
			}
			if err == nil {
				def = v
			}
		}
		out = append(out, strings.TrimSpace("-"+name+" "+def))
	}
	return out
}

// TestLispoisonFlags pins every subcommand's flag names and defaults, as
// its -h output reports them, and that -h exits 0.
func TestLispoisonFlags(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	for _, sub := range subcommandNames {
		_, stderr, code := lispoison(t, dir, sub, "-h")
		if code != 0 {
			t.Errorf("lispoison %s -h: exit %d, want 0", sub, code)
		}
		for _, f := range flagDefaults(stderr) {
			fmt.Fprintf(&b, "%s %s\n", sub, f)
		}
	}
	checkGolden(t, "flags.txt", b.String())
}
