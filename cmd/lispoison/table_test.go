package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func subcommandNamed(t *testing.T, name string) subcommand {
	t.Helper()
	for _, c := range subcommands {
		if c.name == name {
			return c
		}
	}
	t.Fatalf("no subcommand %q", name)
	return subcommand{}
}

// TestUsageStringsAreNotFormats: flag help is printed verbatim, so a "%%"
// written for Printf shows up doubled in -h output.
func TestUsageStringsAreNotFormats(t *testing.T) {
	for _, c := range subcommands {
		fs, _ := c.flagSet()
		fs.VisitAll(func(f *flag.Flag) {
			if strings.Contains(f.Usage, "%%") {
				t.Errorf("%s -%s: usage %q contains %%%%", c.name, f.Name, f.Usage)
			}
		})
	}
}

// TestUndefinedFlagReturnsError: a bad flag is an error the caller sees,
// not an exit of the process.
func TestUndefinedFlagReturnsError(t *testing.T) {
	err := run([]string{"online", "-shards", "4"})
	if !errors.Is(err, errUsage) || errors.Is(err, flag.ErrHelp) {
		t.Fatalf("online -shards 4: got %v, want a usage error", err)
	}
	if err := run([]string{"online", "-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("online -h: got %v, want flag.ErrHelp", err)
	}
}

// documentedLines returns the lispoison command lines of README.md and of
// the package comment, without the program name, trailing comments,
// optional-argument brackets or shell quotes.
func documentedLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for file, prefix := range map[string]string{
		filepath.Join("..", "..", "README.md"): "go run ./cmd/lispoison ",
		"main.go":                              "//\tlispoison ",
	} {
		blob, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range strings.Split(string(blob), "\n") {
			if rest, ok := strings.CutPrefix(l, prefix); ok {
				rest, _, _ = strings.Cut(rest, " #")
				lines = append(lines, strings.NewReplacer("[", "", "]", "", "'", "").Replace(rest))
			}
		}
	}
	return lines
}

// TestDocumentedCommandLinesParse: every lispoison line in README.md and in
// the package comment parses against its subcommand's flags, and together
// they show every subcommand.
func TestDocumentedCommandLinesParse(t *testing.T) {
	shown := map[string]bool{}
	for _, l := range documentedLines(t) {
		args := strings.Fields(l)
		c := subcommandNamed(t, args[0])
		shown[c.name] = true
		fs, _ := c.flagSet()
		fs.SetOutput(io.Discard)
		if err := fs.Parse(args[1:]); err != nil || fs.NArg() > 0 {
			t.Errorf("lispoison %s: err %v, %d stray arguments", l, err, fs.NArg())
		}
	}
	for _, c := range subcommands {
		if !shown[c.name] {
			t.Errorf("no documented command line for %s", c.name)
		}
	}
}

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestKeyBoundsNearInt64Limits: the bounds derived from a key file's
// extremes equal the plain int64 expressions wherever those do not
// overflow, and are errors naming -in where they do.
func TestKeyBoundsNearInt64Limits(t *testing.T) {
	const hi, wide = math.MaxInt64, 8384883669867978006 // wide+wide/10+1 == MaxInt64
	cases := []struct {
		min, max                 int64
		span, domain, wideDomain int64 // 0: overflows
	}{
		{5, 100, 96, 101, 111},
		{0, wide, wide + 1, wide + 1, hi},
		{0, wide + 1, wide + 2, wide + 2, 0},
		{0, hi - 1, hi, hi, 0},
		{1, hi, hi, 0, 0},
		{0, hi, 0, 0, 0},
		{hi - 10, hi, 11, 0, 0},
	}
	for _, c := range cases {
		path := writeFile(t, "keys.txt", strconv.FormatInt(c.min, 10)+"\n"+strconv.FormatInt(c.max, 10))
		in, err := scenarioFlags{names: "in"}.load(&scenarioArgs{in: path}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []struct {
			what string
			got  keyBound
			want int64
		}{{"span", in.span, c.span}, {"domain", in.domain, c.domain}, {"wideDomain", in.wideDomain, c.wideDomain}} {
			switch {
			case b.want == 0 && (b.got.err == nil || !strings.Contains(b.got.err.Error(), "-in "+path)):
				t.Errorf("[%d, %d] %s: got %d, %v; want an error naming -in", c.min, c.max, b.what, b.got.v, b.got.err)
			case b.want != 0 && (b.got.err != nil || b.got.v != b.want):
				t.Errorf("[%d, %d] %s: got %d, %v; want %d", c.min, c.max, b.what, b.got.v, b.got.err, b.want)
			}
		}
	}
}

// TestExtremeKeyFilesErrorNotPanic runs the three subcommands that derive
// a bound from the key extremes on a file whose bounds overflow int64 and
// on an empty file: each must return an error naming -in, not panic.
func TestExtremeKeyFilesErrorNotPanic(t *testing.T) {
	extreme := writeFile(t, "extreme.txt", "0\n5\n9\n100\n9223372036854775000\n9223372036854775807\n")
	empty := writeFile(t, "empty.txt", "")
	for _, in := range []string{extreme, empty} {
		for _, args := range [][]string{
			{"online", "-in", in, "-epochs", "2", "-arrivals", "2"},
			{"throughput", "-in", in, "-epochs", "2", "-ops", "4", "-shards", "1"},
			{"defense", "-in", in, "-scenario", "static"},
		} {
			err := run(args)
			if err == nil || !strings.Contains(err.Error(), "-in "+in) {
				t.Errorf("lispoison %v: got %v, want an error naming -in", args, err)
			}
		}
	}
}

// TestStreamScenariosOnMaxInt64Keys runs the stream-driven subcommands on
// a file whose maximum is MaxInt64. They leave the write domain to the
// scenario's default, which saturates at MaxInt64 there, so each must
// succeed.
func TestStreamScenariosOnMaxInt64Keys(t *testing.T) {
	in := writeFile(t, "maxint.txt", "0\n5\n9\n100\n200\n300\n400\n500\n9223372036854775000\n9223372036854775807\n")
	for _, sub := range []string{"serve", "churn", "cascade"} {
		if err := run([]string{sub, "-in", in, "-epochs", "2"}); err != nil {
			t.Errorf("lispoison %s: %v", sub, err)
		}
	}
}

// spacedKeyFile writes 200 keys 37 apart and returns its path.
func spacedKeyFile(t *testing.T) string {
	t.Helper()
	var ks strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintln(&ks, 5+37*i)
	}
	return writeFile(t, "keys.txt", ks.String())
}

// TestThroughputOversizedKnobs: -batch and -readers far beyond what an
// epoch can use change no metric, so each run must succeed; the plane
// bounds them by the epoch instead of allocating what they ask for.
func TestThroughputOversizedKnobs(t *testing.T) {
	in := spacedKeyFile(t)
	for _, knob := range [][]string{
		{"-batch", "4611686018427387904"},
		{"-readers", "100000000"},
	} {
		args := append([]string{"throughput", "-in", in, "-epochs", "2"}, knob...)
		if err := run(args); err != nil {
			t.Errorf("lispoison %v: %v", args, err)
		}
	}
}

// TestThroughputReportsPlaneThatRan: the wall-clock line names the reader
// count the plane ran, not the one asked for. 100 ops per epoch fill two
// default batches of 64 reads, so -readers 8 runs 2 readers.
func TestThroughputReportsPlaneThatRan(t *testing.T) {
	stdout, stderr, code := lispoison(t, t.TempDir(), "throughput", "-in", spacedKeyFile(t), "-epochs", "2",
		"-readers", "8", "-ops", "100")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "ops/s, 2 readers\n") {
		t.Fatalf("wall-clock line does not report the 2 readers that ran:\n%s", stdout)
	}
}

// TestThroughputRatioOnLinearCDF: 400 evenly spaced keys lie on a line,
// so the clean model's loss is 0 and any poisoned loss is an infinite
// ratio. throughput's ratio column must say +Inf there, as serve's does,
// not print the poisoned loss itself.
func TestThroughputRatioOnLinearCDF(t *testing.T) {
	var ks strings.Builder
	for k := 0; k <= 798; k += 2 {
		fmt.Fprintln(&ks, k)
	}
	in := writeFile(t, "linear.txt", ks.String())
	stdout, stderr, code := lispoison(t, t.TempDir(), "throughput", "-in", in, "-epochs", "2", "-percent", "3",
		"-shards", "2", "-readers", "1", "-workload", "uniform:100", "-policy", "manual")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	var rows int
	for _, line := range strings.Split(stdout, "\n") {
		f := strings.Fields(line)
		if len(f) != 11 || f[0] == "epoch" {
			continue
		}
		rows++
		if f[9] != "+Inf" {
			t.Errorf("epoch %s: ratio %s, want +Inf over a zero clean loss", f[0], f[9])
		}
	}
	if rows != 2 {
		t.Fatalf("found %d epoch rows, want 2:\n%s", rows, stdout)
	}
}

// TestHugePercentBudget: a -percent whose key budget dwarfs the free key
// slots runs the greedy attack until it stops or the slots run out, so
// each run must succeed instead of reserving the whole budget up front. A
// budget too large for an int saturates instead of wrapping negative, so
// it poisons exactly like -percent 1e18; NaN is an error naming the flag.
func TestHugePercentBudget(t *testing.T) {
	in := spacedKeyFile(t)
	dir := t.TempDir()
	poison := func(t *testing.T, cmd, pct string) string {
		t.Helper()
		out := filepath.Join(dir, cmd+pct+".txt")
		args := []string{cmd, "-in", in, "-percent", pct, "-o", out}
		if cmd != "attack" {
			args = append(args, "-epochs", "2")
		}
		if err := run(args); err != nil {
			t.Fatalf("lispoison %v: %v", args, err)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, cmd := range []string{"attack", "serve"} {
		want := poison(t, cmd, "1e18")
		for _, pct := range []string{"1e19", "1e300", "+Inf"} {
			t.Run(cmd+pct, func(t *testing.T) {
				if poison(t, cmd, pct) != want {
					t.Errorf("%s -percent %s wrote a different poison file than -percent 1e18", cmd, pct)
				}
			})
		}
	}
	for _, cmd := range []string{"online", "churn"} {
		t.Run(cmd+"1e19", func(t *testing.T) { poison(t, cmd, "1e19") })
	}
	t.Run("attackNaN", func(t *testing.T) {
		err := run([]string{"attack", "-in", in, "-percent", "NaN", "-o", filepath.Join(dir, "nan.txt")})
		if err == nil || !strings.Contains(err.Error(), "-percent") {
			t.Fatalf("attack -percent NaN: err = %v, want an error naming -percent", err)
		}
	})
}

// TestNegativePercentNamesFlag: every subcommand with a -percent flag
// rejects a negative one with an error naming the flag, before any attack
// or scenario runs.
func TestNegativePercentNamesFlag(t *testing.T) {
	in := spacedKeyFile(t)
	out := filepath.Join(t.TempDir(), "poison.txt")
	for _, args := range [][]string{
		{"attack", "-o", out},
		{"online"},
		{"serve"},
		{"churn"},
		{"cascade"},
		{"defense"},
		{"throughput"},
	} {
		t.Run(args[0], func(t *testing.T) {
			err := run(append(args, "-in", in, "-percent", "-1"))
			if err == nil || !strings.Contains(err.Error(), "-percent") {
				t.Fatalf("%s -percent -1: err = %v, want an error naming -percent", args[0], err)
			}
		})
	}
}

// TestGenNoKeysErrors: gen -n 0 generates nothing to report min/max of.
func TestGenNoKeysErrors(t *testing.T) {
	out := filepath.Join(t.TempDir(), "keys.txt")
	if err := run([]string{"gen", "-n", "0", "-o", out}); err == nil {
		t.Fatal("gen -n 0 accepted")
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("gen -n 0 wrote %s", out)
	}
}

// TestDefenseRejectsBadRate: -rate takes exactly two integers, each at
// least 1. Trailing input, and values that would leave the limiter
// unarmed, are errors naming the flag instead of a run without it.
func TestDefenseRejectsBadRate(t *testing.T) {
	in := spacedKeyFile(t)
	for _, rate := range []string{"4:20:7", "4:20x", "0:20", "4:0", "-3:5"} {
		t.Run(rate, func(t *testing.T) {
			err := run([]string{"defense", "-in", in, "-scenario", "serve", "-rate", rate})
			if err == nil || !strings.Contains(err.Error(), "-rate") {
				t.Fatalf("defense -rate %s: err = %v, want an error naming -rate", rate, err)
			}
		})
	}
}
