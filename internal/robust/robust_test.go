package robust

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"testing"

	"cdfpoison/internal/dataset"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/regression"
	"cdfpoison/internal/xrand"
)

func mustSet(t testing.TB, ks []int64) keys.Set {
	t.Helper()
	s, err := keys.New(ks)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// progression builds the exact line fixture: keys a, a+step, a+2*step, ...
func progression(t testing.TB, a, step int64, n int) keys.Set {
	t.Helper()
	out := make([]int64, n)
	for i := range out {
		out[i] = a + step*int64(i)
	}
	return mustSet(t, out)
}

// poisoned returns the progression plus a dense adversarial cluster at the
// high end — the shape GreedyMultiPoint produces.
func poisoned(t testing.TB, clean keys.Set, cluster int) keys.Set {
	t.Helper()
	out := append([]int64(nil), clean.Keys()...)
	base := clean.Max() - int64(cluster) - 1
	for i := 0; i < cluster; i++ {
		out = append(out, base+int64(i))
	}
	s, err := keys.New(out)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func allFitters() []Fitter {
	return []Fitter{OLS{}, TheilSen{}, Trimmed{Pct: 10}, Trimmed{Pct: 25}}
}

func TestOLSMatchesFitCDF(t *testing.T) {
	ks, err := dataset.Uniform(xrand.New(7), 300, 15000)
	if err != nil {
		t.Fatal(err)
	}
	want, err := regression.FitCDF(ks)
	if err != nil {
		t.Fatal(err)
	}
	got, err := OLS{}.Fit(ks)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("OLS.Fit = %+v, FitCDF = %+v", got, want)
	}
}

func TestTheilSenExactOnPerfectLine(t *testing.T) {
	ks := progression(t, 100, 7, 201)
	m, err := TheilSen{}.Fit(ks)
	if err != nil {
		t.Fatal(err)
	}
	if w := 1.0 / 7.0; math.Abs(m.Line.W-w) > 1e-12 {
		t.Fatalf("W = %v, want %v", m.Line.W, w)
	}
	if m.Loss > 1e-18 {
		t.Fatalf("Loss = %v on a perfect line", m.Loss)
	}
	if m.N != ks.Len() {
		t.Fatalf("N = %d, want %d", m.N, ks.Len())
	}
}

// TestRobustFittersResistCluster is the point of the package: a dense
// poison cluster drags the OLS slope, while Theil–Sen and trimmed LS stay
// materially closer to the clean fit.
func TestRobustFittersResistCluster(t *testing.T) {
	clean := progression(t, 1000, 50, 200)
	cleanFit, err := regression.FitCDF(clean)
	if err != nil {
		t.Fatal(err)
	}
	bad := poisoned(t, clean, 40)
	ols, err := OLS{}.Fit(bad)
	if err != nil {
		t.Fatal(err)
	}
	olsDrift := math.Abs(ols.Line.W - cleanFit.Line.W)
	if olsDrift == 0 {
		t.Fatal("fixture too weak: poison did not move the OLS slope")
	}
	for _, f := range []Fitter{TheilSen{}, Trimmed{Pct: 20}} {
		m, err := f.Fit(bad)
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		drift := math.Abs(m.Line.W - cleanFit.Line.W)
		if drift >= olsDrift/2 {
			t.Errorf("%s slope drift %v not under half the OLS drift %v", f.Name(), drift, olsDrift)
		}
	}
}

// TestFitDeterminism: two sequential fits of the same input are
// byte-identical (comparable Model struct).
func TestFitDeterminism(t *testing.T) {
	ks, err := dataset.Uniform(xrand.New(13), 500, 40000)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range allFitters() {
		a, err := f.Fit(ks)
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		b, err := f.Fit(ks)
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		if a != b {
			t.Errorf("%s: repeated fits differ: %+v vs %+v", f.Name(), a, b)
		}
	}
}

func TestFitDegenerateSizes(t *testing.T) {
	for _, f := range allFitters() {
		if _, err := f.Fit(keys.Set{}); err == nil {
			t.Errorf("%s: no error on empty set", f.Name())
		}
		one := mustSet(t, []int64{42})
		m, err := f.Fit(one)
		if err != nil {
			t.Errorf("%s: single-key fit failed: %v", f.Name(), err)
		} else if m.Predict(42) != 1 {
			t.Errorf("%s: single-key fit predicts %v for the only key", f.Name(), m.Predict(42))
		}
		two := mustSet(t, []int64{10, 20})
		if _, err := f.Fit(two); err != nil {
			t.Errorf("%s: two-key fit failed: %v", f.Name(), err)
		}
	}
}

func TestTrimmedRejectsBadPct(t *testing.T) {
	ks := progression(t, 0, 3, 50)
	for _, pct := range []float64{0, -5, 50, 80, math.NaN()} {
		if _, err := (Trimmed{Pct: pct}).Fit(ks); err == nil {
			t.Errorf("Trimmed{%v}.Fit accepted an out-of-range percentage", pct)
		}
	}
}

func TestParseFitterRoundTrip(t *testing.T) {
	for _, spec := range []string{"ols", "theilsen", "trimmed:10", "trimmed:2.5"} {
		f, err := ParseFitter(spec)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		if f.Name() != spec {
			t.Errorf("ParseFitter(%q).Name() = %q", spec, f.Name())
		}
		again, err := ParseFitter(f.Name())
		if err != nil {
			t.Errorf("Name %q does not re-parse: %v", f.Name(), err)
		} else if again.Name() != f.Name() {
			t.Errorf("round trip drifted: %q -> %q", f.Name(), again.Name())
		}
	}
}

func TestParseFitterRejects(t *testing.T) {
	for _, spec := range []string{"", "huber", "ols:1", "theilsen:2", "trimmed",
		"trimmed:", "trimmed:0", "trimmed:50", "trimmed:-3", "trimmed:NaN", "trimmed:x", "trimmed:1:2"} {
		if _, err := ParseFitter(spec); err == nil {
			t.Errorf("ParseFitter(%q) accepted an invalid spec", spec)
		}
	}
}

// sortTrimmedFit is Trimmed.fit as it stood before the selection rewrite,
// kept as the reference the selection must reproduce bit for bit: each
// round sorts every (residual, index) pair, then sorts the survivors'
// indices.
func sortTrimmedFit(t Trimmed, ks keys.Set) (regression.Model, error) {
	if math.IsNaN(t.Pct) || t.Pct <= 0 || t.Pct >= 50 {
		return regression.Model{}, fmt.Errorf("robust: trim percentage %g outside (0, 50)", t.Pct)
	}
	n := ks.Len()
	full, err := regression.FitCDF(ks)
	if err != nil || n <= 2 {
		return full, err
	}
	drop := int(float64(n) * t.Pct / 100)
	if n-drop < 2 {
		drop = n - 2
	}
	if drop == 0 {
		return full, nil
	}
	// kept holds the surviving key indices, always in ascending order.
	kept := make([]int, n)
	for i := range kept {
		kept[i] = i
	}
	line := full.Line
	type scored struct {
		idx int
		r   float64
	}
	for round := 0; round < trimRounds; round++ {
		resid := make([]scored, len(kept))
		for j := range resid {
			i := kept[j]
			d := line.Predict(ks.At(i)) - float64(i+1)
			resid[j] = scored{idx: i, r: math.Abs(d)}
		}
		// Keep the len(kept)-drop smallest residuals; ties break on the
		// lower original index so the selection is deterministic.
		sort.Slice(resid, func(a, b int) bool {
			if resid[a].r != resid[b].r {
				return resid[a].r < resid[b].r
			}
			return resid[a].idx < resid[b].idx
		})
		keepN := len(kept) - drop
		if keepN < 2 {
			keepN = 2
		}
		next := make([]int, keepN)
		for j := 0; j < keepN; j++ {
			next[j] = resid[j].idx
		}
		sort.Ints(next)
		kept = next
		// Refit the survivors against their ORIGINAL 1-based ranks: the
		// model must still predict positions in the full stored array.
		x := make([]float64, len(kept))
		y := make([]float64, len(kept))
		for j, i := range kept {
			x[j] = float64(ks.At(i))
			y[j] = float64(i + 1)
		}
		line, err = regression.FitXY(x, y)
		if err != nil {
			return regression.Model{}, err
		}
	}
	loss, err := regression.EvaluateCDF(line, ks)
	if err != nil {
		return regression.Model{}, err
	}
	return regression.Model{Line: line, Loss: loss, N: n}, nil
}

// sortMedian is median as it stood before the selection rewrite: sort a
// copy, read the central element or pair.
func sortMedian(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m%2 == 1 {
		return s[m/2]
	}
	return (s[m/2-1] + s[m/2]) / 2
}

// sortTheilSenFit is TheilSen.Fit with both medians taken by sortMedian,
// the reference the selection must reproduce bit for bit.
func sortTheilSenFit(ks keys.Set) (regression.Model, error) {
	n := ks.Len()
	if n == 0 {
		return regression.Model{}, regression.ErrTooFew
	}
	if n == 1 {
		return regression.Model{Line: regression.Line{W: 0, B: 1}, Loss: 0, N: 1}, nil
	}
	h := n / 2
	slopes := make([]float64, n-h)
	for i := range slopes {
		slopes[i] = float64(h) / float64(ks.At(i+h)-ks.At(i))
	}
	w := sortMedian(slopes)
	resid := make([]float64, n)
	for i := range resid {
		resid[i] = float64(i+1) - w*float64(ks.At(i))
	}
	line := regression.Line{W: w, B: sortMedian(resid)}
	loss, err := regression.EvaluateCDF(line, ks)
	if err != nil {
		return regression.Model{}, err
	}
	return regression.Model{Line: line, Loss: loss, N: n}, nil
}

// sameBits reports whether two models agree bit for bit on every field.
func sameBits(a, b regression.Model) bool {
	return math.Float64bits(a.Line.W) == math.Float64bits(b.Line.W) &&
		math.Float64bits(a.Line.B) == math.Float64bits(b.Line.B) &&
		math.Float64bits(a.Loss) == math.Float64bits(b.Loss) &&
		a.N == b.N
}

// namedSet is a key set labelled with its input family.
type namedSet struct {
	name string
	ks   keys.Set
}

// referenceFamilies returns one key set of about n keys per input family
// the selection must reproduce the sort on: uniform keys; a perfect
// progression, whose residuals are rounding noise and tie heavily; uniform
// keys with a dense poison cluster at the high end; and uniform keys
// packed just under MaxInt64.
func referenceFamilies(t testing.TB, rng *xrand.RNG, n int) []namedSet {
	uniform, err := dataset.Uniform(rng, n, int64(n)*60)
	if err != nil {
		t.Fatal(err)
	}
	high := xrand.SampleInt64s(rng, n, int64(n)*60)
	for i, off := range high {
		high[i] = math.MaxInt64 - off
	}
	return []namedSet{
		{"uniform", uniform},
		{"progression", progression(t, rng.Int63n(1000), 1+rng.Int63n(50), n)},
		{"cluster", poisoned(t, uniform, n/8+1)},
		{"near-max", mustSet(t, high)},
	}
}

// checkTrimmedReference fits ks with f and fails unless the model is
// bit-identical to sortTrimmedFit's.
func checkTrimmedReference(t *testing.T, name string, f Trimmed, ks keys.Set) {
	t.Helper()
	want, wantErr := sortTrimmedFit(f, ks)
	got, err := f.Fit(ks)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s %s n=%d: err %v, reference err %v", name, f.Name(), ks.Len(), err, wantErr)
	}
	if !sameBits(got, want) {
		t.Fatalf("%s %s n=%d: %+v, reference %+v", name, f.Name(), ks.Len(), got, want)
	}
}

// TestTrimmedMatchesSortReference pins the selection-based trimmed fit to
// the sort-based reference bit for bit, over every input family, sizes
// from 3 to 3000, and trim percentages from the smallest to the largest
// accepted.
func TestTrimmedMatchesSortReference(t *testing.T) {
	sizes := []int{3, 4, 5, 9, 21, 255, 256, 257, 1459, 3000}
	for seed := uint64(1); seed <= 30; seed++ {
		rng := xrand.New(seed)
		n := 3 + rng.Intn(2998)
		if int(seed) <= len(sizes) {
			n = sizes[seed-1]
		}
		for _, fam := range referenceFamilies(t, rng, n) {
			for _, pct := range []float64{0.5, 10, 25, 49.9} {
				checkTrimmedReference(t, fam.name, Trimmed{Pct: pct}, fam.ks)
			}
		}
	}
}

// FuzzTrimmedFit runs the same differential on fuzzed keys: every eight
// bytes are one key (top bit cleared, so keys reach MaxInt64), and pct
// picks a trim percentage in [0.5, 49.5].
func FuzzTrimmedFit(f *testing.F) {
	f.Add(uint8(19), []byte("\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x03"))
	f.Add(uint8(98), []byte("\xff\xff\xff\xff\xff\xff\xff\xff\xfe\xff\xff\xff\xff\xff\xff\xff\x00\x00\x00\x00\x00\x00\x00\x00\x07\x00\x00\x00\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, pct uint8, data []byte) {
		raw := make([]int64, len(data)/8)
		for i := range raw {
			raw[i] = int64(binary.LittleEndian.Uint64(data[8*i:]) >> 1)
		}
		ks, err := keys.New(raw)
		if err != nil {
			t.Fatal(err)
		}
		checkTrimmedReference(t, "fuzz", Trimmed{Pct: float64(pct%99+1) / 2}, ks)
	})
}

// FuzzTheilSenFit runs the same differential for TheilSen against
// sortTheilSenFit, decoding keys as FuzzTrimmedFit does.
func FuzzTheilSenFit(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		raw := make([]int64, len(data)/8)
		for i := range raw {
			raw[i] = int64(binary.LittleEndian.Uint64(data[8*i:]) >> 1)
		}
		ks, err := keys.New(raw)
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := sortTheilSenFit(ks)
		got, err := TheilSen{}.Fit(ks)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("n=%d: err %v, reference err %v", ks.Len(), err, wantErr)
		}
		if !sameBits(got, want) {
			t.Fatalf("n=%d: %+v, reference %+v", ks.Len(), got, want)
		}
	})
}

// TestMedianMatchesSortReference pins the selection-based median to the
// sort-based one bit for bit, on raw slices of both parities (ties,
// sorted, reversed) and on TheilSen's own slope and residual inputs over
// every key family.
func TestMedianMatchesSortReference(t *testing.T) {
	rng := xrand.New(5)
	check := func(name string, xs []float64) {
		t.Helper()
		want := sortMedian(xs)
		got := median(slices.Clone(xs))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s len=%d: median %v, reference %v", name, len(xs), got, want)
		}
	}
	for m := 1; m <= 40; m++ {
		ties := make([]float64, m)
		for i := range ties {
			ties[i] = float64(rng.Intn(4))
		}
		random := make([]float64, m)
		for i := range random {
			random[i] = rng.NormFloat64()
		}
		sorted := slices.Clone(random)
		slices.Sort(sorted)
		reversed := slices.Clone(sorted)
		slices.Reverse(reversed)
		check("ties", ties)
		check("random", random)
		check("sorted", sorted)
		check("reversed", reversed)
	}
	for seed := uint64(1); seed <= 8; seed++ {
		rng := xrand.New(seed)
		n := 2 + rng.Intn(3000)
		for _, fam := range referenceFamilies(t, rng, n) {
			ks := fam.ks
			n := ks.Len()
			h := n / 2
			slopes := make([]float64, n-h)
			for i := range slopes {
				slopes[i] = float64(h) / float64(ks.At(i+h)-ks.At(i))
			}
			check(fam.name+" slopes", slopes)
			w := sortMedian(slopes)
			resid := make([]float64, n)
			for i := range resid {
				resid[i] = float64(i+1) - w*float64(ks.At(i))
			}
			check(fam.name+" residuals", resid)
		}
	}
}

// TestTrimmedFitAllocs holds the trimmed fit at the workload's mean shard
// size to a fixed budget: one residual buffer and one coordinate buffer,
// allocated once per fit and reused by both rounds, 24·n bytes before
// size-class rounding. Scratch of (residual, index) pairs would need twice
// that and fail the byte budget.
func TestTrimmedFitAllocs(t *testing.T) {
	const n = 1459
	ks, err := dataset.Uniform(xrand.New(n), n, n*60)
	if err != nil {
		t.Fatal(err)
	}
	fit := func() {
		if _, err := (Trimmed{Pct: 10}).Fit(ks); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(20, fit); allocs > 2 {
		t.Fatalf("Trimmed.Fit at n=%d: %v allocs per fit, budget 2", n, allocs)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		fit()
	}
	runtime.ReadMemStats(&after)
	if perFit := (after.TotalAlloc - before.TotalAlloc) / runs; perFit > 26*n {
		t.Fatalf("Trimmed.Fit at n=%d: %d bytes per fit, budget %d", n, perFit, 26*n)
	}
}

var benchModel regression.Model

// BenchmarkTrimmedFit times the trimmed fit at the benchmark workload's
// mean shard size (n=1459) and at n=1e5.
func BenchmarkTrimmedFit(b *testing.B) {
	for _, n := range []int{1459, 100_000} {
		ks, err := dataset.Uniform(xrand.New(uint64(n)), n, int64(n)*60)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := Trimmed{Pct: 10}.Fit(ks)
				if err != nil {
					b.Fatal(err)
				}
				benchModel = m
			}
		})
	}
}
