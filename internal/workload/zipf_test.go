package workload

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"testing"

	"cdfpoison/internal/xrand"
)

// TestZipfRankMatchesBinarySearch: the guide-table inversion returns the
// rank sort.SearchFloat64s returns, for random draws and for the draws
// that sit on or just below every table entry, where an off-by-one in the
// bucket arithmetic would show. u = 1 is never fed: Float64 cannot return
// it.
func TestZipfRankMatchesBinarySearch(t *testing.T) {
	rng := xrand.New(17)
	// The sizes straddle the parallel-terms cutoff and include the
	// degenerate one-, two- and three-rank tables.
	for _, n := range []int{1, 2, 3, 1000, parallelTermsMin - 1, parallelTermsMin + 1, 100_000} {
		for _, theta := range []float64{1e-3, 0.5, 1, 1.1, 2, 50} {
			z := newZipfTable(n, theta)
			if len(z.guide) != n+1 || z.cum[n-1] != 1 || int(z.guide[n]) > n-1 {
				t.Fatalf("n=%d theta=%g: guide len %d, cum[n-1] %v, guide[n] %d",
					n, theta, len(z.guide), z.cum[n-1], z.guide[n])
			}
			check := func(u float64) {
				t.Helper()
				if got, want := z.rank(u), sort.SearchFloat64s(z.cum, u); got != want {
					t.Fatalf("n=%d theta=%g u=%v: rank %d, binary search %d", n, theta, u, got, want)
				}
			}
			check(0)
			check(math.Nextafter(1, 0))
			for i := 0; i < 2000; i++ {
				check(rng.Float64())
			}
			for _, c := range z.cum {
				if c < 1 {
					check(c)
				}
				check(math.Nextafter(c, 0))
			}
		}
	}
}

// sequentialCum is the one-pass table build, weights summed as they are
// computed: the reference every float of newZipfTable must equal.
func sequentialCum(n int, theta float64) []float64 {
	cum := make([]float64, n)
	sum := 0.0
	for r := 1; r <= n; r++ {
		sum += math.Pow(float64(r), -theta)
		cum[r-1] = sum
	}
	for i := range cum {
		cum[i] /= sum
	}
	return cum
}

// TestZipfTableMatchesSequential: the chunked weight computation leaves
// every cumulative weight bit-identical to the sequential build, on both
// sides of the cutoff and for chunk counts that do and do not divide n.
func TestZipfTableMatchesSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, runtime.NumCPU(), 3} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{parallelTermsMin - 1, parallelTermsMin, parallelTermsMin + 1, 100_000} {
			for _, theta := range []float64{0.5, 1.1} {
				got, want := newZipfTable(n, theta).cum, sequentialCum(n, theta)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("GOMAXPROCS=%d n=%d theta=%g: cum[%d] = %v, sequential %v",
							procs, n, theta, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestZipfStreamGolden pins the first 2e5 ops of the serving benchmark's
// mix over 1e5 keys to a hash recorded with the binary-search inversion:
// a change to the table or its inversion that moves any drawn op fails
// here.
func TestZipfStreamGolden(t *testing.T) {
	ks := fixture(t, 100_000)
	spec, err := ParseSpec("zipf:1.1:95")
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(spec, ks, 10_000_000, 41)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var rec [9]byte
	for _, op := range g.Ops(200_000) {
		rec[0] = 0
		if op.Read {
			rec[0] = 1
		}
		binary.LittleEndian.PutUint64(rec[1:], uint64(op.Key))
		h.Write(rec[:])
	}
	if got := h.Sum64(); got != 0x6cc882bd011c71a6 {
		t.Fatalf("stream hash %016x, want 6cc882bd011c71a6", got)
	}
}

func BenchmarkNewGeneratorZipf(b *testing.B) {
	ks := fixture(b, 100_000)
	for i := 0; i < b.N; i++ {
		if _, err := NewGenerator(NewZipf(1.1, 95), ks, 10_000_000, 41); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpsInto(b *testing.B) {
	ks := fixture(b, 100_000)
	for _, spec := range []Spec{NewZipf(1.1, 95), NewUniform(95)} {
		b.Run(spec.Kind.String(), func(b *testing.B) {
			g, err := NewGenerator(spec, ks, 10_000_000, 41)
			if err != nil {
				b.Fatal(err)
			}
			var ops []Op
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ops = g.OpsInto(ops, 50_000)
			}
		})
	}
}
