package defense

// BenchmarkGuardProbeSum pins the batch-forwarding contract of
// Guard.ProbeSum: the guard hands the WHOLE query batch to the wrapped
// backend's batch path in one call, instead of looping single Lookups
// through two interface layers (the reference index.ProbeSum shape). The
// totals are identical either way — integer probe sums are
// partition-invariant — so the only difference is dispatch overhead on the
// serving scenarios' hottest evaluation path; this benchmark records the
// delta so a regression back to the per-key loop is visible.
//
// BenchmarkGuardInsert, TestGuardRejectAllocs and
// TestLossSpikeKernelSurvivesInserts cover the write side: the cost of a
// screened insert, a zero-allocation rejected offer, and a lossspike
// kernel kept current instead of rebuilt per write.

import (
	"math"
	"runtime"
	"testing"

	"cdfpoison/internal/btree"
	"cdfpoison/internal/dataset"
	"cdfpoison/internal/dynamic"
	"cdfpoison/internal/index"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/regression"
	"cdfpoison/internal/shard"
	"cdfpoison/internal/xrand"
)

func guardOver(b *testing.B, backend index.Backend) (*Guard, []int64) {
	b.Helper()
	g := NewGuard(backend, GuardOptions{})
	return g, backend.Keys().Keys()
}

func benchProbeSum(b *testing.B, build func(b *testing.B) index.Backend) {
	b.Run("forwarded", func(b *testing.B) {
		g, queries := guardOver(b, build(b))
		var sink int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p, _ := g.ProbeSum(queries)
			sink += p
		}
		_ = sink
	})
	b.Run("per-key-loop", func(b *testing.B) {
		g, queries := guardOver(b, build(b))
		var sink int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// The shape Guard.ProbeSum would degenerate to without the
			// batch forward: one interface dispatch per key, through the
			// guard AND the backend.
			p, _ := index.ProbeSum(g, queries)
			sink += p
		}
		_ = sink
	})
}

// guardInsertFixture is the write-path fixture: a BufferLimit(64) shard-8
// index over n uniform keys behind the density/dupmass chain, with its
// content already built.
func guardInsertFixture(tb testing.TB, ks keys.Set) *Guard {
	return guardFixture(tb, ks, "density:8:3|dupmass:3:3")
}

// guardFixture is guardInsertFixture behind the chain spec, with its
// content (and a lossspike kernel) already built.
func guardFixture(tb testing.TB, ks keys.Set, spec string) *Guard {
	tb.Helper()
	s, err := shard.New(ks, 8, dynamic.BufferLimit(64))
	if err != nil {
		tb.Fatal(err)
	}
	chain, err := ParsePolicyChain(spec)
	if err != nil {
		tb.Fatal(err)
	}
	g := NewGuard(s, GuardOptions{Policies: chain})
	g.suspicious(ks.Min()) // warm the content
	return g
}

// BenchmarkGuardInsert times one honest uniform write through the guard:
// screening plus the backend insert plus the content's update (the
// lossspike kernel's Insert under the lossspike chain). The descending row
// writes a run of new minimums instead, each of which moves the lossspike
// kernel's origin. Every 4096 writes the fixture is rebuilt off the clock
// so the index size stays near n.
func BenchmarkGuardInsert(b *testing.B) {
	const n, domain, cycle = 10_000, 1_000_000, 4096
	raw, err := dataset.Uniform(xrand.New(3), n, domain)
	if err != nil {
		b.Fatal(err)
	}
	shifted := make([]int64, n)
	for i, k := range raw.Keys() {
		shifted[i] = k + domain // room below for the descending run
	}
	ks := keys.FromSorted(shifted)
	rng := xrand.New(5)
	uniform, descending := make([]int64, cycle), make([]int64, cycle)
	for i := range uniform {
		uniform[i] = domain + rng.Int63n(domain)
		descending[i] = ks.Min() - 1 - int64(i)
	}
	for _, row := range []struct {
		name, spec string
		writes     []int64
	}{
		{"density:8:3|dupmass:3:3", "density:8:3|dupmass:3:3", uniform},
		{"lossspike:1.5", "lossspike:1.5", uniform},
		{"lossspike:1.5/descending", "lossspike:1.5", descending},
	} {
		b.Run(row.name, func(b *testing.B) {
			var g *Guard
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%cycle == 0 {
					b.StopTimer()
					g = guardFixture(b, ks, row.spec)
					b.StartTimer()
				}
				g.Insert(row.writes[i%cycle])
			}
		})
	}
}

// TestLossSpikeKernelSurvivesInserts: the lossspike kernel is built once
// and then absorbs each accepted insert instead of being rebuilt, on the
// rank path (shard-8) and on the fallback (B-Tree), where it inserts
// through the mirror instead of keeping a second copy. Interior keys go
// through Prefix.Insert; a new minimum moves the kernel's origin, so the
// kernel re-bases in place over its own keys, without a fresh copy. Its
// moments stay those of a from-scratch build, so decisions do not change.
func TestLossSpikeKernelSurvivesInserts(t *testing.T) {
	raw, err := dataset.Uniform(xrand.New(3), 2000, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	shifted := make([]int64, raw.Len())
	for i, k := range raw.Keys() {
		shifted[i] = k + 1_000_000 // room for a run of new minimums
	}
	ks, err := keys.New(shifted)
	if err != nil {
		t.Fatal(err)
	}
	backends := map[string]func() (index.Backend, error){
		"shard-8": func() (index.Backend, error) { return shard.New(ks, 8, dynamic.BufferLimit(64)) },
		"btree":   func() (index.Backend, error) { return btree.Bulk(32, ks.Keys()) },
	}
	for name, build := range backends {
		t.Run(name, func(t *testing.T) {
			b, err := build()
			if err != nil {
				t.Fatal(err)
			}
			g := NewGuard(b, GuardOptions{Policies: []Policy{LossSpikePolicy{Ratio: 1.5}}})
			g.suspicious(ks.Min() + 1)
			kernel := g.content.oracle
			if kernel == nil {
				t.Fatal("kernel not built")
			}
			if g.content.mirror != nil && !kernelSharesMirror(g.content) {
				t.Fatal("the fallback's kernel keeps a second key copy beside the mirror")
			}
			matchesFresh := func(when string) {
				t.Helper()
				want, err := regression.NewPrefix(b.Keys())
				if err != nil {
					t.Fatal(err)
				}
				got := g.content.LossOracle()
				if got != kernel {
					t.Fatalf("%s: kernel rebuilt", when)
				}
				if math.Float64bits(got.CleanLoss()) != math.Float64bits(want.CleanLoss()) {
					t.Fatalf("%s: kernel CleanLoss %v, from scratch %v", when, got.CleanLoss(), want.CleanLoss())
				}
				for _, q := range []int64{ks.Min() + 3, ks.At(700) + 1, ks.Max() - 5, ks.Max() + 1000} {
					gl, gok := got.PoisonedLossAuto(q)
					wl, wok := want.PoisonedLossAuto(q)
					if gok != wok || math.Float64bits(gl) != math.Float64bits(wl) {
						t.Fatalf("%s: PoisonedLossAuto(%d) = (%v, %v), from scratch (%v, %v)", when, q, gl, gok, wl, wok)
					}
				}
			}
			rng := xrand.New(17)
			accepted := 0
			for i := 0; i < 1000 && accepted < 40; i++ {
				k := ks.Min() + 1 + rng.Int63n(ks.Max()-ks.Min()-1)
				if ok, _ := g.Insert(k); ok {
					accepted++
				}
				if g.content.oracle != kernel {
					t.Fatalf("kernel rebuilt after %d accepted interior inserts", accepted)
				}
			}
			if accepted < 40 {
				t.Fatalf("only %d interior inserts accepted", accepted)
			}
			matchesFresh("after interior inserts")
			const run = 20
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for j := int64(1); j <= run; j++ {
				if ok, _ := g.Insert(ks.Min() - j); !ok {
					t.Fatalf("new minimum %d refused", ks.Min()-j)
				}
			}
			runtime.ReadMemStats(&after)
			// A fresh copy of the keys would cost 8 bytes per key.
			if per := (after.TotalAlloc - before.TotalAlloc) / run; per > 2*uint64(ks.Len()) {
				t.Fatalf("a new minimum allocated %d bytes, over a quarter of one key copy", per)
			}
			matchesFresh("after a run of new minimums")
		})
	}
}

// TestGuardRejectAllocs: a rejected (flagged) offer against a built content
// copy allocates nothing — a poison storm costs the guard no garbage.
func TestGuardRejectAllocs(t *testing.T) {
	raw := make([]int64, 0, 2000)
	for i := int64(0); i < 1990; i++ {
		raw = append(raw, 100+i*500)
	}
	for k := int64(1_000_001); k <= 1_000_010; k++ { // a dense run
		raw = append(raw, k)
	}
	ks, err := keys.New(raw)
	if err != nil {
		t.Fatal(err)
	}
	g := guardInsertFixture(t, ks)
	if ok, _ := g.Insert(1_000_011); ok {
		t.Fatal("run-adjacent key accepted")
	}
	allocs := testing.AllocsPerRun(100, func() { g.Insert(1_000_011) })
	if allocs != 0 {
		t.Fatalf("rejected offer allocated %v times, want 0", allocs)
	}
}

func BenchmarkGuardProbeSum(b *testing.B) {
	ks, err := dataset.Uniform(xrand.New(3), 20_000, 800_000)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("dynamic", func(b *testing.B) {
		benchProbeSum(b, func(b *testing.B) index.Backend {
			d, err := dynamic.New(ks, dynamic.ManualPolicy())
			if err != nil {
				b.Fatal(err)
			}
			return d
		})
	})
	b.Run("shard-8", func(b *testing.B) {
		benchProbeSum(b, func(b *testing.B) index.Backend {
			s, err := shard.New(ks, 8, dynamic.ManualPolicy())
			if err != nil {
				b.Fatal(err)
			}
			return s
		})
	})
}
