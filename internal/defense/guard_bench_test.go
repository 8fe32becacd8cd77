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
// BenchmarkGuardInsert and TestGuardRejectAllocs cover the write side: the
// cost of a screened insert with the incrementally maintained content, and
// a zero-allocation rejected offer.

import (
	"testing"

	"cdfpoison/internal/dataset"
	"cdfpoison/internal/dynamic"
	"cdfpoison/internal/index"
	"cdfpoison/internal/keys"
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
// content copy already built.
func guardInsertFixture(tb testing.TB, ks keys.Set) *Guard {
	tb.Helper()
	s, err := shard.New(ks, 8, dynamic.BufferLimit(64))
	if err != nil {
		tb.Fatal(err)
	}
	chain, err := ParsePolicyChain("density:8:3|dupmass:3:3")
	if err != nil {
		tb.Fatal(err)
	}
	g := NewGuard(s, GuardOptions{Policies: chain})
	g.suspicious(ks.Min()) // warm the content copy
	return g
}

// BenchmarkGuardInsert times one honest uniform write through the guard:
// screening plus the backend insert plus the content copy's update. Every
// 4096 writes the fixture is rebuilt off the clock so the index size stays
// near n.
func BenchmarkGuardInsert(b *testing.B) {
	const n, domain, cycle = 10_000, 1_000_000, 4096
	ks, err := dataset.Uniform(xrand.New(3), n, domain)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(5)
	writes := make([]int64, cycle)
	for i := range writes {
		writes[i] = rng.Int63n(domain)
	}
	var g *Guard
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%cycle == 0 {
			b.StopTimer()
			g = guardInsertFixture(b, ks)
			b.StartTimer()
		}
		g.Insert(writes[i%cycle])
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
