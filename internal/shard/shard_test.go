package shard

import (
	"math"
	"slices"
	"sort"
	"testing"

	"cdfpoison/internal/dataset"
	"cdfpoison/internal/dynamic"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/xrand"
)

func fixture(t testing.TB, n int) keys.Set {
	t.Helper()
	ks, err := dataset.Uniform(xrand.New(5), n, int64(n)*40)
	if err != nil {
		t.Fatal(err)
	}
	return ks
}

func TestNewValidation(t *testing.T) {
	ks := fixture(t, 20)
	if _, err := New(ks, 0, dynamic.ManualPolicy()); err == nil {
		t.Fatal("0 shards accepted")
	}
	if _, err := New(ks, 11, dynamic.ManualPolicy()); err == nil {
		t.Fatal("20 keys across 11 shards accepted (needs 2 per shard)")
	}
	if _, err := New(ks, 4, dynamic.EveryKInserts(0)); err == nil {
		t.Fatal("invalid policy accepted")
	}
}

// TestRouterInvariants: the router covers the key space with disjoint
// contiguous ranges, every initial key lands in a live shard, every shard
// got at least two keys, and routing is consistent between partition (used
// at construction) and route (used forever after).
func TestRouterInvariants(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7, 16} {
		ks := fixture(t, 800)
		x, err := New(ks, n, dynamic.ManualPolicy())
		if err != nil {
			t.Fatalf("shards=%d: %v", n, err)
		}
		if x.NumShards() != n {
			t.Fatalf("shards=%d: got %d", n, x.NumShards())
		}
		if len(x.cuts) != n-1 {
			t.Fatalf("shards=%d: %d cuts", n, len(x.cuts))
		}
		for i := 1; i < len(x.cuts); i++ {
			if x.cuts[i-1] >= x.cuts[i] {
				t.Fatalf("shards=%d: cuts not strictly increasing: %v", n, x.cuts)
			}
		}
		total := 0
		for i := 0; i < n; i++ {
			s := x.Shard(i)
			if s.Len() < 2 {
				t.Fatalf("shards=%d: shard %d holds %d keys", n, i, s.Len())
			}
			total += s.Len()
			// Every key stored in shard i must route back to shard i.
			sk := s.Keys()
			for j := 0; j < sk.Len(); j++ {
				if got, _ := x.route(sk.At(j)); got != i {
					t.Fatalf("shards=%d: key %d stored in shard %d routes to %d",
						n, sk.At(j), i, got)
				}
			}
		}
		if total != ks.Len() {
			t.Fatalf("shards=%d: %d keys partitioned, want %d", n, total, ks.Len())
		}
		if !x.Keys().Equal(ks) {
			t.Fatalf("shards=%d: Keys() does not reassemble the initial set", n)
		}
	}
}

// TestSingleShardMatchesDynamic is the serving layer's ground truth: with
// one shard the router has no cuts and adds no probes, so every Lookup,
// Insert, Stats, and ProbeSum result is identical to a plain dynamic index
// driven with the same operations.
func TestSingleShardMatchesDynamic(t *testing.T) {
	ks := fixture(t, 400)
	policy := dynamic.BufferLimit(32)
	x, err := New(ks, 1, policy)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dynamic.New(ks, policy)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(77)
	for op := 0; op < 2_000; op++ {
		k := rng.Int63n(int64(ks.Len()) * 40)
		switch rng.Intn(3) {
		case 0:
			sa, sr := x.Insert(k)
			da, dr := d.Insert(k)
			if sa != da || sr != dr {
				t.Fatalf("op %d: Insert(%d) diverged: shard (%v,%v) vs dynamic (%v,%v)",
					op, k, sa, sr, da, dr)
			}
		case 1:
			if sr, dr := x.Lookup(k), d.Lookup(k); sr != dr {
				t.Fatalf("op %d: Lookup(%d) diverged: %+v vs %+v", op, k, sr, dr)
			}
		default:
			if ss, ds := x.Stats(), d.Stats(); ss != ds {
				t.Fatalf("op %d: Stats diverged: %+v vs %+v", op, ss, ds)
			}
		}
	}
	x.Retrain()
	d.Retrain()
	queries := ks.Keys()
	sp, sm := x.ProbeSum(queries)
	dp, dm := d.ProbeSum(queries)
	if sp != dp || sm != dm {
		t.Fatalf("ProbeSum diverged after retrain: (%d,%d) vs (%d,%d)", sp, sm, dp, dm)
	}
}

// TestShardingIsolatesDamage: flooding one shard's range leaves the other
// shards' models untouched and shows up as imbalance.
func TestShardingIsolatesDamage(t *testing.T) {
	ks := fixture(t, 600)
	x, err := New(ks, 4, dynamic.ManualPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if got := x.Imbalance(); got > 1.2 {
		t.Fatalf("initial imbalance %v — router should split near-evenly", got)
	}
	before := x.ShardStats()
	// Flood the first shard's range with fresh keys.
	cut := x.cuts[0]
	accepted := 0
	for k := ks.Min() + 1; k < cut && accepted < 200; k++ {
		if ok, _ := x.Insert(k); ok {
			accepted++
		}
	}
	if accepted == 0 {
		t.Fatal("flood inserted nothing")
	}
	after := x.ShardStats()
	if after[0].Buffered != accepted {
		t.Fatalf("shard 0 buffered %d, want %d", after[0].Buffered, accepted)
	}
	for i := 1; i < 4; i++ {
		if after[i] != before[i] {
			t.Fatalf("shard %d changed by a flood outside its range: %+v vs %+v",
				i, after[i], before[i])
		}
	}
	if x.Imbalance() <= 1.2 {
		t.Fatalf("imbalance %v did not register a %d-key flood", x.Imbalance(), accepted)
	}
}

// TestSkewedDataFallsBackToQuantiles: heavily clustered keys defeat the
// fitted-line cuts; construction must still succeed with every shard
// populated (the empirical-quantile fallback).
func TestSkewedDataFallsBackToQuantiles(t *testing.T) {
	// 200 keys clustered at the bottom, 4 far outliers: one line cannot
	// split this into 8 populated ranges.
	raw := make([]int64, 0, 204)
	for i := int64(0); i < 200; i++ {
		raw = append(raw, i)
	}
	raw = append(raw, 1<<40, 1<<41, 1<<42, 1<<43)
	ks, err := keys.NewStrict(raw)
	if err != nil {
		t.Fatal(err)
	}
	x, err := New(ks, 8, dynamic.ManualPolicy())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if x.Shard(i).Len() < 2 {
			t.Fatalf("shard %d under-populated on skewed data", i)
		}
	}
	if !x.Keys().Equal(ks) {
		t.Fatal("skewed partition lost keys")
	}
}

// TestSnapshotAllocsPerChangedShard: a capture after one insert allocates
// a new view only for the shard the insert reached, so an 8-shard capture
// allocates no more objects than a 1-shard one. Both indexes see the same
// insert stream, uniform over the fixture's domain.
func TestSnapshotAllocsPerChangedShard(t *testing.T) {
	ks := fixture(t, 4_000)
	allocs := func(shards int) float64 {
		x, err := New(ks, shards, dynamic.ManualPolicy())
		if err != nil {
			t.Fatal(err)
		}
		x.Snapshot()
		rng := xrand.New(9)
		return testing.AllocsPerRun(200, func() {
			x.Insert(rng.Int63n(int64(ks.Len()) * 40))
			x.Snapshot()
		})
	}
	one, eight := allocs(1), allocs(8)
	if eight > one {
		t.Fatalf("capture after one insert: 8 shards allocate %.2f objects, 1 shard %.2f", eight, one)
	}
}

// TestWindowAtCuts reads windows at both sides of every router cut, where a
// window crosses from the owning shard into its neighbours, against the
// window cut from Keys(): keys cut−1, cut and cut+1 route to different
// shards but read one content. Buffered keys pile up at the shards' edges
// first, and some widths reach past a whole neighbouring shard.
func TestWindowAtCuts(t *testing.T) {
	ks := fixture(t, 200)
	x, err := New(ks, 8, dynamic.ManualPolicy())
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range x.cuts {
		for d := int64(1); d <= 3; d++ {
			x.Insert(cut - d)
			x.Insert(cut + d)
		}
	}
	all := x.Keys().Keys()
	n := len(all)
	for _, cut := range x.cuts {
		for _, q := range []int64{cut - 1, cut, cut + 1} {
			for _, w := range []int{0, 1, 3, 8, 16, 40, n, n + 1, math.MaxInt} {
				pos, near := x.Window(q, w, nil)
				want := sort.Search(n, func(i int) bool { return all[i] >= q })
				cw := min(w, n)
				if pos != want || !slices.Equal(near, all[max(pos-cw, 0):min(pos+cw, n)]) {
					t.Fatalf("Window(%d, %d) = %d, %v; Keys() gives %d, %v",
						q, w, pos, near, want, all[max(want-cw, 0):min(want+cw, n)])
				}
			}
		}
	}
}

// TestKeysConcatenatesShards: the one-allocation Keys equals the shard-order
// concatenation of every shard's own Keys, and both hold exactly the
// initial keys plus the accepted inserts, with buffered keys in several
// shards, and after a retrain empties the buffers.
func TestKeysConcatenatesShards(t *testing.T) {
	ks := fixture(t, 400)
	x, err := New(ks, 8, dynamic.ManualPolicy())
	if err != nil {
		t.Fatal(err)
	}
	held := slices.Clone(ks.Keys())
	rng := xrand.New(13)
	check := func(when string) {
		t.Helper()
		var concat []int64
		for i := 0; i < x.NumShards(); i++ {
			concat = append(concat, x.Shard(i).Keys().Keys()...)
		}
		want := slices.Clone(held)
		slices.Sort(want)
		if got := x.Keys().Keys(); !slices.Equal(got, concat) || !slices.Equal(got, want) {
			t.Fatalf("%s: Keys() holds %d keys, the shard concatenation %d, the keys written %d, or they differ",
				when, len(got), len(concat), len(want))
		}
	}
	check("fresh")
	for i := 0; i < 60; i++ {
		k := rng.Int63n(int64(ks.Len()) * 40)
		if ok, _ := x.Insert(k); ok {
			held = append(held, k)
		}
	}
	check("buffered")
	x.Retrain()
	check("retrained")
}
