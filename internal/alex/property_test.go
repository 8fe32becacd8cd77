package alex

// Property tests: for random seeded insert sequences, the gapped-array
// invariants hold after EVERY operation. checkInvariants is the single
// structural oracle — the fuzz harness replays it on adversarial byte
// streams, the property tests on seeded random streams.

import (
	"testing"

	"cdfpoison/internal/dataset"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/xrand"
)

// checkInvariants asserts every structural invariant of the index:
//
//   - per leaf: the slot array is non-decreasing, occupied keys strictly
//     increase, every free slot copies its nearest occupied left neighbour
//     (leading gaps copy the first key), and used matches the bitmap;
//   - across leaves: key ranges are disjoint and ordered, every stored key
//     routes back to the leaf holding it, and lows[i] bounds leaf i's keys
//     from below (leaf 0 absorbs anything smaller);
//   - density: no leaf sits at or above the split threshold (splits resolve
//     within the insert that crossed them), so inserts always find a gap;
//   - fanout: the leaf count respects the root's fanout limit (cascades
//     resolve within the triggering insert);
//   - search: every stored key is found, with the model's prediction error
//     covered by the exponential-search envelope (probes and window >= 1);
//   - content: Len/Keys equal the reference mirror exactly.
func checkInvariants(t testing.TB, x *Index, mirror keys.Set) {
	t.Helper()
	total := 0
	for i, nd := range x.v.nodes {
		capSlots := len(nd.slots)
		used := 0
		prevKey := int64(-1)
		firstSeen := false
		var left int64
		for s := 0; s < capSlots; s++ {
			if s > 0 && nd.slots[s] < nd.slots[s-1] {
				t.Fatalf("leaf %d: slots decrease at %d (%d -> %d)", i, s, nd.slots[s-1], nd.slots[s])
			}
			if nd.occ[s] {
				used++
				if nd.slots[s] <= prevKey && firstSeen {
					t.Fatalf("leaf %d: occupied keys not strictly increasing at slot %d", i, s)
				}
				prevKey, left, firstSeen = nd.slots[s], nd.slots[s], true
				continue
			}
			want := left
			if !firstSeen {
				want = nd.firstKey()
			}
			if nd.slots[s] != want {
				t.Fatalf("leaf %d: gap slot %d holds %d, want copy %d", i, s, nd.slots[s], want)
			}
		}
		if used != nd.used {
			t.Fatalf("leaf %d: used=%d but bitmap counts %d", i, nd.used, used)
		}
		if used == 0 {
			t.Fatalf("leaf %d: empty", i)
		}
		if nd.splitDue() {
			t.Fatalf("leaf %d: at split density %d/%d after op", i, nd.used, capSlots)
		}
		if i > 0 && nd.firstKey() < x.v.lows[i] {
			t.Fatalf("leaf %d: min key %d below routing boundary %d", i, nd.firstKey(), x.v.lows[i])
		}
		if i+1 < len(x.v.nodes) && prevKey >= x.v.lows[i+1] {
			t.Fatalf("leaf %d: max key %d reaches next boundary %d", i, prevKey, x.v.lows[i+1])
		}
		total += used
	}
	if total != x.v.total {
		t.Fatalf("total=%d but leaves hold %d", x.v.total, total)
	}
	if len(x.v.nodes) > x.fanoutLimit {
		t.Fatalf("fanout %d exceeds limit %d after op", len(x.v.nodes), x.fanoutLimit)
	}
	if x.Len() != mirror.Len() {
		t.Fatalf("Len=%d, mirror has %d", x.Len(), mirror.Len())
	}
	if !x.Keys().Equal(mirror) {
		t.Fatal("content diverged from mirror")
	}
	st := x.Stats()
	for i := 0; i < mirror.Len(); i++ {
		r := x.Lookup(mirror.At(i))
		if !r.Found {
			t.Fatalf("stored key %d not found", mirror.At(i))
		}
		if r.Probes < 1 || r.Window < 1 {
			t.Fatalf("lookup of %d: probes=%d window=%d", mirror.At(i), r.Probes, r.Window)
		}
		if r.Window > st.Window {
			t.Fatalf("lookup window %d exceeds the stats envelope %d", r.Window, st.Window)
		}
	}
}

func TestGappedArrayInvariantsRandom(t *testing.T) {
	for _, seed := range []uint64{1, 7, 5416} {
		rng := xrand.New(seed)
		initial, err := dataset.Uniform(rng, 150, 7500)
		if err != nil {
			t.Fatal(err)
		}
		x, err := New(initial, 16)
		if err != nil {
			t.Fatal(err)
		}
		mirror := initial
		checkInvariants(t, x, mirror)
		for op := 0; op < 500; op++ {
			k := rng.Int63n(9000)
			acc, _ := x.Insert(k)
			if acc != !mirror.Contains(k) {
				t.Fatalf("seed %d op %d: Insert(%d) accepted=%v, mirror says %v",
					seed, op, k, acc, !mirror.Contains(k))
			}
			if acc {
				mirror, _ = mirror.Insert(k)
			}
			checkInvariants(t, x, mirror)
		}
		// An explicit rebuild restores ~50% density everywhere and keeps
		// every invariant and every key.
		x.Retrain()
		checkInvariants(t, x, mirror)
	}
}

// TestGappedArrayInvariantsClustered drives the adversarial shape the
// cascade attack exploits — tightly clustered inserts into one region —
// through the same oracle, checking shifts, splits, and cascades leave the
// structure sound at every step.
func TestGappedArrayInvariantsClustered(t *testing.T) {
	initial, err := dataset.Uniform(xrand.New(3), 64, 64_000)
	if err != nil {
		t.Fatal(err)
	}
	x, err := New(initial, 8)
	if err != nil {
		t.Fatal(err)
	}
	mirror := initial
	base := initial.At(initial.Len() / 2)
	for d := int64(1); d <= 400; d++ {
		for _, k := range []int64{base + d, base - d} {
			if acc, _ := x.Insert(k); acc {
				mirror, _ = mirror.Insert(k)
			}
			checkInvariants(t, x, mirror)
		}
	}
	if x.Struct().Splits == 0 {
		t.Fatal("clustered inserts never split a leaf — the scenario exercised nothing")
	}
	if x.Struct().Cascades == 0 {
		t.Fatal("clustered inserts never cascaded — the scenario exercised nothing")
	}
}
