package index_test

// Cross-backend conformance: every substrate behind index.Backend obeys the
// same observable contract, checked through the interface alone. This is
// the test that makes "swap any backend under any scenario" a guarantee
// rather than a hope: a new backend only has to join the factory table.

import (
	"math"
	"slices"
	"testing"

	"cdfpoison/internal/alex"
	"cdfpoison/internal/btree"
	"cdfpoison/internal/dataset"
	"cdfpoison/internal/defense"
	"cdfpoison/internal/dynamic"
	"cdfpoison/internal/index"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/rmi"
	"cdfpoison/internal/shard"
	"cdfpoison/internal/xrand"
)

// backendFactories enumerates every index.Backend implementation in the
// repository.
func backendFactories() map[string]func(keys.Set) (index.Backend, error) {
	return map[string]func(keys.Set) (index.Backend, error){
		"dynamic": func(ks keys.Set) (index.Backend, error) {
			return dynamic.New(ks, dynamic.ManualPolicy())
		},
		"btree": func(ks keys.Set) (index.Backend, error) {
			return btree.Bulk(32, ks.Keys())
		},
		"rmi-single": func(ks keys.Set) (index.Backend, error) {
			return rmi.NewSingle(ks)
		},
		"shard-4": func(ks keys.Set) (index.Backend, error) {
			return shard.New(ks, 4, dynamic.ManualPolicy())
		},
		"guarded-dynamic": func(ks keys.Set) (index.Backend, error) {
			b, err := dynamic.New(ks, dynamic.ManualPolicy())
			if err != nil {
				return nil, err
			}
			return defense.NewGuard(b, defense.GuardOptions{}), nil
		},
		// A guard running an explicit policy CHAIN over a sharded substrate:
		// exercises the composable-detector path through the full plane
		// contract. The chain is tuned so the conformance inserts (wide-gap
		// midpoints) always pass.
		"guarded-shard": func(ks keys.Set) (index.Backend, error) {
			b, err := shard.New(ks, 4, dynamic.ManualPolicy())
			if err != nil {
				return nil, err
			}
			return defense.NewGuard(b, defense.GuardOptions{Policies: []defense.Policy{
				defense.DupMassPolicy{Window: 2, Count: 3},
				defense.GapOutlierPolicy{Ratio: 32},
			}}), nil
		},
		"alex": func(ks keys.Set) (index.Backend, error) {
			return alex.New(ks, 32)
		},
		// The density guard over the balanced-split gapped array — the
		// cascade scenario's hardened victim, plane for plane.
		"guarded-alex": func(ks keys.Set) (index.Backend, error) {
			b, err := alex.NewBalanced(ks, 32)
			if err != nil {
				return nil, err
			}
			return defense.NewGuard(b, defense.GuardOptions{}), nil
		},
	}
}

func fixture(t *testing.T, n int) keys.Set {
	t.Helper()
	ks, err := dataset.Uniform(xrand.New(11), n, int64(n)*50)
	if err != nil {
		t.Fatal(err)
	}
	return ks
}

func TestBackendConformance(t *testing.T) {
	initial := fixture(t, 500)
	queries := append(append([]int64(nil), initial.Keys()...), 1, 3, 5, 7, 1<<40)
	for name, build := range backendFactories() {
		t.Run(name, func(t *testing.T) {
			b, err := build(initial)
			if err != nil {
				t.Fatal(err)
			}
			if b.Len() != initial.Len() {
				t.Fatalf("Len = %d, want %d", b.Len(), initial.Len())
			}
			if !b.Keys().Equal(initial) {
				t.Fatal("Keys() does not round-trip the initial set")
			}
			// Every stored key is found; probes are positive.
			for i := 0; i < initial.Len(); i++ {
				r := b.Lookup(initial.At(i))
				if !r.Found {
					t.Fatalf("stored key %d not found", initial.At(i))
				}
				if r.Probes < 1 {
					t.Fatalf("lookup of %d cost %d probes", initial.At(i), r.Probes)
				}
			}
			// ProbeSum is exactly the per-key Lookup sum (the reference
			// implementation in the index package).
			gotProbes, gotMiss := b.ProbeSum(queries)
			wantProbes, wantMiss := index.ProbeSum(b, queries)
			if gotProbes != wantProbes || gotMiss != wantMiss {
				t.Fatalf("ProbeSum = (%d, %d), reference = (%d, %d)",
					gotProbes, gotMiss, wantProbes, wantMiss)
			}
			// ProbeSum is partition-invariant: any split folds to the total.
			for _, cut := range []int{1, 7, len(queries) / 2, len(queries) - 1} {
				aProbes, aMiss := b.ProbeSum(queries[:cut])
				bProbes, bMiss := b.ProbeSum(queries[cut:])
				if aProbes+bProbes != gotProbes || aMiss+bMiss != gotMiss {
					t.Fatalf("ProbeSum not partition-invariant at cut %d", cut)
				}
			}
			// Duplicate inserts are rejected; a fresh interior key is
			// accepted, visible, and survives a retrain.
			if ok, _ := b.Insert(initial.At(0)); ok {
				t.Fatal("duplicate insert accepted")
			}
			fresh := freshKey(initial)
			if ok, _ := b.Insert(fresh); !ok {
				t.Fatalf("fresh key %d rejected", fresh)
			}
			if b.Len() != initial.Len()+1 {
				t.Fatalf("Len = %d after one accepted insert", b.Len())
			}
			if r := b.Lookup(fresh); !r.Found {
				t.Fatal("accepted key not found before retrain")
			}
			b.Retrain()
			if r := b.Lookup(fresh); !r.Found {
				t.Fatal("accepted key lost by retrain")
			}
			if st := b.Stats(); st.Keys != b.Len() {
				t.Fatalf("Stats().Keys = %d, Len = %d", st.Keys, b.Len())
			}
			if st := b.Stats(); st.Buffered != 0 {
				t.Fatalf("Stats().Buffered = %d after retrain", st.Buffered)
			}
		})
	}
}

// rankSubject is one index.Ranker under test with the op stream that
// changes it: a backend's planes, or a keys.MutableSet (the guard's mirror),
// whose Retrain and Snapshot do nothing.
type rankSubject struct {
	r       index.Ranker
	keys    func() keys.Set
	insert  func(k int64)
	retrain func()
	snap    func()
}

func backendSubject(b index.Backend) rankSubject {
	return rankSubject{
		r: b.(index.Ranker), keys: b.Keys, retrain: b.Retrain,
		insert: func(k int64) { b.Insert(k) },
		snap:   func() { b.Snapshot() },
	}
}

func mutableSubject(ks keys.Set) rankSubject {
	m := keys.NewMutable(ks, 0)
	return rankSubject{
		r: m, keys: m.View,
		insert:  func(k int64) { m.Insert(k) },
		retrain: func() {}, snap: func() {},
	}
}

// rankSubjects enumerates every index.Ranker: each backend factory with the
// face (dynamic, rmi-single, shard-4), 1 and 8 shards, a sharded index
// whose buffer policy retrains mid-stream, and the guard's mirror.
func rankSubjects(t testing.TB, initial keys.Set) map[string]rankSubject {
	t.Helper()
	factories := backendFactories()
	factories["shard-1"] = func(ks keys.Set) (index.Backend, error) {
		return shard.New(ks, 1, dynamic.ManualPolicy())
	}
	factories["shard-8"] = func(ks keys.Set) (index.Backend, error) {
		return shard.New(ks, 8, dynamic.ManualPolicy())
	}
	factories["shard-buffer"] = func(ks keys.Set) (index.Backend, error) {
		return shard.New(ks, 4, dynamic.BufferLimit(5))
	}
	out := map[string]rankSubject{"mutable": mutableSubject(initial)}
	for name, build := range factories {
		b, err := build(initial)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := b.(index.Ranker); ok {
			out[name] = backendSubject(b)
		}
	}
	return out
}

// checkWindow compares r.Window(q, w, dst) with the same window cut from
// ks, for a dst that already holds a key: pos must be ks.CountLess(q), dst
// must survive, and the appended keys must be those of ranks
// [pos−w, pos+w) clipped to the content, w first clamped to Len().
func checkWindow(t testing.TB, r index.Ranker, ks keys.Set, q int64, w int) {
	all, cw := ks.Keys(), min(w, ks.Len())
	dst := append(make([]int64, 0, 1+2*cw), -7)
	pos, near := r.Window(q, w, dst)
	if want := ks.CountLess(q); pos != want {
		t.Fatalf("Window(%d, %d): pos %d, Keys().CountLess %d", q, w, pos, want)
	}
	want := all[max(pos-cw, 0):min(pos+cw, len(all))]
	if len(near) != 1+len(want) || near[0] != -7 {
		t.Fatalf("Window(%d, %d): %d keys after dst %v, want %d after [-7]", q, w, len(near)-1, near[:min(len(near), 1)], len(want))
	}
	for i, k := range want {
		if near[1+i] != k {
			t.Fatalf("Window(%d, %d): key %d of the window is %d, Keys() has %d", q, w, i, near[1+i], k)
		}
	}
}

// rankStride thins the window checks between ops at the widths that
// return the whole content: a query is read at a width of n or more after
// every rankStride(w, n)-th op, rotating through the queries. Every
// narrower width reads every query after every op.
func rankStride(w, n int) int {
	if w >= n {
		return 512
	}
	return 1
}

// final marks the full check before and after a stream: every query at
// every width.
const final = -1

// rankWidths are the window widths a conformance check reads at content
// size n: none, narrow ones, the guard's reach R (8) and twice it, and the
// widths that cover everything, up to math.MaxInt, which must not overflow.
func rankWidths(n int) []int { return []int{0, 1, 3, 8, 16, n, n + 1, math.MaxInt} }

// TestRankerConformance pins the optional rank face against Keys() for
// every index.Ranker (rankSubjects). A seeded stream of base and buffer
// inserts, duplicates, negative keys, retrains, and snapshots each followed
// by an insert (the copy-on-write step) runs through each; after every op
// At(i) must equal Keys().At(i) for every i, and Window(q, w) must equal
// the window cut from Keys() at every width of rankWidths, for q at the
// int64 extremes, −1, Min−1, every key and key±1, and Max+1. The keys ±1 of
// a sharded index include both sides of every gap between shards, so
// windows that cross a cut are read from either shard; the shard package
// pins the cut keys themselves (TestWindowAtCuts). Between the first and
// the last check the widths that return everything are thinned
// (rankStride).
func TestRankerConformance(t *testing.T) {
	initial := fixture(t, 300)
	subjects := rankSubjects(t, initial)
	for name, sub := range subjects {
		t.Run(name, func(t *testing.T) {
			r := sub.r
			buffered, empty := false, false
			check := func(op int) {
				t.Helper()
				ks := sub.keys()
				if r.Len() != ks.Len() {
					t.Fatalf("op %d: Len = %d, Keys().Len() = %d", op, r.Len(), ks.Len())
				}
				for i := 0; i < ks.Len(); i++ {
					if got := r.At(i); got != ks.At(i) {
						t.Fatalf("op %d: At(%d) = %d, Keys().At = %d", op, i, got, ks.At(i))
					}
				}
				queries := []int64{math.MinInt64, math.MaxInt64, -1, ks.Min() - 1, ks.Max() + 1}
				for _, k := range ks.Keys() {
					queries = append(queries, k-1, k, k+1)
				}
				for qi, q := range queries {
					for _, w := range rankWidths(ks.Len()) {
						if every := rankStride(w, ks.Len()); op == final || (qi+op)%every == 0 {
							checkWindow(t, r, ks, q, w)
						}
					}
				}
				if d, ok := r.(*dynamic.Index); ok {
					buffered = buffered || d.BufferLen() > 0
					empty = empty || d.BufferLen() == 0
				}
			}
			check(final)
			rng := xrand.New(31)
			domain := 2 * (initial.Max() + 1)
			snaps := 0
			for op := 0; op < 300; op++ {
				switch c := rng.Intn(100); {
				case c < 55:
					sub.insert(rng.Int63n(domain))
				case c < 70:
					ks := sub.keys()
					sub.insert(ks.At(rng.Intn(ks.Len())))
				case c < 78:
					sub.insert(-1 - rng.Int63n(domain))
				case c < 88:
					sub.retrain()
				default:
					sub.snap()
					snaps++
					sub.insert(rng.Int63n(domain))
				}
				check(op)
			}
			check(final)
			if snaps == 0 || r.Len() <= initial.Len()+50 {
				t.Fatalf("vacuous stream: %d snapshots, %d keys added", snaps, r.Len()-initial.Len())
			}
			if _, ok := r.(*dynamic.Index); ok && !(buffered && empty) {
				t.Fatalf("dynamic stream never read both with a buffer (%v) and without one (%v)", buffered, empty)
			}
		})
	}
	for _, want := range []string{"dynamic", "rmi-single", "shard-1", "shard-4", "shard-8", "shard-buffer", "mutable"} {
		if _, ok := subjects[want]; !ok {
			t.Fatalf("no %s subject implements index.Ranker", want)
		}
	}
}

// FuzzRankerWindow drives a fuzzed op stream into a dynamic and an
// 8-shard index over the same seeded keys, then checks Window against
// Keys() on both, at every width of rankWidths, for fuzzed queries plus
// every stored key and its neighbours. Each script byte is one op: a
// retrain, a duplicate, or an insert near a stored key or anywhere.
func FuzzRankerWindow(f *testing.F) {
	f.Add(uint64(3), []byte{})
	f.Add(uint64(9), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add(uint64(27), []byte{0xff, 0x80, 0x7f, 0x40, 0x3f, 0x00, 0xc0, 0xe0})
	f.Fuzz(func(t *testing.T, seed uint64, script []byte) {
		n := 32 + int(seed%200)
		initial, err := dataset.Uniform(xrand.New(1+seed%(1<<32)), n, int64(n)*20)
		if err != nil {
			t.Skip()
		}
		d, err := dynamic.New(initial, dynamic.ManualPolicy())
		if err != nil {
			t.Fatal(err)
		}
		s, err := shard.New(initial, 8, dynamic.BufferLimit(1+int(seed%7)))
		if err != nil {
			t.Fatal(err)
		}
		var queries []int64
		for _, op := range script {
			ks := d.Keys()
			near := ks.At(int(op) % ks.Len())
			var k int64
			switch op % 4 {
			case 0:
				d.Retrain()
				s.Retrain()
				queries = append(queries, near)
				continue
			case 1:
				k = near
			case 2:
				k = near + 1 + int64(op/4)%3
			default:
				k = int64(op) * ks.Max() / 255
			}
			d.Insert(k)
			s.Insert(k)
			queries = append(queries, k-1, k)
		}
		for name, r := range map[string]interface {
			index.Ranker
			Keys() keys.Set
		}{"dynamic": d, "shard-8": s} {
			ks := r.Keys()
			qs := append([]int64{math.MinInt64, -1, math.MaxInt64}, queries...)
			for _, k := range ks.Keys() {
				qs = append(qs, k-1, k, k+1)
			}
			for _, q := range qs {
				for _, w := range rankWidths(ks.Len()) {
					checkWindow(t, r, ks, q, w)
				}
			}
			if name == "shard-8" && !ks.Equal(d.Keys()) {
				t.Fatal("dynamic and shard-8 contents diverged")
			}
		}
	})
}

// TestBackendPlanes pins the three-plane split: every backend's Snapshot()
// is probe-identical to its live read path at capture time, for stored and
// absent keys alike. This is the equivalence that lets the serving
// scenarios evaluate reads through snapshots without changing a byte.
func TestBackendPlanes(t *testing.T) {
	initial := fixture(t, 400)
	queries := append(append([]int64(nil), initial.Keys()...), 1, 3, 5, 7, 1<<40)
	for name, build := range backendFactories() {
		t.Run(name, func(t *testing.T) {
			// The planes are separately addressable...
			var b index.Backend
			b, err := build(initial)
			if err != nil {
				t.Fatal(err)
			}
			var _ index.Reader = b
			var _ index.Writer = b
			var _ index.Admin = b
			// ...and the read plane matches the live state exactly.
			checkSnapshot := func(when string) {
				t.Helper()
				snap := b.Snapshot()
				if snap.Len() != b.Len() {
					t.Fatalf("%s: snapshot Len %d != live %d", when, snap.Len(), b.Len())
				}
				if !snap.Keys().Equal(b.Keys()) {
					t.Fatalf("%s: snapshot content diverges from live content", when)
				}
				for _, k := range queries {
					if a, c := b.Lookup(k), snap.Lookup(k); a != c {
						t.Fatalf("%s: Lookup(%d) live %+v != snapshot %+v", when, k, a, c)
					}
				}
				lp, lm := b.ProbeSum(queries)
				sp, sm := snap.ProbeSum(queries)
				if lp != sp || lm != sm {
					t.Fatalf("%s: ProbeSum live (%d,%d) != snapshot (%d,%d)", when, lp, lm, sp, sm)
				}
			}
			checkSnapshot("fresh")
			b.Insert(freshKey(initial))
			checkSnapshot("after insert")
			b.Retrain()
			checkSnapshot("after retrain")
		})
	}
}

// TestSnapshotImmutability is the copy-on-retrain guarantee: a held
// Snapshot's every answer must survive arbitrary later mutation of the
// backend it came from — inserts, policy retrains, explicit retrains. This
// is what "lookups never observe a half-built model" means operationally:
// the read plane can keep serving a captured snapshot while the write and
// admin planes churn underneath it.
func TestSnapshotImmutability(t *testing.T) {
	initial := fixture(t, 400)
	queries := append(append([]int64(nil), initial.Keys()...), 1, 3, 5, 7, 1<<40)
	for name, build := range backendFactories() {
		t.Run(name, func(t *testing.T) {
			b, err := build(initial)
			if err != nil {
				t.Fatal(err)
			}
			// Buffer a few keys first so the snapshot holds delta-plane
			// state too (the part a naive implementation would alias).
			inserted := 0
			for k := initial.Min() + 1; inserted < 8 && k < initial.Max(); k += 11 {
				if ok, _ := b.Insert(k); ok {
					inserted++
				}
			}
			snap := b.Snapshot()
			wantLen := snap.Len()
			wantKeys := keys.FromSorted(slices.Clone(snap.Keys().Keys()))
			type answer struct {
				r index.LookupResult
				k int64
			}
			var want []answer
			for _, k := range queries {
				want = append(want, answer{r: snap.Lookup(k), k: k})
			}
			wantProbes, wantMiss := snap.ProbeSum(queries)

			// Mutate hard: a burst of inserts (bound to trip any policy),
			// then an explicit retrain, then more inserts.
			for k := initial.Min() + 2; k < initial.Max() && b.Len() < wantLen+60; k += 5 {
				b.Insert(k)
			}
			b.Retrain()
			b.Insert(freshKey(b.Keys()))

			if snap.Len() != wantLen {
				t.Fatalf("snapshot Len changed: %d -> %d", wantLen, snap.Len())
			}
			if !snap.Keys().Equal(wantKeys) {
				t.Fatal("snapshot content changed under mutation")
			}
			for _, w := range want {
				if got := snap.Lookup(w.k); got != w.r {
					t.Fatalf("snapshot Lookup(%d) changed: %+v -> %+v", w.k, w.r, got)
				}
			}
			if p, m := snap.ProbeSum(queries); p != wantProbes || m != wantMiss {
				t.Fatalf("snapshot ProbeSum changed: (%d,%d) -> (%d,%d)", wantProbes, wantMiss, p, m)
			}
		})
	}
}

// TestTriggerPredictorConservative pins the TriggerPredictor contract: a
// backend that answers RetrainPossible() == false must NOT retrain on the
// next Insert — false negatives would make the pipeline freeze the read
// plane at a post-rebuild state. (True is allowed to be wrong; false is a
// promise.) Policies that can trigger are exercised through their whole
// cycle, duplicates included.
func TestTriggerPredictorConservative(t *testing.T) {
	initial := fixture(t, 300)
	factories := backendFactories()
	factories["dynamic-buffer"] = func(ks keys.Set) (index.Backend, error) {
		return dynamic.New(ks, dynamic.BufferLimit(5))
	}
	factories["dynamic-everyk"] = func(ks keys.Set) (index.Backend, error) {
		return dynamic.New(ks, dynamic.EveryKInserts(7))
	}
	factories["shard-buffer"] = func(ks keys.Set) (index.Backend, error) {
		return shard.New(ks, 4, dynamic.BufferLimit(5))
	}
	factories["guarded-buffer"] = func(ks keys.Set) (index.Backend, error) {
		b, err := dynamic.New(ks, dynamic.BufferLimit(5))
		if err != nil {
			return nil, err
		}
		return defense.NewGuard(b, defense.GuardOptions{}), nil
	}
	for name, build := range factories {
		t.Run(name, func(t *testing.T) {
			b, err := build(initial)
			if err != nil {
				t.Fatal(err)
			}
			tp, ok := b.(index.TriggerPredictor)
			if !ok {
				t.Fatal("backend does not implement TriggerPredictor")
			}
			rng := xrand.New(23)
			domain := 2 * (initial.Max() + 1)
			triggered := 0
			for i := 0; i < 400; i++ {
				possible := tp.RetrainPossible()
				_, retrained := b.Insert(rng.Int63n(domain))
				if retrained {
					triggered++
					if !possible {
						t.Fatalf("insert %d retrained after RetrainPossible() == false", i)
					}
				}
			}
			if kind := policyKindOf(name); kind != "" && triggered == 0 {
				t.Fatalf("%s backend never triggered in 400 inserts — the test exercised nothing", kind)
			}
		})
	}
}

// policyKindOf marks the factories whose policies are expected to actually
// fire during the predictor test.
func policyKindOf(name string) string {
	switch name {
	case "dynamic-buffer", "dynamic-everyk", "shard-buffer", "guarded-buffer":
		return name
	}
	return ""
}

// freshKey returns an interior key absent from the set: the midpoint of the
// first gap of width >= 3 (wide enough that no density guard flags it).
func freshKey(ks keys.Set) int64 {
	for i := 1; i < ks.Len(); i++ {
		if ks.At(i)-ks.At(i-1) >= 4 {
			return ks.At(i-1) + (ks.At(i)-ks.At(i-1))/2
		}
	}
	panic("fixture has no wide gap")
}

// TestBackendStalenessVisible: for the learned backends, an accepted but
// unmerged insert must raise ContentLoss above ModelLoss territory — the
// staleness signal the serving scenarios report — and a retrain must
// reconcile the two.
func TestBackendStalenessVisible(t *testing.T) {
	initial := fixture(t, 300)
	for _, name := range []string{"dynamic", "rmi-single", "shard-4"} {
		build := backendFactories()[name]
		t.Run(name, func(t *testing.T) {
			b, err := build(initial)
			if err != nil {
				t.Fatal(err)
			}
			before := b.Stats()
			// Insert a burst of fresh keys into one region.
			inserted := 0
			for k := initial.Min() + 1; inserted < 40 && k < initial.Max(); k += 7 {
				if ok, _ := b.Insert(k); ok {
					inserted++
				}
			}
			if inserted == 0 {
				t.Fatal("no insert accepted")
			}
			mid := b.Stats()
			if mid.Buffered != inserted {
				t.Fatalf("Buffered = %d, inserted %d", mid.Buffered, inserted)
			}
			if mid.ContentLoss <= before.ContentLoss {
				t.Fatalf("ContentLoss %v did not rise above %v despite %d unmerged keys",
					mid.ContentLoss, before.ContentLoss, inserted)
			}
			b.Retrain()
			after := b.Stats()
			if after.Buffered != 0 {
				t.Fatalf("Buffered = %d after retrain", after.Buffered)
			}
			// Retrains is summed across shards for partitioned backends, so
			// one Retrain() call advances it by at least one.
			if after.Retrains <= before.Retrains {
				t.Fatalf("Retrains = %d did not advance from %d", after.Retrains, before.Retrains)
			}
		})
	}
}
