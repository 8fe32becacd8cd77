package defense

// The one-window screen against its reference. The rank policies decide
// from one Window read per screen (DESIGN.md §10); the reference below is
// the form they replaced, one CountLess or At per rank end, read from a
// fresh keys.Set. Decisions must be identical on every content path, and a
// counting ranker pins the work one screen does.

import (
	"math"
	"testing"

	"cdfpoison/internal/btree"
	"cdfpoison/internal/dataset"
	"cdfpoison/internal/dynamic"
	"cdfpoison/internal/index"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/shard"
	"cdfpoison/internal/xrand"
)

// refSuspicious is the CountLess/At form of the density, dupmass and
// gapout screens over ks, as they read before the window.
func refSuspicious(p Policy, ks keys.Set, k int64) bool {
	switch p := p.(type) {
	case DensityPolicy:
		n := ks.Len()
		if n < 3 {
			return false
		}
		span := ks.Max() - ks.Min()
		if span <= 0 {
			return false
		}
		global := float64(n) / float64(span)
		pos := ks.CountLess(k)
		side := func(lo, hi int) float64 {
			lo, hi = max(lo, 0), min(hi, n-1)
			if hi <= lo {
				return 0
			}
			return float64(hi-lo) / float64(max(ks.At(hi)-ks.At(lo), 1))
		}
		w := min(p.Window, n)
		return max(side(pos-w, pos-1), side(pos, pos-1+w)) > p.Ratio*global
	case DupMassPolicy:
		lo, hi := k-p.Window, k+p.Window
		if k < math.MinInt64+p.Window {
			lo = math.MinInt64
		}
		if k > math.MaxInt64-p.Window-1 {
			hi = math.MaxInt64 - 1
		}
		return ks.CountLess(hi+1)-ks.CountLess(lo) >= p.Count
	case GapOutlierPolicy:
		n, pos := ks.Len(), ks.CountLess(k)
		if pos == 0 || pos == n {
			return false
		}
		near, far := k-ks.At(pos-1), ks.At(pos)-k
		if near <= 0 || far <= 0 {
			return false
		}
		if near > far {
			near, far = far, near
		}
		return float64(far) > p.Ratio*float64(near)
	}
	panic("refSuspicious: not a rank policy")
}

// windowPolicies are the rank policies the window must decide like the
// reference: the shipped chain's two, narrow and wide windows on either
// side of the reach, counts below and above it, and the widest parameters
// the parser accepts.
func windowPolicies(t *testing.T) []Policy {
	t.Helper()
	ps, err := ParsePolicyChain("density:8:3|dupmass:3:3|gapout:4|" +
		"density:2:1.5|density:3:2|density:9:2|density:40:1.5|density:9223372036854775807:1.5|" +
		"dupmass:1:1|dupmass:2:2|dupmass:40:8|dupmass:4:9|dupmass:60:9|dupmass:500:30|dupmass:3:9223372036854775807|" +
		"gapout:1|gapout:64")
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// windowBackends are the contents a guard screens: live rank reads over
// shard-8 and dynamic, and the mirror over a B-Tree, which has no
// index.Ranker.
func windowBackends() map[string]func(keys.Set) (index.Backend, error) {
	return map[string]func(keys.Set) (index.Backend, error){
		"shard-8": func(ks keys.Set) (index.Backend, error) { return shard.New(ks, 8, dynamic.BufferLimit(16)) },
		"dynamic": func(ks keys.Set) (index.Backend, error) { return dynamic.New(ks, dynamic.ManualPolicy()) },
		"mirror":  func(ks keys.Set) (index.Backend, error) { return btree.Bulk(32, ks.Keys()) },
	}
}

// TestWindowScreenMatchesReference: on every content path, after every
// batch of a seeded write stream (uniform writes, adjacent-key runs grown
// from stored keys, some across the shards' edges, and one run grown past
// the maximum), each rank policy decides each probe exactly as the
// reference does. Probes are uniform keys, the neighbours of stored keys
// (the runs' next keys), the keys around every edge between shards, and
// the keys around the top run, whose range counts reach past the window
// and end at the last rank. Every policy in one screen shares the window,
// as in a guard's chain.
func TestWindowScreenMatchesReference(t *testing.T) {
	const n, domain = 600, 60_000
	initial, err := dataset.Uniform(xrand.New(21), n, domain)
	if err != nil {
		t.Fatal(err)
	}
	policies := windowPolicies(t)
	for name, build := range windowBackends() {
		t.Run(name, func(t *testing.T) {
			b, err := build(initial)
			if err != nil {
				t.Fatal(err)
			}
			c := newContent(b)
			if (c.mirror != nil) != (name == "mirror") {
				t.Fatalf("content path: mirror %v", c.mirror != nil)
			}
			flagged := make([]int, len(policies))
			probes := 0
			rng := xrand.New(23)
			edges, _ := shard.New(initial, 8, dynamic.ManualPolicy())
			for batch := 0; batch < 12; batch++ {
				for i := 0; i < 40; i++ {
					ks := b.Keys()
					k := rng.Int63n(domain)
					if i%2 == 1 {
						k = ks.At(rng.Intn(ks.Len())) + 1
					}
					if i%8 == 7 { // grow a run across an edge between shards
						s := edges.Shard(1 + rng.Intn(7))
						k = s.At(0) - 1 - rng.Int63n(3)
					}
					if i%8 == 5 { // grow the top run
						k = ks.Max() + 1
					}
					if ok, _ := b.Insert(k); ok && c.mirror != nil {
						c.mirror.Insert(k)
					}
				}
				ks := b.Keys()
				qs := []int64{math.MinInt64, -1, 0, ks.Min() - 1, ks.Max() + 1, math.MaxInt64}
				for i := 0; i < 60; i++ {
					qs = append(qs, rng.Int63n(domain))
				}
				for i := 0; i < ks.Len(); i += 3 {
					qs = append(qs, ks.At(i)-1, ks.At(i), ks.At(i)+1, ks.At(i)+2)
				}
				for d := int64(-3); d <= 64; d++ {
					qs = append(qs, ks.Max()-d)
				}
				for s := 1; s < edges.NumShards(); s++ {
					lo := edges.Shard(s).At(0)
					for d := int64(-4); d <= 4; d++ {
						qs = append(qs, lo+d)
					}
				}
				for _, k := range qs {
					c.read = false // a new screen
					for i, p := range policies {
						got, want := p.Suspicious(c, k), refSuspicious(p, ks, k)
						if got != want {
							t.Fatalf("batch %d: %s at key %d: %v, reference %v", batch, p.Name(), k, got, want)
						}
						if got {
							flagged[i]++
						}
					}
					probes++
				}
			}
			for i, p := range policies {
				never := p.Name() == "dupmass:3:9223372036854775807"
				if f := flagged[i]; (f == 0) != never || f == probes {
					t.Errorf("%s flagged %d of %d probes: a vacuous comparison", p.Name(), f, probes)
				}
			}
		})
	}
}

// countingRanker is a backend with index.Ranker that counts what one
// screen reads: Window calls, the keys they return, and At calls.
type countingRanker struct {
	index.Backend
	r                       index.Ranker
	windows, windowKeys, at int
}

func (c *countingRanker) Len() int { return c.r.Len() }

func (c *countingRanker) Window(k int64, w int, dst []int64) (int, []int64) {
	c.windows++
	pos, near := c.r.Window(k, w, dst)
	c.windowKeys += len(near) - len(dst)
	return pos, near
}

func (c *countingRanker) At(i int) int64 {
	c.at++
	return c.r.At(i)
}

// TestGuardWindowLastsOneScreen: a window read serves one screen only.
// Over a backend with index.Ranker the guard reads the content live, so a
// key written around the guard between two screens of the same key is in
// what the second screen reads: 129 makes 130 hug a stored key.
func TestGuardWindowLastsOneScreen(t *testing.T) {
	ks, err := keys.New([]int64{0, 100, 200, 300, 400, 500})
	if err != nil {
		t.Fatal(err)
	}
	d, err := dynamic.New(ks, dynamic.ManualPolicy())
	if err != nil {
		t.Fatal(err)
	}
	g := NewGuard(d, GuardOptions{Policies: []Policy{GapOutlierPolicy{Ratio: 4}}})
	if g.suspicious(130) {
		t.Fatal("130, 30 and 70 from its neighbours, flagged")
	}
	if ok, _ := d.Insert(129); !ok {
		t.Fatal("direct insert refused")
	}
	if !g.suspicious(130) {
		t.Fatal("130, 1 and 70 from its neighbours, passed: the screen read the previous screen's window")
	}
}

// TestScreenWorkBounds pins the work of a screen on the rank path. The
// shipped chain, density:8:3|dupmass:3:3, makes exactly one Window call per
// screened write, whether the write is accepted or flagged. Under any
// policy parameters a screen reads at most 2R keys through Window (R the
// reach), at most two Window calls (the shared read, plus a position read
// for a dupmass count above R), and at most four At calls per rank policy
// (density's Min, Max and two far ends): O(log n + R) per screen.
func TestScreenWorkBounds(t *testing.T) {
	const n, domain = 2000, 200_000
	initial, err := dataset.Uniform(xrand.New(31), n, domain)
	if err != nil {
		t.Fatal(err)
	}
	writes := func(rng *xrand.RNG, ks keys.Set) int64 {
		if rng.Intn(2) == 0 {
			return rng.Int63n(domain)
		}
		return ks.At(rng.Intn(ks.Len())) + 1 + rng.Int63n(2) // grows runs
	}
	chains := map[string]bool{"density:8:3|dupmass:3:3": true}
	for _, p := range windowPolicies(t) {
		chains[p.Name()] = false
	}
	chains["density:9223372036854775807:1.5|dupmass:500:30|gapout:4"] = false
	for spec, shipped := range chains {
		chain, err := ParsePolicyChain(spec)
		if err != nil {
			t.Fatal(err)
		}
		s, err := shard.New(initial, 8, dynamic.BufferLimit(16))
		if err != nil {
			t.Fatal(err)
		}
		cr := &countingRanker{Backend: s, r: s}
		g := NewGuard(cr, GuardOptions{Policies: chain})
		rng := xrand.New(33)
		flagged := 0
		for i := 0; i < 400; i++ {
			k := writes(rng, s.Keys())
			cr.windows, cr.windowKeys, cr.at = 0, 0, 0
			if ok, _ := g.Insert(k); !ok {
				flagged++
			}
			if shipped && cr.windows != 1 {
				t.Fatalf("%s: write %d made %d Window calls, want 1", spec, k, cr.windows)
			}
			if cr.windows > 2 || cr.windowKeys > 2*reach || cr.at > 4*len(chain) {
				t.Fatalf("%s: write %d read %d Window calls, %d window keys and %d At calls; bound 2, %d and %d",
					spec, k, cr.windows, cr.windowKeys, cr.at, 2*reach, 4*len(chain))
			}
		}
		if shipped && (flagged == 0 || flagged == 400) {
			t.Fatalf("%s: %d of 400 writes flagged; the bound saw one outcome only", spec, flagged)
		}
	}
}
