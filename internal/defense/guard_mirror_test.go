package defense

// Differential suite for the Guard's content: a guarded backend and a
// reference guard — which rebuilds its content from backend.Keys() on every
// offer, the from-scratch algorithm — run the same seeded op stream over
// twin backends. After every op the guard's content, read through its rank
// methods, and its lossspike kernel must equal its backend's Keys(), and
// every accept/reject and the Flagged count must equal the reference's.
// Each backend also pins which content path the guard took: live rank
// queries for the backends with index.Ranker, a private mirror otherwise.

import (
	"context"
	"math"
	"testing"

	"cdfpoison/internal/alex"
	"cdfpoison/internal/btree"
	"cdfpoison/internal/dataset"
	"cdfpoison/internal/dynamic"
	"cdfpoison/internal/engine"
	"cdfpoison/internal/index"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/regression"
	"cdfpoison/internal/rmi"
	"cdfpoison/internal/shard"
	"cdfpoison/internal/xrand"
)

// refGuard is the reference screen: fresh content from the backend on every
// offered insert, then the same policy chain.
type refGuard struct {
	backend  index.Backend
	policies []Policy
	flagged  int
}

func (r *refGuard) Insert(k int64) (accepted, retrained bool) {
	if k >= 0 {
		c := contentOf(r.backend.Keys())
		for _, p := range r.policies {
			if p.Suspicious(c, k) {
				r.flagged++
				return false, false
			}
		}
	}
	return r.backend.Insert(k)
}

// sameContent reports whether c, read through its rank methods, holds
// exactly ks, and so does its lossspike kernel when built.
func sameContent(c *Content, ks keys.Set) bool {
	if c.Len() != ks.Len() {
		return false
	}
	for i := 0; i < ks.Len(); i++ {
		if c.At(i) != ks.At(i) {
			return false
		}
	}
	return c.oracle == nil || c.oracle.Set().Equal(ks)
}

// kernelSharesMirror reports whether c's lossspike kernel is built over the
// mirror's own storage rather than over a second copy of the keys.
func kernelSharesMirror(c *Content) bool {
	return &c.oracle.Set().Keys()[0] == &c.mirror.View().Keys()[0]
}

// mirrored names the mirrorBackends entries without index.Ranker, which
// the guard must screen through a private mirror.
var mirrored = map[string]bool{"btree": true, "alex": true, "pipeline-shard": true}

func mirrorBackends() map[string]func(keys.Set) (index.Backend, error) {
	return map[string]func(keys.Set) (index.Backend, error){
		"dynamic": func(ks keys.Set) (index.Backend, error) {
			return dynamic.New(ks, dynamic.BufferLimit(16))
		},
		"shard-8": func(ks keys.Set) (index.Backend, error) {
			return shard.New(ks, 8, dynamic.BufferLimit(16))
		},
		"rmi-single": func(ks keys.Set) (index.Backend, error) {
			return rmi.NewSingle(ks)
		},
		"btree": func(ks keys.Set) (index.Backend, error) {
			return btree.Bulk(32, ks.Keys())
		},
		"alex": func(ks keys.Set) (index.Backend, error) {
			return alex.New(ks, 32)
		},
		"pipeline-shard": func(ks keys.Set) (index.Backend, error) {
			s, err := shard.New(ks, 8, dynamic.BufferLimit(16))
			if err != nil {
				return nil, err
			}
			return index.NewPipeline(s, index.CostModel{Fixed: 40}), nil
		},
	}
}

func mirrorChains(t *testing.T) map[string][]Policy {
	t.Helper()
	chains := map[string][]Policy{"default": nil}
	// lossspike:1.002 sits close enough to honest loss moves that a stale
	// loss oracle changes decisions.
	for _, spec := range []string{"density:8:3|dupmass:3:3", "gapout:4|lossspike:1.5", "lossspike:1.002"} {
		ps, err := ParsePolicyChain(spec)
		if err != nil {
			t.Fatal(err)
		}
		chains[spec] = ps
	}
	return chains
}

func TestGuardMirrorMatchesReference(t *testing.T) {
	const n, domain, ops = 400, 40_000, 1200
	initial, err := dataset.Uniform(xrand.New(5), n, domain)
	if err != nil {
		t.Fatal(err)
	}
	pool := engine.New(2)
	for bname, build := range mirrorBackends() {
		for cname, chain := range mirrorChains(t) {
			t.Run(bname+"/"+cname, func(t *testing.T) {
				inner, err := build(initial)
				if err != nil {
					t.Fatal(err)
				}
				twin, err := build(initial)
				if err != nil {
					t.Fatal(err)
				}
				g := NewGuard(inner, GuardOptions{Policies: chain})
				ref := &refGuard{backend: twin, policies: chain}
				if chain == nil {
					ref.policies = []Policy{DensityPolicy{Window: 8, Ratio: 4}}
				}

				rng := xrand.New(77)
				var run []int64 // pending adjacent poison run
				var snaps []index.Snapshot
				accepts := 0
				for op := 0; op < ops; op++ {
					var k int64
					insert := true
					switch r := rng.Intn(100); {
					case len(run) > 0:
						k, run = run[0], run[1:]
					case r < 45: // honest uniform write
						k = rng.Int63n(domain)
					case r < 55: // duplicate of a stored key
						ks := twin.Keys()
						k = ks.At(rng.Intn(ks.Len()))
					case r < 60: // negative key
						k = -1 - rng.Int63n(domain)
					case r < 80: // greedy-style run hugging a stored key
						ks := twin.Keys()
						a := ks.At(rng.Intn(ks.Len()))
						for j, l := int64(1), 2+rng.Int63n(6); j <= l; j++ {
							run = append(run, a+j)
						}
						k, run = run[0], run[1:]
					case r < 87:
						insert = false
						g.Retrain()
						twin.Retrain()
					case r < 94:
						insert = false
						if err := g.RetrainParallel(context.Background(), pool); err != nil {
							t.Fatal(err)
						}
						twin.Retrain()
					default:
						insert = false
						snaps = append(snaps, g.Snapshot(), twin.Snapshot())
					}
					if insert {
						gotA, gotR := g.Insert(k)
						wantA, wantR := ref.Insert(k)
						if gotA != wantA || gotR != wantR {
							t.Fatalf("op %d Insert(%d) = (%v, %v), reference (%v, %v)", op, k, gotA, gotR, wantA, wantR)
						}
						if gotA {
							accepts++
						}
					}
					if g.Flagged() != ref.flagged {
						t.Fatalf("op %d: Flagged = %d, reference %d", op, g.Flagged(), ref.flagged)
					}
					if g.content != nil && !sameContent(g.content, inner.Keys()) {
						t.Fatalf("op %d: content diverged from backend.Keys()", op)
					}
				}
				if c := g.content; c != nil && (c.mirror != nil) != mirrored[bname] {
					t.Fatalf("guard kept a mirror: %v, want %v", c.mirror != nil, mirrored[bname])
				}
				if c := g.content; c != nil && c.oracle != nil && mirrored[bname] && !kernelSharesMirror(c) {
					t.Fatal("lossspike kernel keeps a second key copy beside the mirror")
				}
				if !inner.Keys().Equal(twin.Keys()) {
					t.Fatal("guarded and reference backends diverged")
				}
				if g.content == nil || accepts == 0 || g.Flagged() == 0 || len(snaps) == 0 {
					t.Fatalf("vacuous run: content built %v, %d accepted, %d flagged, %d snapshots",
						g.content != nil, accepts, g.Flagged(), len(snaps))
				}
			})
		}
	}
}

// lyingBackend reports every insert accepted, including duplicates it did
// not store — a backend/copy disagreement the guard must survive. It embeds
// the interface, not the concrete index, so it hides index.Ranker and the
// guard takes the mirror path.
type lyingBackend struct{ index.Backend }

func (l lyingBackend) Insert(k int64) (bool, bool) {
	_, retrained := l.Backend.Insert(k)
	return true, retrained
}

// TestGuardDropsContentOnMirrorRefusal: when the content copy refuses a key
// the backend accepted, the guard drops the copy and rebuilds it from the
// backend on the next offer instead of panicking or diverging.
func TestGuardDropsContentOnMirrorRefusal(t *testing.T) {
	ks, err := dataset.Uniform(xrand.New(9), 200, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dynamic.New(ks, dynamic.ManualPolicy())
	if err != nil {
		t.Fatal(err)
	}
	g := NewGuard(lyingBackend{d}, GuardOptions{Policies: []Policy{}})
	g.Insert(ks.Max() + 500) // builds the copy, then adds the key
	if g.content == nil || g.content.mirror == nil {
		t.Fatal("content copy not built")
	}
	g.Insert(ks.At(100)) // duplicate: the backend "accepts", the copy refuses
	if g.content != nil {
		t.Fatal("content copy kept after refusing an accepted key")
	}
	g.Insert(ks.Max() + 900)
	if g.content == nil || !g.content.mirror.View().Equal(d.Keys()) {
		t.Fatal("content copy not rebuilt from the backend")
	}
}

// TestGuardRankPathReadsBackendLive: over a backend with index.Ranker the
// guard keeps no copy of the keys, so a key written to the backend around
// the guard is in what the policies read next, and the lossspike kernel,
// which did not see that key, is rebuilt instead of pricing stale moments.
func TestGuardRankPathReadsBackendLive(t *testing.T) {
	ks, err := dataset.Uniform(xrand.New(9), 500, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dynamic.New(ks, dynamic.ManualPolicy())
	if err != nil {
		t.Fatal(err)
	}
	g := NewGuard(d, GuardOptions{Policies: []Policy{LossSpikePolicy{Ratio: 1.5}}})
	g.suspicious(ks.At(250) + 1) // builds the content and the kernel
	if g.content.mirror != nil || g.content.oracle == nil {
		t.Fatalf("rank path not taken: mirror %v, kernel %v", g.content.mirror != nil, g.content.oracle != nil)
	}
	direct := ks.Max() + 7_000 // far out: moves the clean loss
	if ok, _ := d.Insert(direct); !ok {
		t.Fatal("direct insert refused")
	}
	if g.content.Len() != d.Len() || g.content.Max() != direct {
		t.Fatal("the guard's content missed a key written to its backend")
	}
	want, err := regression.NewPrefix(d.Keys())
	if err != nil {
		t.Fatal(err)
	}
	if got := g.content.LossOracle(); got.N() != d.Len() ||
		math.Float64bits(got.CleanLoss()) != math.Float64bits(want.CleanLoss()) {
		t.Fatalf("kernel over %d keys, clean loss %v; backend %d keys, %v", got.N(), got.CleanLoss(), d.Len(), want.CleanLoss())
	}
}
