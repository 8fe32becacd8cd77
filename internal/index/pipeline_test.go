package index_test

// Behavior tests of the background-retrain pipeline (index.Pipeline): the
// zero-cost golden equivalence, the stale window, coalescing under churn,
// and the tick accounting. These live in the external test package so they
// can drive the pipeline over the real substrates.

import (
	"testing"

	"cdfpoison/internal/dynamic"
	"cdfpoison/internal/index"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/xrand"
)

// driveOps exercises a backend with a deterministic mix of inserts
// (duplicates included), explicit retrains, and clock ticks; tick is a
// no-op hook for bare backends.
func driveOps(b index.Writer, admin index.Admin, tick func(int), rng *xrand.RNG, domain int64, n int) {
	for i := 0; i < n; i++ {
		tick(1)
		switch rng.Intn(10) {
		case 9:
			admin.Retrain()
		default:
			b.Insert(rng.Int63n(domain))
		}
	}
}

// TestPipelineZeroCostTransparent is the zero-cost golden test: with the
// zero CostModel, a pipeline-wrapped backend answers every read, stat, and
// content query byte-identically to the bare backend under the identical
// operation sequence — the equivalence that keeps the rewritten serving
// scenario's CSV fingerprints unchanged.
func TestPipelineZeroCostTransparent(t *testing.T) {
	for name, build := range backendFactories() {
		t.Run(name, func(t *testing.T) {
			initial := fixture(t, 400)
			bare, err := build(initial)
			if err != nil {
				t.Fatal(err)
			}
			inner, err := build(initial)
			if err != nil {
				t.Fatal(err)
			}
			piped := index.NewPipeline(inner, index.CostModel{})

			queries := append(append([]int64(nil), initial.Keys()...), 1, 3, 1<<40)
			check := func(step int) {
				t.Helper()
				if piped.IsStale() {
					t.Fatalf("step %d: zero-cost pipeline reports a stale window", step)
				}
				for _, k := range queries {
					if a, b := bare.Lookup(k), piped.Lookup(k); a != b {
						t.Fatalf("step %d: Lookup(%d) bare %+v != piped %+v", step, k, a, b)
					}
				}
				ap, am := bare.ProbeSum(queries)
				bp, bm := piped.ProbeSum(queries)
				if ap != bp || am != bm {
					t.Fatalf("step %d: ProbeSum bare (%d,%d) != piped (%d,%d)", step, ap, am, bp, bm)
				}
				if as, bs := bare.Stats(), piped.Stats(); as != bs {
					t.Fatalf("step %d: Stats bare %+v != piped %+v", step, as, bs)
				}
				if !bare.Keys().Equal(piped.Keys()) {
					t.Fatalf("step %d: content diverged", step)
				}
				sp, sm := piped.Snapshot().ProbeSum(queries)
				if sp != ap || sm != am {
					t.Fatalf("step %d: snapshot ProbeSum (%d,%d) != bare (%d,%d)", step, sp, sm, ap, am)
				}
			}

			rngA, rngB := xrand.New(17), xrand.New(17)
			domain := 2 * (initial.Max() + 1)
			for step := 0; step < 8; step++ {
				driveOps(bare, bare, func(int) {}, rngA, domain, 25)
				driveOps(piped, piped, piped.Tick, rngB, domain, 25)
				check(step)
			}
			st := piped.ChurnStats()
			if st.StaleTicks != 0 || st.MaxLatencyTicks != 0 || st.Coalesced != 0 {
				t.Fatalf("zero-cost pipeline accrued stale accounting: %+v", st)
			}
		})
	}
}

// pipeFixture builds a buffer-policy dynamic index behind a pipeline with
// the given cost model.
func pipeFixture(t *testing.T, bufferK int, cost index.CostModel) (*index.Pipeline, keys.Set) {
	t.Helper()
	initial := fixture(t, 300)
	inner, err := dynamic.New(initial, dynamic.BufferLimit(bufferK))
	if err != nil {
		t.Fatal(err)
	}
	return index.NewPipeline(inner, cost), initial
}

// TestPipelineStaleWindow: a policy-triggered rebuild freezes the read
// plane at the pre-trigger state for exactly cost ticks; the write plane
// advances eagerly throughout.
func TestPipelineStaleWindow(t *testing.T) {
	p, initial := pipeFixture(t, 4, index.CostModel{Fixed: 10})
	fresh := []int64{initial.Min() + 1, initial.Min() + 2, initial.Min() + 3, initial.Min() + 5}
	for i, k := range fresh {
		if p.IsStale() {
			t.Fatalf("stale before insert %d", i)
		}
		acc, ret := p.Insert(k)
		if !acc {
			t.Fatalf("fresh key %d rejected", k)
		}
		if want := i == len(fresh)-1; ret != want {
			t.Fatalf("insert %d: retrained = %v, want %v", i, ret, want)
		}
	}
	if !p.IsStale() {
		t.Fatal("no stale window after the policy trigger")
	}
	// The triggering key is part of the rebuild being published, so the
	// read plane must NOT see it yet; earlier buffered keys (captured in
	// the pre-trigger snapshot) must still be served.
	last := fresh[len(fresh)-1]
	if p.Lookup(last).Found {
		t.Fatal("read plane sees the triggering key during the rebuild")
	}
	if !p.Lookup(fresh[0]).Found {
		t.Fatal("read plane lost a pre-trigger buffered key")
	}
	if !p.Keys().Contains(last) { // Keys reads the write plane
		t.Fatal("write plane lost the triggering key")
	}
	// A write landing during the window is invisible until publish.
	during := initial.Min() + 7
	if acc, _ := p.Insert(during); !acc {
		t.Fatal("in-window insert rejected")
	}
	if p.Lookup(during).Found {
		t.Fatal("read plane sees an in-window write")
	}
	p.Tick(9)
	if !p.IsStale() {
		t.Fatal("window closed one tick early")
	}
	p.Tick(1)
	if p.IsStale() {
		t.Fatal("window still open after cost ticks")
	}
	for _, k := range append(fresh, during) {
		if !p.Lookup(k).Found {
			t.Fatalf("key %d invisible after publish", k)
		}
	}
	st := p.ChurnStats()
	if st.Publishes != 1 || st.Coalesced != 0 {
		t.Fatalf("counts: %+v", st)
	}
	if st.StaleTicks != 10 || st.LatencyTicks != 10 || st.MaxLatencyTicks != 10 || st.RebuildTicks != 10 {
		t.Fatalf("tick accounting: %+v", st)
	}
}

// TestPipelineCoalescing: retrains triggered while a rebuild is in flight
// collapse into ONE chained follow-up; readers advance one version per
// publish and latency exceeds the raw rebuild cost — the churn attacker's
// objective function, pinned.
func TestPipelineCoalescing(t *testing.T) {
	p, initial := pipeFixture(t, 100, index.CostModel{Fixed: 10})
	a, b := initial.Min()+1, initial.Min()+3

	p.Insert(a)
	p.Retrain() // trigger 1 at tick 0: pre-snapshot excludes nothing, result merges a
	if !p.IsStale() {
		t.Fatal("no flight after explicit retrain")
	}
	p.Tick(3)
	p.Insert(b)
	p.Retrain() // coalesces at tick 3 (merges b eagerly)
	p.Tick(2)
	p.Retrain() // coalesces again at tick 5 — same queued rebuild
	st := p.ChurnStats()
	if st.Coalesced != 2 || st.Publishes != 0 {
		t.Fatalf("mid-flight counts: %+v", st)
	}
	// Mid-flight version check: a sits in the pre-rebuild snapshot's delta
	// buffer (visible, unmerged); b arrived after the snapshot and is
	// invisible to readers even though the write plane holds it.
	if r := p.Lookup(a); !r.Found || !r.InBuffer {
		t.Fatalf("pre-rebuild view of a: %+v (want buffered hit)", r)
	}
	if p.Lookup(b).Found {
		t.Fatal("read plane sees an in-flight write")
	}

	p.Tick(5) // tick 10: rebuild 1 publishes, chained rebuild starts
	if !p.IsStale() {
		t.Fatal("chained rebuild did not keep the window open")
	}
	// Readers advanced exactly one version: a is now MERGED (rebuild 1's
	// result), b — merged eagerly by the coalesced trigger on the write
	// plane — remains invisible until the chained rebuild publishes.
	if r := p.Lookup(a); !r.Found || r.InBuffer {
		t.Fatalf("post-publish view of a: %+v (want merged hit)", r)
	}
	if p.Lookup(b).Found {
		t.Fatal("reader skipped ahead to the coalesced rebuild's result")
	}

	p.Tick(10) // tick 20: chained rebuild publishes
	if p.IsStale() {
		t.Fatal("window open after both publishes")
	}
	if !p.Lookup(b).Found {
		t.Fatal("coalesced rebuild's result never published")
	}
	st = p.ChurnStats()
	if st.Publishes != 2 {
		t.Fatalf("publishes: %+v", st)
	}
	// Latencies: rebuild 1 took 10 ticks; the chained rebuild's trigger
	// fired at tick 3 and published at tick 20 — 17 ticks, the queueing
	// delay the attacker maximizes.
	if st.LatencyTicks != 27 || st.MaxLatencyTicks != 17 {
		t.Fatalf("latency accounting: %+v", st)
	}
	if st.StaleTicks != 20 || st.RebuildTicks != 20 {
		t.Fatalf("window accounting: %+v", st)
	}
}
