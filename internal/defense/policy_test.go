package defense

import (
	"fmt"
	"math"
	"testing"

	"cdfpoison/internal/keys"
)

func policySet(t *testing.T, ks []int64) keys.Set {
	t.Helper()
	s, err := keys.New(ks)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// contentOf is the policies' content over a fixed key set, read through a
// fresh sorted copy of it: the from-scratch content the reference guard
// (guard_mirror_test.go) builds on every offer.
func contentOf(ks keys.Set) *Content {
	return &Content{ranks: keys.NewMutable(ks, 0), keysOf: func() keys.Set { return ks }}
}

// sparse builds the honest fixture: keys spaced widely and evenly.
func sparse(t *testing.T, n int, step int64) keys.Set {
	t.Helper()
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i+1) * step
	}
	return policySet(t, out)
}

func TestDupMassPolicy(t *testing.T) {
	base := sparse(t, 100, 100) // 100, 200, ... 10000
	// A poison run of adjacent keys around 5000.
	withRun := base.Union(policySet(t, []int64{5001, 5002, 5003}))
	p := DupMassPolicy{Window: 3, Count: 3}
	if p.Suspicious(contentOf(base), 5050) {
		t.Error("mid-gap honest key flagged by dupmass")
	}
	if !p.Suspicious(contentOf(withRun), 5004) {
		t.Error("key extending a dense adjacent run not flagged")
	}
	// Extreme keys must not overflow the window arithmetic.
	c := contentOf(base)
	p.Suspicious(c, 1<<62)
	p.Suspicious(c, -(1 << 62))
}

// TestDensityPolicyWideWindows: any window of n or more covers every rank,
// so windows n, n+1 and math.MaxInt decide every probe alike, built as a
// struct or parsed from a spec. The math.MaxInt rows fail if the right
// side's end, pos-1+Window, wraps negative and empties that side.
func TestDensityPolicyWideWindows(t *testing.T) {
	ks := sparse(t, 100, 1000) // 1000, 2000, ... 100000
	run := make([]int64, 50)
	for i := range run {
		run[i] = 50_001 + int64(i)
	}
	c := contentOf(ks.Union(policySet(t, run)))
	n := c.Len()
	ref := DensityPolicy{Window: n, Ratio: 1.1}
	probes, flagged := 0, 0
	for k := int64(0); k <= 108_000; k += 20 {
		probes++
		if ref.Suspicious(c, k) {
			flagged++
		}
	}
	if flagged == 0 || flagged == probes {
		t.Fatalf("fixture decides all %d probes alike at window n", probes)
	}
	for _, w := range []int{n + 1, math.MaxInt} {
		ps, err := ParsePolicyChain(fmt.Sprintf("density:%d:1.1", w))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []Policy{DensityPolicy{Window: w, Ratio: 1.1}, ps[0]} {
			for k := int64(0); k <= 108_000; k += 20 {
				if got, want := p.Suspicious(c, k), ref.Suspicious(c, k); got != want {
					t.Fatalf("%s at key %d: %v, window n=%d decides %v", p.Name(), k, got, n, want)
				}
			}
		}
	}
}

func TestGapOutlierPolicy(t *testing.T) {
	base := sparse(t, 50, 1000)
	p := GapOutlierPolicy{Ratio: 8}
	c := contentOf(base)
	if p.Suspicious(c, 5500) {
		t.Error("mid-gap honest key flagged by gapout")
	}
	if !p.Suspicious(c, 5001) {
		t.Error("gap-edge key (the cascade attack's shape) not flagged")
	}
	if !p.Suspicious(c, 5999) {
		t.Error("far-gap-edge key not flagged")
	}
	if p.Suspicious(c, 1) || p.Suspicious(c, 1<<40) {
		t.Error("key outside the stored range flagged despite having one side")
	}
	if p.Suspicious(c, 5000) {
		t.Error("stored duplicate flagged (the backend's job)")
	}
}

func TestLossSpikePolicy(t *testing.T) {
	// A near-perfect line: any mid-gap insert barely moves the loss, while a
	// far-corner insert into the widest gap spikes it.
	base := sparse(t, 200, 10)
	p := LossSpikePolicy{Ratio: 3}
	c := contentOf(base)
	if p.Suspicious(c, 1005) {
		t.Error("mid-gap honest key flagged by lossspike on a near-perfect line")
	}
	// Two keys is too few for the oracle: the policy must abstain.
	tiny := contentOf(policySet(t, []int64{5}))
	if p.Suspicious(tiny, 7) {
		t.Error("lossspike fired without a loss oracle")
	}
}

func TestChainSpecRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"none",
		"density:8:4",
		"dupmass:3:3",
		"gapout:8",
		"lossspike:1.5",
		"density:8:4|dupmass:3:3|gapout:8|lossspike:1.5",
	} {
		ps, err := ParsePolicyChain(spec)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		if got := ChainSpec(ps); got != spec {
			t.Errorf("round trip drifted: %q -> %q", spec, got)
		}
	}
}

func TestParsePolicyChainRejects(t *testing.T) {
	for _, spec := range []string{
		"", "|", "density", "density:8", "density:0:4", "density:8:0", "density:8:NaN",
		"density:8:+Inf", "dupmass:3", "dupmass:0:3", "dupmass:3:0", "dupmass:x:3",
		"gapout", "gapout:0.5", "gapout:x", "lossspike", "lossspike:0.9", "lossspike:",
		"none|gapout:8", "unknown:1", "density:8:4|", "|density:8:4", "density:8:4:9",
	} {
		if _, err := ParsePolicyChain(spec); err == nil {
			t.Errorf("ParsePolicyChain(%q) accepted an invalid spec", spec)
		}
	}
}

func TestRateLimiter(t *testing.T) {
	if _, err := NewRateLimiter(0, 10); err == nil {
		t.Error("budget 0 accepted")
	}
	if _, err := NewRateLimiter(2, 0); err == nil {
		t.Error("window 0 accepted")
	}
	rl, err := NewRateLimiter(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Source 1 gets two writes per 10-op window; source 2 is independent.
	if !rl.Allow(1, 0) || !rl.Allow(1, 3) {
		t.Fatal("writes within budget refused")
	}
	if rl.Allow(1, 5) {
		t.Fatal("third write in the window allowed")
	}
	if !rl.Allow(2, 5) {
		t.Fatal("independent source throttled by source 1's spend")
	}
	if !rl.Allow(1, 10) {
		t.Fatal("budget did not refresh at the window boundary")
	}
}

// TestRateLimiterDeterministic: identical call sequences produce identical
// verdicts (the replay property scenarios depend on).
func TestRateLimiterDeterministic(t *testing.T) {
	run := func() []bool {
		rl, err := NewRateLimiter(3, 7)
		if err != nil {
			t.Fatal(err)
		}
		var out []bool
		for op := 0; op < 100; op++ {
			out = append(out, rl.Allow(op%5, op))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("verdict %d differs between identical runs", i)
		}
	}
}

// FuzzParsePolicyChain pins the parser's totality (never panics) and the
// canonical round trip: any accepted spec re-parses from its ChainSpec
// rendering to the same canonical form. The checked-in corpus is replayed
// in CI.
func FuzzParsePolicyChain(f *testing.F) {
	for _, s := range []string{
		"none", "density:8:4", "dupmass:3:3", "gapout:8", "lossspike:1.5",
		"density:8:4|dupmass:3:3|gapout:8|lossspike:1.5",
		"density:8:4|density:2:16", "", "|", "density::", "gapout:1e308",
		"lossspike:0x1p-2", "dupmass:9223372036854775807:1", "density:8:4:",
		"none|none", "DENSITY:8:4", "gapout:+8", "lossspike:1_0",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		ps, err := ParsePolicyChain(spec)
		if err != nil {
			return
		}
		canon := ChainSpec(ps)
		again, err := ParsePolicyChain(canon)
		if err != nil {
			t.Fatalf("canonical form %q of accepted spec %q does not re-parse: %v", canon, spec, err)
		}
		if got := ChainSpec(again); got != canon {
			t.Fatalf("canonical form not a fixed point: %q -> %q", canon, got)
		}
	})
}
