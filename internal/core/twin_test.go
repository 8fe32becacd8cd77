package core

import (
	"math"
	"testing"

	"cdfpoison/internal/dynamic"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/workload"
)

// TestDefaultDomainNearMaxInt64 runs every stream-driven scenario with
// Domain 0 on a key set whose maximum is MaxInt64. The default domain
// 2·(max+1) wraps there, so it must saturate at MaxInt64 instead of
// failing with a domain the caller never set. Budget 0 keeps the attack
// out of the run: only the honest stream depends on the domain.
func TestDefaultDomainNearMaxInt64(t *testing.T) {
	initial, err := keys.NewStrict([]int64{0, 5, 9, 100, 200, 300, 400, 500, math.MaxInt64 - 807, math.MaxInt64})
	if err != nil {
		t.Fatal(err)
	}
	mix := workload.NewZipf(1.1, 85)
	runs := map[string]func() error{
		"static": func() error {
			_, err := StaticAttack(initial, StaticOptions{HonestWrites: 20, Seed: 3})
			return err
		},
		"serve": func() error {
			_, err := ServeAttack(initial, ServeOptions{Epochs: 2, OpsPerEpoch: 20, Shards: 2, Policy: dynamic.ManualPolicy(), Workload: mix, Seed: 3})
			return err
		},
		"churn": func() error {
			_, err := ChurnAttack(initial, ChurnOptions{Epochs: 2, OpsPerEpoch: 20, Shards: 2, Policy: dynamic.BufferLimit(4), Workload: mix, Seed: 3})
			return err
		},
		"cascade": func() error {
			_, err := CascadeAttack(initial, CascadeOptions{Epochs: 2, OpsPerEpoch: 20, LeafTarget: 4, Workload: mix, Seed: 3})
			return err
		},
	}
	for name, run := range runs {
		if err := run(); err != nil {
			t.Errorf("%s with Domain 0: %v", name, err)
		}
	}
}

// TestDefaultDomainBelowSaturation pins the default below the saturation
// threshold to 2·(max+1), the domain every fingerprint was recorded with,
// and checks the boundary where that product would wrap.
func TestDefaultDomainBelowSaturation(t *testing.T) {
	for _, c := range []struct {
		max, want int64
	}{
		{100, 202},
		{math.MaxInt64/2 - 1, 2 * (math.MaxInt64 / 2)},
		{math.MaxInt64 / 2, math.MaxInt64},
		{math.MaxInt64, math.MaxInt64},
	} {
		ks, err := keys.NewStrict([]int64{0, c.max})
		if err != nil {
			t.Fatal(err)
		}
		if got := defaultDomain(ks); got != c.want {
			t.Errorf("defaultDomain(max %d) = %d, want %d", c.max, got, c.want)
		}
	}
}
