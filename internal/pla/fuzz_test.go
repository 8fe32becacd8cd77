package pla

import (
	"testing"

	"cdfpoison/internal/keys"
)

// FuzzBuild derives a key set and epsilon from raw fuzz bytes, builds a
// real index, and checks the two guarantees Build makes: every stored
// key's prediction is within epsilon of its rank (up to float rounding,
// the tolerance TestErrorBoundHolds uses), and every stored key is found
// at its rank.
func FuzzBuild(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 200, 1, 1}, uint8(2))
	f.Add([]byte{255, 0, 9}, uint8(1))
	f.Add([]byte{7}, uint8(64))
	f.Fuzz(func(t *testing.T, deltas []byte, epsByte uint8) {
		if len(deltas) == 0 || len(deltas) > 4096 {
			return
		}
		eps := int(epsByte%128) + 1
		ks := make([]int64, 0, len(deltas))
		cur := int64(0)
		for _, d := range deltas {
			cur += int64(d) + 1 // strictly increasing
			ks = append(ks, cur)
		}
		s, err := keys.NewStrict(ks)
		if err != nil {
			t.Fatalf("derived keys invalid: %v", err)
		}
		idx, err := Build(s, eps)
		if err != nil {
			t.Fatalf("Build(n=%d, eps=%d): %v", s.Len(), eps, err)
		}
		if worst := idx.VerifyErrorBound(); worst > float64(eps)+1e-9 {
			t.Fatalf("error bound %v exceeds eps=%d", worst, eps)
		}
		for i := 0; i < s.Len(); i++ {
			if r := idx.Lookup(s.At(i)); !r.Found || r.Pos != i {
				t.Fatalf("lookup(%d) = %+v, want found at %d", s.At(i), r, i)
			}
		}
	})
}
