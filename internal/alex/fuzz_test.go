package alex

// Fuzz harness: adversarial operation streams against the gapped array,
// replayed against the full structural oracle (checkInvariants). The
// checked-in corpus under testdata/fuzz seeds the shapes that stress
// split/cascade mechanics — dense ascending runs, descending runs, repeated
// keys, boundary-hugging inserts — and CI replays it alongside the
// keys/pla/index corpora.

import (
	"encoding/binary"
	"slices"
	"testing"

	"cdfpoison/internal/keys"
)

// FuzzAlexOps decodes data as [leafTarget byte][9-byte records: op byte +
// big-endian key] and drives an index through it. Every record leaves the
// structure invariant-clean; any panic or invariant break is a finding.
func FuzzAlexOps(f *testing.F) {
	mk := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	rec := func(op byte, k uint64) []byte {
		var b [9]byte
		b[0] = op
		binary.BigEndian.PutUint64(b[1:], k)
		return b[:]
	}
	// Dense ascending run into one region (the cascade attacker's shape).
	asc := []byte{2}
	for i := uint64(0); i < 40; i++ {
		asc = mk(asc, rec(0, 1000+i))
	}
	f.Add(asc)
	// Descending run with interleaved lookups and a retrain.
	desc := []byte{4}
	for i := uint64(0); i < 30; i++ {
		desc = mk(desc, rec(0, 5000-i), rec(2, 5000-i))
	}
	f.Add(mk(desc, rec(3, 0)))
	// Duplicates, negatives (high bit set), and far-out probes.
	f.Add(mk([]byte{8},
		rec(0, 7), rec(0, 7), rec(0, 1<<63|5), rec(0, 1<<40),
		rec(2, 1<<62), rec(1, 9), rec(3, 0)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		leafTarget := 2 + int(data[0]%16)
		data = data[1:]
		initial, err := keys.NewStrict([]int64{100, 200, 300, 400, 500})
		if err != nil {
			t.Fatal(err)
		}
		x, err := New(initial, leafTarget)
		if err != nil {
			t.Fatal(err)
		}
		mirror := initial
		snapKeys := []keys.Set{}
		snapViews := []interface {
			Len() int
			Keys() keys.Set
		}{}
		ops := 0
		for len(data) >= 9 && ops < 512 {
			op, k := data[0]%4, int64(binary.BigEndian.Uint64(data[1:9]))
			data = data[9:]
			ops++
			switch op {
			case 0, 1: // insert (duplicates, negatives, extremes included)
				acc, _ := x.Insert(k)
				wantAcc := k >= 0 && !mirror.Contains(k)
				if acc != wantAcc {
					t.Fatalf("Insert(%d) accepted=%v, want %v", k, acc, wantAcc)
				}
				if acc {
					mirror, _ = mirror.Insert(k)
				}
			case 2: // lookup
				if r := x.Lookup(k); r.Found != (k >= 0 && mirror.Contains(k)) {
					t.Fatalf("Lookup(%d).Found=%v diverges from mirror", k, r.Found)
				}
			case 3: // maintenance + snapshot capture
				s := x.Snapshot()
				snapKeys = append(snapKeys, keys.FromSorted(slices.Clone(s.Keys().Keys())))
				snapViews = append(snapViews, s)
				x.Retrain()
			}
			checkInvariants(t, x, mirror)
		}
		// Held snapshots survived every later insert, split, and rebuild.
		for i, s := range snapViews {
			if !s.Keys().Equal(snapKeys[i]) {
				t.Fatalf("snapshot %d content drifted under mutation", i)
			}
		}
	})
}
