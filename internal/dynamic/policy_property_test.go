package dynamic

import (
	"testing"

	"cdfpoison/internal/dataset"
	"cdfpoison/internal/xrand"
)

// TestEveryKDuplicateAccountingProperty pins the adversarial lever the
// EveryK doc comment claims: the retrain counter ticks on Insert CALLS,
// accepted or not, so rejected duplicates (and negative keys) drive the
// write-count schedule — while BufferThreshold advances only on ACCEPTED
// keys and is immune to the same stream. The property is checked over
// random interleavings of fresh keys, duplicates, and negatives: after any
// prefix of the stream,
//
//	EveryK(K) retrains  == floor(total insert calls / K)
//	Buffer(K) retrains  == what the accepted count alone dictates
func TestEveryKDuplicateAccountingProperty(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		rng := xrand.New(seed)
		initial, err := dataset.Uniform(rng.Split(), 100, 4_000)
		if err != nil {
			t.Fatal(err)
		}
		K := 2 + rng.Intn(9) // K in [2, 10]
		every, err := New(initial, EveryKInserts(K))
		if err != nil {
			t.Fatal(err)
		}
		buffer, err := New(initial, BufferLimit(K))
		if err != nil {
			t.Fatal(err)
		}

		calls, accepted := 0, 0
		bufDepth, bufRetrains := 0, 0
		for op := 0; op < 600; op++ {
			var k int64
			switch rng.Intn(3) {
			case 0: // fresh-or-collision draw over the whole domain
				k = rng.Int63n(4_000)
			case 1: // guaranteed duplicate: a key already in the index
				full := every.Keys()
				k = full.At(rng.Intn(full.Len()))
			default: // rejected outright
				k = -1 - rng.Int63n(100)
			}

			calls++
			eAccepted, eRetrained := every.Insert(k)
			bAccepted, bRetrained := buffer.Insert(k)

			// Both indexes hold identical content at every step (same
			// stream, acceptance is content-determined), so acceptance
			// must agree.
			if eAccepted != bAccepted {
				t.Fatalf("seed %d op %d: acceptance diverged on %d: every=%v buffer=%v",
					seed, op, k, eAccepted, bAccepted)
			}
			if eAccepted {
				accepted++
			}

			// EveryK: the counter ticks on calls. Retrain fires exactly at
			// call multiples of K, duplicate or not.
			wantRetrain := calls%K == 0
			if eRetrained != wantRetrain {
				t.Fatalf("seed %d op %d (K=%d): EveryK retrained=%v at call %d, want %v (accepted=%v)",
					seed, op, K, eRetrained, calls, wantRetrain, eAccepted)
			}
			if got, want := every.Stats().Retrains, calls/K; got != want {
				t.Fatalf("seed %d op %d (K=%d): EveryK retrains=%d, want floor(%d/%d)=%d",
					seed, op, K, got, calls, K, want)
			}

			// BufferThreshold: only accepted keys advance it; a rejected
			// duplicate can never trigger it.
			if bAccepted {
				bufDepth++
			}
			wantBufRetrain := bufDepth >= K
			if bRetrained != wantBufRetrain {
				t.Fatalf("seed %d op %d (K=%d): buffer retrained=%v with depth %d, want %v",
					seed, op, K, bRetrained, bufDepth, wantBufRetrain)
			}
			if bRetrained {
				bufDepth = 0
				bufRetrains++
			}
			if !bAccepted && bRetrained {
				t.Fatalf("seed %d op %d: rejected insert retrained the buffer policy", seed, op)
			}
			if got := buffer.Stats().Retrains; got != bufRetrains {
				t.Fatalf("seed %d op %d: buffer retrains=%d, model says %d", seed, op, got, bufRetrains)
			}
		}

		// The contrast the doc comment sells: with enough duplicates in the
		// stream, EveryK retrained strictly more often than the buffer
		// policy at the same K — the duplicate-write lever.
		if calls > accepted && every.Stats().Retrains <= buffer.Stats().Retrains {
			t.Fatalf("seed %d: EveryK retrains %d <= buffer retrains %d despite %d rejected writes",
				seed, every.Stats().Retrains, buffer.Stats().Retrains, calls-accepted)
		}
	}
}
