package pla

// The experiments never look a key up in a PLA index, they count its
// segments, so the point query lives with the tests that check the error
// bound through it.

import "math"

// LookupResult mirrors rmi.LookupResult for comparable accounting.
type LookupResult struct {
	Pos    int
	Found  bool
	Probes int // key comparisons: segment routing + last-mile search
}

// Lookup finds a stored key; absent keys report Found=false. Stored keys
// are always found within epsilon of their prediction, by construction.
func (idx *Index) Lookup(k int64) LookupResult {
	var res LookupResult
	res.Pos = -1
	// Route: last segment with startKey <= k.
	lo, hi := 0, len(idx.segs)
	for lo < hi {
		mid := (lo + hi) / 2
		res.Probes++
		if idx.segs[mid].startKey <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	si := lo - 1
	if si < 0 {
		return res // below the smallest key
	}
	s := idx.segs[si]
	pred := float64(s.startPos) + s.slope*float64(k-s.startKey)
	from := int(math.Floor(pred)) - idx.epsilon
	to := int(math.Ceil(pred)) + idx.epsilon
	if from < 0 {
		from = 0
	}
	if to > idx.ks.Len()-1 {
		to = idx.ks.Len() - 1
	}
	for from <= to {
		mid := (from + to) / 2
		res.Probes++
		switch c := idx.ks.At(mid); {
		case c == k:
			res.Pos, res.Found = mid, true
			return res
		case c < k:
			from = mid + 1
		default:
			to = mid - 1
		}
	}
	return res
}
