package core

import (
	"fmt"

	"cdfpoison/internal/keys"
)

// This file implements the deletion adversary the paper lists as future
// work (Section VI: "adversaries that are capable of removing and
// modif[ying] keys"). Removing a key k decrements the rank of every larger
// key — the mirror image of the insertion attack's compound effect — so the
// same prefix-moment machinery yields an O(n) optimal single-removal attack
// and a greedy multi-removal attack.

// RemovalResult describes a single-key removal attack.
type RemovalResult struct {
	Key          int64   // the key whose removal maximizes the loss
	CleanLoss    float64 // MSE before the removal
	PoisonedLoss float64 // MSE after removing Key and re-ranking
}

// OptimalSingleRemoval finds the stored key whose deletion maximizes the
// MSE of the re-trained regression, in O(n).
//
// Derivation: with centered keys x_i and ranks i+1, removing position j
// leaves n−1 points whose rank multiset is again exactly {1, …, n−1};
// the moments of the survivor set are
//
//	ΣX    = S_x − x_j
//	ΣX²   = S_xx − x_j²
//	ΣXR   = S_xr − x_j·(j+1) − Suf_x(j+1)
//
// (keys above j lose one unit of rank, subtracting their key sum), all
// O(1) from the same prefix/suffix state the insertion attack uses.
func OptimalSingleRemoval(ks keys.Set) (RemovalResult, error) {
	n := ks.Len()
	if n < 3 {
		// Removing from a 2-key set leaves a degenerate regression.
		return RemovalResult{}, ErrTooFew
	}
	origin := ks.Min()
	x := make([]float64, n)
	var sx, sxx, sxr float64
	for i := 0; i < n; i++ {
		x[i] = float64(ks.At(i) - origin)
		sx += x[i]
		sxx += x[i] * x[i]
		sxr += x[i] * float64(i+1)
	}
	suf := make([]float64, n+1)
	for i := n - 1; i >= 0; i-- {
		suf[i] = suf[i+1] + x[i]
	}
	cleanLoss := lossFromMoments(sx, sxx, sxr, n)

	res := RemovalResult{CleanLoss: cleanLoss, PoisonedLoss: -1}
	for j := 0; j < n; j++ {
		nsx := sx - x[j]
		nsxx := sxx - x[j]*x[j]
		nsxr := sxr - x[j]*float64(j+1) - suf[j+1]
		l := lossFromMoments(nsx, nsxx, nsxr, n-1)
		if l > res.PoisonedLoss {
			res.PoisonedLoss = l
			res.Key = ks.At(j)
		}
	}
	return res, nil
}

// lossFromMoments evaluates the optimal-regression MSE from raw sums over
// points (x_i, rank i+1), i = 0..n−1.
func lossFromMoments(sx, sxx, sxr float64, n int) float64 {
	nf := float64(n)
	mx := sx / nf
	mxx := sxx / nf
	mxr := sxr / nf
	mr := (nf + 1) / 2
	varX := mxx - mx*mx
	varR := (nf*nf - 1) / 12
	if varX <= 0 {
		return varR
	}
	cov := mxr - mx*mr
	loss := varR - cov*cov/varX
	if loss < 0 {
		return 0
	}
	return loss
}

// GreedyRemovalResult describes a multi-key removal attack.
type GreedyRemovalResult struct {
	Removed    []int64  // removed keys in deletion order
	Remaining  keys.Set // K \ R
	CleanLoss  float64
	Trajectory []float64 // MSE after each removal
}

// FinalLoss returns the MSE after the last removal.
func (g GreedyRemovalResult) FinalLoss() float64 {
	if len(g.Trajectory) == 0 {
		return g.CleanLoss
	}
	return g.Trajectory[len(g.Trajectory)-1]
}

// RatioLoss returns FinalLoss/CleanLoss.
func (g GreedyRemovalResult) RatioLoss() float64 { return SafeRatio(g.FinalLoss(), g.CleanLoss) }

// GreedyRemoval deletes up to p keys, each chosen by OptimalSingleRemoval
// against the surviving set, stopping early when no deletion helps.
// It mirrors Algorithm 1 for the deletion adversary.
func GreedyRemoval(ks keys.Set, p int) (GreedyRemovalResult, error) {
	if p < 0 {
		return GreedyRemovalResult{}, fmt.Errorf("core: negative removal budget %d", p)
	}
	if ks.Len() < 3 {
		return GreedyRemovalResult{}, ErrTooFew
	}
	res := GreedyRemovalResult{Remaining: ks}
	clean, err := OptimalSingleRemoval(ks)
	if err != nil {
		return GreedyRemovalResult{}, err
	}
	res.CleanLoss = clean.CleanLoss
	current := res.CleanLoss
	for j := 0; j < p; j++ {
		if res.Remaining.Len() < 3 {
			break
		}
		step, err := OptimalSingleRemoval(res.Remaining)
		if err != nil {
			return GreedyRemovalResult{}, err
		}
		if step.PoisonedLoss < current {
			break
		}
		current = step.PoisonedLoss
		next, ok := res.Remaining.Remove(step.Key)
		if !ok {
			return GreedyRemovalResult{}, fmt.Errorf("core: removal bookkeeping: chosen key %d absent", step.Key)
		}
		res.Remaining = next
		res.Removed = append(res.Removed, step.Key)
		res.Trajectory = append(res.Trajectory, step.PoisonedLoss)
	}
	return res, nil
}
