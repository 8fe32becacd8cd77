package core

import (
	"fmt"

	"cdfpoison/internal/keys"
)

// The modification adversary — the third capability the paper's future-work
// list names ("adversaries that are capable of removing and modify[ing]
// keys", Section VI). A modification is modeled as one deletion plus one
// insertion, keeping the key count constant: the attacker controls records
// it contributed earlier and rewrites their keys before the index retrains.

// ModificationStep records one applied modification.
type ModificationStep struct {
	Removed  int64
	Inserted int64
	Loss     float64 // MSE after this modification
}

// ModificationResult describes a greedy multi-modification attack.
type ModificationResult struct {
	Steps     []ModificationStep
	Modified  keys.Set // the key set after all modifications
	CleanLoss float64
}

// FinalLoss returns the MSE after the last applied modification.
func (m ModificationResult) FinalLoss() float64 {
	if len(m.Steps) == 0 {
		return m.CleanLoss
	}
	return m.Steps[len(m.Steps)-1].Loss
}

// RatioLoss returns FinalLoss/CleanLoss.
func (m ModificationResult) RatioLoss() float64 { return SafeRatio(m.FinalLoss(), m.CleanLoss) }

// GreedyModification applies up to p key modifications, each chosen
// greedily: first the optimal single removal against the current set, then
// the optimal single insertion against the survivor set (each O(n), so a
// step costs O(n) like the base attacks — the survivor set itself is built
// by keys.Set.Remove in one copy, not a re-sort). The pair is applied only if the
// resulting loss exceeds the current loss, so the trajectory is
// non-decreasing and the ratio is >= 1.
//
// The pairwise-greedy choice is a heuristic — the jointly optimal
// (removal, insertion) pair would cost O(n²) per step — mirroring the
// paper's greedy treatment of the multi-point problem.
func GreedyModification(ks keys.Set, p int) (ModificationResult, error) {
	if p < 0 {
		return ModificationResult{}, fmt.Errorf("core: negative modification budget %d", p)
	}
	if ks.Len() < 3 {
		return ModificationResult{}, ErrTooFew
	}
	res := ModificationResult{Modified: ks}
	first, err := OptimalSingleRemoval(ks)
	if err != nil {
		return ModificationResult{}, err
	}
	res.CleanLoss = first.CleanLoss
	current := res.CleanLoss

	for j := 0; j < p; j++ {
		if res.Modified.Len() < 3 {
			break
		}
		rem, err := OptimalSingleRemoval(res.Modified)
		if err != nil {
			return ModificationResult{}, err
		}
		survivors, ok := res.Modified.Remove(rem.Key)
		if !ok {
			return ModificationResult{}, fmt.Errorf("core: modification bookkeeping: chosen key %d absent", rem.Key)
		}
		ins, err := OptimalSinglePoint(survivors)
		if err != nil {
			// Saturated survivor set: fall back to pure removal only if it
			// still helps; otherwise stop.
			if rem.PoisonedLoss >= current {
				res.Modified = survivors
				res.Steps = append(res.Steps, ModificationStep{
					Removed: rem.Key, Inserted: -1, Loss: rem.PoisonedLoss,
				})
				current = rem.PoisonedLoss
				continue
			}
			break
		}
		if ins.PoisonedLoss < current {
			break
		}
		next, ok := survivors.Insert(ins.Key)
		if !ok {
			return ModificationResult{}, fmt.Errorf("core: modification bookkeeping: key %d occupied", ins.Key)
		}
		res.Modified = next
		res.Steps = append(res.Steps, ModificationStep{
			Removed: rem.Key, Inserted: ins.Key, Loss: ins.PoisonedLoss,
		})
		current = ins.PoisonedLoss
	}
	return res, nil
}
