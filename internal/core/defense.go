package core

// Defense-aware scenario plumbing: every attack scenario in this package
// accepts a DefenseSpec whose ZERO VALUE is "no defense" — the scenario then
// takes exactly the historical code path, which the zero-strength golden
// tests pin byte-for-byte. A non-zero spec arms some combination of
//
//   - a detector chain (internal/defense.Policy) wrapping the victim's — and
//     the clean twin's — write plane in a defense.Guard,
//   - a robust CDF fitter (internal/robust) replacing OLS in the learned
//     backends' retrains,
//   - a per-source write rate limiter (defense.RateLimiter) driven by the
//     scenario's logical op clock and the workload's round-robin source
//     attribution (workload.Op.Source), and
//   - the gapped-array backend's density-balancing split policy
//     (alex.NewBalanced), for the cascade scenario.
//
// The clean counterfactual runs the SAME defense over its pure-honest
// stream, so the defense's false-positive cost — honest writes flagged or
// throttled — is measured directly on the twin, while the victim-side
// accounting splits rejects by origin (the scenario knows which inserts are
// poison). bench.DefenseSweep turns these numbers into the Pareto frontier
// of attack-damage reduction vs honest-traffic overhead (DESIGN.md §10).

import (
	"cdfpoison/internal/defense"
	"cdfpoison/internal/dynamic"
	"cdfpoison/internal/index"
	"cdfpoison/internal/robust"
)

// DefenseSpec configures the defense plane of a scenario. The zero value
// disables everything; each field arms one mechanism independently.
type DefenseSpec struct {
	// Policies is the detector chain screening victim (and clean-twin)
	// inserts; nil or empty mounts no Guard. Build with defense
	// constructors or defense.ParsePolicyChain.
	Policies []defense.Policy
	// Fitter replaces the OLS CDF fit in learned-backend retrains (dynamic,
	// shard, single-model RMI); nil keeps regression.FitCDF. Ignored by
	// backends without a pluggable fit (B-Tree, alex).
	Fitter robust.Fitter
	// RateBudget/RateWindow arm per-source write rate limiting: each source
	// may land at most RateBudget accepted-or-rejected write ATTEMPTS per
	// RateWindow logical ops. Both must be >= 1 to arm; the scenario drives
	// the limiter off its own op clock, so verdicts are deterministic.
	RateBudget int
	RateWindow int
	// Sources spreads honest traffic round-robin across that many logical
	// clients (workload.SetSources); the attacker always writes from its own
	// dedicated source id (== Sources). With Sources <= 1 every honest op
	// shares source 0 and the attacker uses source 1 — rate limits then
	// squeeze honest traffic and the attacker about equally, which is the
	// honest-overhead worst case the sweep wants visible.
	Sources int
	// BalancedSplit selects the gapped-array backend's density-balancing
	// split policy (alex.NewBalanced) in the cascade scenario; ignored
	// elsewhere.
	BalancedSplit bool
}

// Enabled reports whether any defense mechanism is armed.
func (d DefenseSpec) Enabled() bool {
	return len(d.Policies) > 0 || d.Fitter != nil || d.rateLimited() || d.BalancedSplit
}

func (d DefenseSpec) rateLimited() bool { return d.RateBudget >= 1 && d.RateWindow >= 1 }

// fitFunc adapts the spec's fitter to the learned backends' pluggable-fit
// hook; nil when no fitter is armed (the backends then use OLS).
func (d DefenseSpec) fitFunc() dynamic.FitFunc {
	if d.Fitter == nil {
		return nil
	}
	return d.Fitter.Fit
}

// attackerSource is the dedicated source id the scenario attributes poison
// writes to: one past the honest round-robin range.
func (d DefenseSpec) attackerSource() int {
	if d.Sources > 1 {
		return d.Sources
	}
	return 1
}

// DefenseReport is a scenario's defense-plane accounting, split by origin.
// Victim-side rejects are attributed by the scenario (it knows which inserts
// are poison); the Clean* columns count the clean twin's pure-honest stream
// through the identical defense — the direct false-positive reading.
// All counts are write ATTEMPTS, before duplicate rejection by the backend.
type DefenseReport struct {
	// PoisonAttempts counts the attacker's victim-side write attempts.
	PoisonAttempts int
	// Victim-side guard rejects by origin.
	FlaggedHonest, FlaggedPoison int
	// Victim-side rate-limiter refusals by origin.
	ThrottledHonest, ThrottledPoison int
	// Clean-twin accounting: attempts, guard rejects, limiter refusals —
	// all honest by construction.
	CleanAttempts, CleanFlagged, CleanThrottled int
}

// PoisonBlockedFrac returns the fraction of the attacker's write attempts
// the defense stopped (flagged or throttled).
func (r DefenseReport) PoisonBlockedFrac() float64 {
	if r.PoisonAttempts == 0 {
		return 0
	}
	return float64(r.FlaggedPoison+r.ThrottledPoison) / float64(r.PoisonAttempts)
}

// HonestBlockedFrac returns the fraction of the clean twin's honest write
// attempts the defense stopped — the sweep's honest-overhead reading.
func (r DefenseReport) HonestBlockedFrac() float64 {
	if r.CleanAttempts == 0 {
		return 0
	}
	return float64(r.CleanFlagged+r.CleanThrottled) / float64(r.CleanAttempts)
}

// defenseArm is one index's armed write path: limiter → guard → backend,
// with per-origin accounting into the shared report. The zero spec yields a
// passthrough arm whose insert is exactly sink.Insert — the structural
// identity the zero-strength golden tests rely on.
type defenseArm struct {
	limiter *defense.RateLimiter
	guard   *defense.Guard // nil when no policy chain is armed
	sink    index.Writer   // where inserts land (pipeline, guard, or backend)
	rep     *DefenseReport
	clean   bool
}

// newArm arms one side's write path. guard may be nil; sink must be the
// outermost writer (e.g. the retrain pipeline wrapping the guard).
func (d DefenseSpec) newArm(sink index.Writer, guard *defense.Guard, rep *DefenseReport, clean bool) *defenseArm {
	a := &defenseArm{guard: guard, sink: sink, rep: rep, clean: clean}
	if d.rateLimited() {
		rl, err := defense.NewRateLimiter(d.RateBudget, d.RateWindow)
		if err != nil { // unreachable: rateLimited() validated both params
			panic(err)
		}
		a.limiter = rl
	}
	return a
}

// insert screens one write attempt: the limiter first (a throttled write
// never reaches the guard or the backend), then the guard via the sink. op
// is the scenario's logical clock; poison attributes the attempt.
func (a *defenseArm) insert(k int64, source, op int, poison bool) (accepted, retrained bool) {
	a.account(poison, 0)
	if a.limiter != nil && !a.limiter.Allow(source, op) {
		a.account(poison, 2)
		return false, false
	}
	before := 0
	if a.guard != nil {
		before = a.guard.Flagged()
	}
	accepted, retrained = a.sink.Insert(k)
	if a.guard != nil && a.guard.Flagged() > before {
		a.account(poison, 1)
	}
	return accepted, retrained
}

// account records one attempt (kind 0), flag (1), or throttle (2).
func (a *defenseArm) account(poison bool, kind int) {
	if a.clean {
		switch kind {
		case 0:
			a.rep.CleanAttempts++
		case 1:
			a.rep.CleanFlagged++
		case 2:
			a.rep.CleanThrottled++
		}
		return
	}
	switch {
	case kind == 0 && poison:
		a.rep.PoisonAttempts++
	case kind == 1 && poison:
		a.rep.FlaggedPoison++
	case kind == 1:
		a.rep.FlaggedHonest++
	case kind == 2 && poison:
		a.rep.ThrottledPoison++
	case kind == 2:
		a.rep.ThrottledHonest++
	}
}

// wrap mounts the spec's guard (when armed) around a backend, returning the
// possibly-wrapped backend plus the guard handle for flag attribution. With
// no policy chain the backend passes through untouched — same value, same
// dynamic type — so the undefended construction is structurally identical.
func (d DefenseSpec) wrap(b index.Backend) (index.Backend, *defense.Guard) {
	if len(d.Policies) == 0 {
		return b, nil
	}
	g := defense.NewGuard(b, defense.GuardOptions{Policies: d.Policies})
	return g, g
}
