package defense

// The composable detector side of the serving-plane defense: Guard policies.
// Each Policy is one poisoning trigger evaluated at insert time against the
// backend's current content; a Guard runs a CHAIN of them and rejects a key
// any policy flags. The four detectors cover the repo's attack families
// (DESIGN.md §10):
//
//   - density:  one-sided local-density screen — the greedy attack's poison
//     runs are denser than anything honest.
//   - dupmass:  near-duplicate mass — poison that crowds within a few units
//     of existing keys (exact duplicates are already rejected by every
//     backend, so attackers sit AT the duplicate boundary).
//   - gapout:   gap-asymmetry outlier — cascade/greedy keys hug one edge of
//     a wide gap (a+1, b−1), honest writes land anywhere, so an extreme
//     near-side/far-side ratio is adversarial.
//   - lossspike: the defender runs the attacker's own O(1) loss oracle
//     (regression.Prefix) and refuses any key whose insertion would spike
//     the retrained MSE — the detector aligned exactly with the paper's
//     attack objective.

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"cdfpoison/internal/index"
	"cdfpoison/internal/keys"
	"cdfpoison/internal/regression"
)

// reach is the rank reach R of the one window a screen reads around its
// key: the stored keys within R ranks either side of it. It covers every
// shipped chain (density:8, dupmass count 3); a wider policy reads its far
// ends with At instead (DESIGN.md §10).
const reach = 8

// Content is what a Guard's policies read: the screened backend's current
// keys, by rank, and the exact-moment loss kernel the lossspike policy
// consults. A Guard builds one Content on its first screened insert and
// keeps it for its whole life (DESIGN.md §10). It takes one of two paths,
// chosen by a type assertion on the backend:
//
//   - the rank path, for a backend with index.Ranker: ranks is the backend
//     itself, read live, so only a lossspike kernel copies the keys;
//   - the fallback, for any other backend: ranks is mirror, a private
//     sorted copy of the keys that add keeps current on every accepted
//     insert.
//
// Policies read it only through its methods, and only within one
// Suspicious call: the next insert changes what they return.
type Content struct {
	ranks  index.Ranker
	mirror *keys.MutableSet // the fallback's key copy; nil on the rank path
	// keysOf materializes the content when the kernel needs keys of its
	// own: on the rank path, where there is no mirror to build it over.
	keysOf func() keys.Set

	// The screen's one window read, taken by the first rank policy that
	// asks (window): readK's position pos (how many stored keys lie below
	// it) and near, the stored keys of ranks [first, first+len(near)). A
	// Guard clears read at the start of every screen; near's storage is
	// reused from screen to screen.
	read  bool
	readK int64
	pos   int
	first int
	near  []int64

	// oracle is the lossspike kernel, over the mirror on the fallback and
	// over a copy of its own on the rank path. It is built on first use
	// and then fed each accepted key (add), so no offer rebuilds it; its
	// keys grow as Prefix.Insert appends once their reserve runs out.
	// oracleInit marks a build attempt since the last accepted insert; a
	// failed one leaves oracle nil and the loss policies abstain.
	oracle     *regression.Prefix
	oracleInit bool
}

// newContent builds the content over b: the rank path when b implements
// index.Ranker, else a mirror of b.Keys(). The mirror must copy: backends
// may return their live storage from Keys.
func newContent(b index.Backend) *Content {
	near := make([]int64, 0, 2*reach)
	if r, ok := b.(index.Ranker); ok {
		return &Content{ranks: r, keysOf: b.Keys, near: near}
	}
	m := keys.NewMutable(b.Keys(), copyReserve(b.Len()))
	return &Content{ranks: m, mirror: m, near: near}
}

// copyReserve is the spare capacity a private copy of n keys starts with:
// 1/32 of n, so the mirror's slack stays under 4% of its size while a
// regrowth (one O(n) copy) is amortized over n/32 inserts.
func copyReserve(n int) int { return n/32 + 8 }

// Len returns the number of stored keys.
func (c *Content) Len() int { return c.ranks.Len() }

// At returns the stored key of 0-based rank i.
func (c *Content) At(i int) int64 { return c.ranks.At(i) }

// window reads, once per screen, the stored keys within reach ranks of k,
// and returns pos, how many stored keys lie below k (the 0-based insertion
// index of an absent k).
func (c *Content) window(k int64) (pos int) {
	if !c.read || c.readK != k {
		c.pos, c.near = c.ranks.Window(k, reach, c.near[:0])
		c.first = max(c.pos-reach, 0)
		c.read, c.readK = true, k
	}
	return c.pos
}

// key returns the stored key of 0-based rank i: from the screen's window
// when it holds rank i, else from At. It reads the window of the last
// window call, so a policy calls window first.
func (c *Content) key(i int) int64 {
	if j := i - c.first; j >= 0 && j < len(c.near) {
		return c.near[j]
	}
	return c.ranks.At(i)
}

// Min returns the smallest stored key.
func (c *Content) Min() int64 { return c.ranks.At(0) }

// Max returns the largest stored key.
func (c *Content) Max() int64 { return c.ranks.At(c.ranks.Len() - 1) }

// add records an accepted insert of k. A built kernel absorbs k in O(1)
// moment updates, a new minimum included (on the fallback its Insert
// places k in the mirror too); otherwise k joins the mirror directly. It
// reports false, leaving the content unchanged, when the mirror refuses k
// (negative or already present).
func (c *Content) add(k int64) bool {
	if c.oracle != nil {
		if _, err := c.oracle.Insert(k); err == nil {
			return true
		}
		// ErrRange, or a duplicate: the kernel disagrees with the backend.
		// Drop it; the next LossOracle call rebuilds it, or abstains.
		c.oracle = nil
	}
	c.oracleInit = false
	if c.mirror == nil {
		return true
	}
	if c.mirror.Len() == c.mirror.Cap() {
		c.mirror = keys.NewMutable(c.mirror.View(), copyReserve(c.mirror.Len()))
		c.ranks = c.mirror
	}
	_, ok := c.mirror.Insert(k)
	return ok
}

// LossOracle returns the exact-moment loss oracle over the content, built
// on first use; nil when the content cannot support one (fewer than two
// keys, or keys outside the oracle's exact integer range), in which case
// loss-based policies abstain.
func (c *Content) LossOracle() *regression.Prefix {
	if c.oracle != nil && c.oracle.N() != c.ranks.Len() {
		// The backend took keys the guard did not see (possible only on the
		// rank path, which reads the backend live): rebuild.
		c.oracle, c.oracleInit = nil, false
	}
	if !c.oracleInit {
		c.oracleInit = true
		m := c.mirror
		if m == nil {
			m = keys.NewMutable(c.keysOf(), copyReserve(c.ranks.Len()))
		}
		if p, err := regression.NewPrefixMutable(m); err == nil {
			c.oracle = p
		}
	}
	return c.oracle
}

// Policy is one poisoning detector in a Guard's chain. Suspicious reports
// whether inserting k into the content looks adversarial; it must be a pure
// function of (content, k) — no state, no RNG — so chains stay
// deterministic and order-independent. Name returns the canonical spec form
// and round-trips through ParsePolicyChain.
type Policy interface {
	Name() string
	Suspicious(c *Content, k int64) bool
}

// DensityPolicy is the one-sided local-density screen (the original Guard
// heuristic): each SIDE of the candidate's would-be position is measured
// against the global key density, and the denser side decides. One-sided
// windows matter because the greedy attack grows its poison run
// edge-outward — a centered window always straddles the wide gap beyond the
// run's edge and averages the cluster away, while the run-side window is
// pure cluster.
type DensityPolicy struct {
	// Window is the rank half-width of the neighbourhood inspected around
	// each candidate insert.
	Window int
	// Ratio is the density multiple above which an insert is rejected.
	Ratio float64
}

// Name returns the canonical spec "density:W:R".
func (p DensityPolicy) Name() string { return fmt.Sprintf("density:%d:%g", p.Window, p.Ratio) }

// Suspicious implements the screen.
func (p DensityPolicy) Suspicious(c *Content, k int64) bool {
	n := c.Len()
	if n < 3 {
		return false
	}
	span := c.Max() - c.Min()
	if span <= 0 {
		return false
	}
	global := float64(n) / float64(span)
	pos := c.window(k) // 0-based insertion index
	// Each side's two rank ends come from the window; a Window above
	// reach reads its far ends with At.
	side := func(lo, hi int) float64 {
		if lo < 0 {
			lo = 0
		}
		if hi > n-1 {
			hi = n - 1
		}
		if hi <= lo {
			return 0
		}
		width := c.key(hi) - c.key(lo)
		if width <= 0 {
			width = 1
		}
		return float64(hi-lo) / float64(width)
	}
	// A window of n already covers every rank, and clamping to it keeps
	// pos-1+w from overflowing on a window near math.MaxInt.
	w := min(p.Window, n)
	left := side(pos-w, pos-1)  // the Window keys below k
	right := side(pos, pos-1+w) // the Window keys at/above k
	density := left
	if right > density {
		density = right
	}
	return density > p.Ratio*global
}

// DupMassPolicy flags near-duplicate mass: a key with Count or more
// existing keys within distance Window of it. Backends already reject exact
// duplicates, so adversaries emit the closest legal thing — runs of
// adjacent keys — which this counts directly; an honest uniform write into
// a sparse universe almost never lands within a few units of that many
// stored keys.
type DupMassPolicy struct {
	// Window is the key-space half-width of the neighbourhood.
	Window int64
	// Count is the neighbour count at which the insert is rejected.
	Count int
}

// Name returns the canonical spec "dupmass:W:C".
func (p DupMassPolicy) Name() string { return fmt.Sprintf("dupmass:%d:%d", p.Window, p.Count) }

// Suspicious decides whether [k−Window, k+Window] holds Count or more
// stored keys. Those keys hold consecutive ranks around k's position pos,
// so if there are at least Count of them, at least Count lie within Count
// ranks of pos: with Count ≤ reach, the keys of the screen's window that
// fall in the range decide exactly. A larger Count finds the range's
// lowest rank a and asks At whether rank a+Count−1 still lies in it.
func (p DupMassPolicy) Suspicious(c *Content, k int64) bool {
	lo, hi := k-p.Window, k+p.Window
	if k < math.MinInt64+p.Window {
		lo = math.MinInt64
	}
	if k > math.MaxInt64-p.Window-1 {
		hi = math.MaxInt64 - 1
	}
	if p.Count > reach {
		a, _ := c.ranks.Window(lo, 0, nil)
		return c.Len()-a >= p.Count && c.At(a+p.Count-1) <= hi
	}
	c.window(k)
	neighbours := 0
	for _, x := range c.near {
		if lo <= x && x <= hi {
			neighbours++
		}
	}
	return neighbours >= p.Count
}

// GapOutlierPolicy flags gap-asymmetry: for an interior candidate, the
// distances to its stored predecessor and successor should be of the same
// order for honest traffic, while cascade and greedy poison hug one edge of
// a wide gap (a+1 or b−1 — near-side distance 1, far side the whole gap).
// An insert is rejected when the far side exceeds Ratio times the near
// side. Keys outside the stored range have only one side and pass.
type GapOutlierPolicy struct {
	// Ratio is the far-side/near-side distance multiple above which the
	// insert is rejected.
	Ratio float64
}

// Name returns the canonical spec "gapout:R".
func (p GapOutlierPolicy) Name() string { return fmt.Sprintf("gapout:%g", p.Ratio) }

// Suspicious measures the candidate's two gap sides.
func (p GapOutlierPolicy) Suspicious(c *Content, k int64) bool {
	n := c.Len()
	pos := c.window(k)
	if pos == 0 || pos == n {
		return false // at most one side exists; nothing to compare
	}
	lo := k - c.key(pos-1)
	hi := c.key(pos) - k
	if lo <= 0 || hi <= 0 {
		return false // duplicate; the backend rejects it anyway
	}
	near, far := lo, hi
	if near > far {
		near, far = far, near
	}
	return float64(far) > p.Ratio*float64(near)
}

// LossSpikePolicy turns the attacker's oracle against them: it prices every
// candidate with the same exact O(1) closed-form loss the greedy attack
// maximizes (regression.Prefix.PoisonedLossAuto) and rejects keys whose
// insertion would multiply the retrained MSE by more than Ratio. It
// abstains when the content cannot support the oracle.
type LossSpikePolicy struct {
	// Ratio is the poisoned/clean loss multiple above which the insert is
	// rejected (> 1; honest inserts sit near 1).
	Ratio float64
}

// Name returns the canonical spec "lossspike:R".
func (p LossSpikePolicy) Name() string { return fmt.Sprintf("lossspike:%g", p.Ratio) }

// Suspicious prices the candidate's retrain-loss impact.
func (p LossSpikePolicy) Suspicious(c *Content, k int64) bool {
	oracle := c.LossOracle()
	if oracle == nil {
		return false
	}
	clean := oracle.CleanLoss()
	if clean <= 0 {
		return false // a perfect line: any honest insert spikes it too
	}
	loss, ok := oracle.PoisonedLossAuto(k)
	if !ok {
		return false // duplicate or out of range; the backend handles it
	}
	return loss > p.Ratio*clean
}

// ChainSpec renders a policy chain in the canonical spec syntax
// ("density:8:4|lossspike:1.5"; "none" for an empty chain). It is the
// inverse of ParsePolicyChain.
func ChainSpec(ps []Policy) string {
	if len(ps) == 0 {
		return "none"
	}
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name()
	}
	return strings.Join(names, "|")
}

// ParsePolicyChain parses the detector-chain spec syntax of `lispoison
// defense` and bench.DefenseSweep: '|'-separated policies, each
//
//	density:W:R      one-sided density screen (rank window W, ratio R)
//	dupmass:W:C      near-duplicate mass (key distance W, count C)
//	gapout:R         gap-asymmetry outlier (far/near ratio R)
//	lossspike:R      retrain-loss spike (poisoned/clean ratio R)
//	none             the empty chain (alone)
//
// ParsePolicyChain is total: any input yields a chain or an error, never a
// panic (FuzzParsePolicyChain enforces this), and ChainSpec round-trips
// through it.
func ParsePolicyChain(spec string) ([]Policy, error) {
	if spec == "none" {
		return nil, nil
	}
	parts := strings.Split(spec, "|")
	out := make([]Policy, 0, len(parts))
	for _, part := range parts {
		p, err := parsePolicy(part)
		if err != nil {
			return nil, fmt.Errorf("policy chain %q: %w", spec, err)
		}
		out = append(out, p)
	}
	return out, nil
}

func parsePolicy(s string) (Policy, error) {
	fields := strings.Split(s, ":")
	bad := func(what, raw string) error {
		return fmt.Errorf("policy %q: bad %s %q", s, what, raw)
	}
	parseRatio := func(raw, what string, min float64) (float64, error) {
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v < min {
			return 0, bad(what, raw)
		}
		return v, nil
	}
	switch fields[0] {
	case "density":
		if len(fields) != 3 {
			return nil, fmt.Errorf("policy %q: want density:W:R", s)
		}
		w, err := strconv.Atoi(fields[1])
		if err != nil || w < 1 {
			return nil, bad("window", fields[1])
		}
		r, err := parseRatio(fields[2], "ratio", 1e-9)
		if err != nil {
			return nil, err
		}
		return DensityPolicy{Window: w, Ratio: r}, nil
	case "dupmass":
		if len(fields) != 3 {
			return nil, fmt.Errorf("policy %q: want dupmass:W:C", s)
		}
		w, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil || w < 1 {
			return nil, bad("window", fields[1])
		}
		cnt, err := strconv.Atoi(fields[2])
		if err != nil || cnt < 1 {
			return nil, bad("count", fields[2])
		}
		return DupMassPolicy{Window: w, Count: cnt}, nil
	case "gapout":
		if len(fields) != 2 {
			return nil, fmt.Errorf("policy %q: want gapout:R", s)
		}
		r, err := parseRatio(fields[1], "ratio", 1)
		if err != nil {
			return nil, err
		}
		return GapOutlierPolicy{Ratio: r}, nil
	case "lossspike":
		if len(fields) != 2 {
			return nil, fmt.Errorf("policy %q: want lossspike:R", s)
		}
		r, err := parseRatio(fields[1], "ratio", 1)
		if err != nil {
			return nil, err
		}
		return LossSpikePolicy{Ratio: r}, nil
	default:
		return nil, fmt.Errorf("unknown policy %q (want density:W:R | dupmass:W:C | gapout:R | lossspike:R)", s)
	}
}

// RateLimiter is the traffic-plane defense: a deterministic per-source
// write budget on a logical operation clock. Each source may have at most
// Budget ALLOWED writes within every Window-operation span; further writes
// from that source are refused until the next span. There is no wall clock
// and no RNG — the scenario's own op counter is the clock — so rate-limited
// runs replay byte-identically.
//
// The limiter does not know who is honest: the scenarios account refused
// attacker writes (poison rejected) and refused honest writes (honest
// throttled) separately, which is exactly the overhead-vs-damage trade the
// Pareto sweep measures.
type RateLimiter struct {
	budget int
	window int
	seen   map[int]int // source → last window index observed
	counts map[int]int // source → allowed writes in that window
}

// NewRateLimiter builds a limiter allowing budget writes per source per
// window ops (both >= 1).
func NewRateLimiter(budget, window int) (*RateLimiter, error) {
	if budget < 1 || window < 1 {
		return nil, fmt.Errorf("defense: rate limiter needs budget >= 1 and window >= 1, got %d/%d", budget, window)
	}
	return &RateLimiter{
		budget: budget,
		window: window,
		seen:   make(map[int]int),
		counts: make(map[int]int),
	}, nil
}

// Allow reports whether the write from source at logical operation op fits
// the source's budget, and consumes one unit when it does. op must be
// non-decreasing per source.
func (r *RateLimiter) Allow(source, op int) bool {
	w := op / r.window
	if last, ok := r.seen[source]; !ok || last != w {
		r.seen[source] = w
		r.counts[source] = 0
	}
	if r.counts[source] >= r.budget {
		return false
	}
	r.counts[source]++
	return true
}
