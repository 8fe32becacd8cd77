// Package workload generates deterministic read/write operation streams for
// the serving scenarios: an honest population issuing point lookups over the
// stored keys interleaved with fresh inserts, with the read-key distribution
// selectable between uniform, Zipf-over-rank, and an adversarial hotspot
// mix. Streams are pure functions of (spec, initial key set, domain, seed) —
// seeded via internal/xrand, no clocks, no global state — so every scenario
// replay and every worker-equivalence test sees byte-identical traffic.
//
// Read keys are drawn by RANK into the initial key set (the population
// queries what it stored), which keeps read workloads meaningful as the
// backend absorbs new writes: a lookup always targets a key that is present,
// so probe counts measure cost, not miss rates. Write keys are drawn
// uniformly from the key universe [0, domain) and may collide with stored
// keys — the backend's accept/reject bookkeeping handles that, as in the
// online scenario.
package workload

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"cdfpoison/internal/keys"
	"cdfpoison/internal/xrand"
)

// Kind selects the read-key distribution over ranks.
type Kind int

const (
	// Uniform reads hit every stored rank equally often.
	Uniform Kind = iota
	// Zipf reads follow a Zipf law over rank: rank r drawn with probability
	// ∝ 1/r^Theta — the classic skewed-popularity serving workload.
	Zipf
	// Hotspot reads concentrate on a small contiguous rank window (the
	// middle HotPct percent of ranks): hotWindowShare of reads land in the
	// window, the rest are uniform. This is the adversarial mix — an
	// attacker who poisons the ranges the population actually reads
	// multiplies per-query damage.
	Hotspot
)

// String names the kind for specs and CSV cells.
func (k Kind) String() string {
	switch k {
	case Uniform:
		return "uniform"
	case Zipf:
		return "zipf"
	case Hotspot:
		return "hotspot"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// hotWindowShare is the fraction of reads a Hotspot spec sends into the hot
// rank window; the remainder are uniform over all ranks.
const hotWindowShare = 0.9

// Spec parameterizes a workload stream. The zero value is invalid;
// construct with NewUniform/NewZipf/NewHotspot or ParseSpec.
type Spec struct {
	Kind Kind
	// ReadPct is the percentage of operations that are reads, in [0, 100].
	ReadPct float64
	// Theta is the Zipf exponent (> 0); ignored by other kinds.
	Theta float64
	// HotPct is the hot window's size as a percentage of the rank space,
	// in (0, 100]; ignored by other kinds.
	HotPct float64
}

// NewUniform returns a uniform-read spec with the given read percentage.
func NewUniform(readPct float64) Spec { return Spec{Kind: Uniform, ReadPct: readPct} }

// NewZipf returns a Zipf-over-rank spec with exponent theta.
func NewZipf(theta, readPct float64) Spec {
	return Spec{Kind: Zipf, ReadPct: readPct, Theta: theta}
}

// NewHotspot returns a hotspot spec whose hot window covers hotPct percent
// of the rank space.
func NewHotspot(hotPct, readPct float64) Spec {
	return Spec{Kind: Hotspot, ReadPct: readPct, HotPct: hotPct}
}

// Validate reports whether the spec's parameters are in range.
func (s Spec) Validate() error {
	if s.ReadPct < 0 || s.ReadPct > 100 || math.IsNaN(s.ReadPct) {
		return fmt.Errorf("workload: read%% %v outside [0, 100]", s.ReadPct)
	}
	switch s.Kind {
	case Uniform:
	case Zipf:
		if !(s.Theta > 0) || math.IsInf(s.Theta, 0) {
			return fmt.Errorf("workload: zipf theta %v must be a positive finite number", s.Theta)
		}
	case Hotspot:
		if !(s.HotPct > 0 && s.HotPct <= 100) {
			return fmt.Errorf("workload: hotspot%% %v outside (0, 100]", s.HotPct)
		}
	default:
		return fmt.Errorf("workload: unknown kind %d", int(s.Kind))
	}
	return nil
}

// String renders the spec in the syntax ParseSpec accepts.
func (s Spec) String() string {
	switch s.Kind {
	case Zipf:
		return fmt.Sprintf("zipf:%g:%g", s.Theta, s.ReadPct)
	case Hotspot:
		return fmt.Sprintf("hotspot:%g:%g", s.HotPct, s.ReadPct)
	default:
		return fmt.Sprintf("uniform:%g", s.ReadPct)
	}
}

// Op is one operation of the stream.
type Op struct {
	Read bool
	Key  int64
	// Source identifies the logical client that issued the op, for
	// per-source rate limiting in the defense plane (internal/defense).
	// Generators assign it round-robin from an op counter — see SetSources —
	// so it consumes no RNG draws and streams stay byte-identical in
	// (Read, Key) whether or not sources are enabled. Always 0 until
	// SetSources is called with n >= 2.
	Source int
}

// Generator produces the deterministic operation stream for one spec. It
// is not safe for concurrent use. A caller may draw on more than one
// goroutine only by handing the generator from one to the next through a
// join (a channel receive or a WaitGroup.Wait), so that one goroutine
// draws at a time and the RNG is consumed in order: internal/serve's
// concurrent plane draws each epoch on a helper goroutine that way.
type Generator struct {
	spec    Spec
	initial keys.Set
	domain  int64
	rng     *xrand.RNG
	// zipf inverts the Zipf CDF over ranks (Zipf only).
	zipf zipfTable
	// hotLo/hotHi bound the hot rank window (Hotspot only), inclusive.
	hotLo, hotHi int
	// sources > 0 spreads ops round-robin across that many logical clients
	// (see SetSources); opCount is the counter driving the rotation.
	sources int
	opCount int
}

// SetSources spreads subsequent ops round-robin across n logical clients:
// op i is attributed to client i mod n. n <= 1 disables attribution
// (Source stays 0). The assignment is driven by a plain op counter, NOT the
// RNG, so enabling sources never perturbs the (Read, Key) stream — the
// byte-identity every recorded scenario CSV depends on.
func (g *Generator) SetSources(n int) {
	if n <= 1 {
		n = 0
	}
	g.sources = n
}

// NewGenerator builds the stream generator. Reads target the initial key
// set by rank; writes are uniform over [0, domain). The generator is
// deterministic: identical arguments produce identical streams.
func NewGenerator(spec Spec, initial keys.Set, domain int64, seed uint64) (*Generator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if initial.Len() < 1 {
		return nil, fmt.Errorf("workload: need a non-empty initial key set")
	}
	if domain < 1 {
		return nil, fmt.Errorf("workload: need domain >= 1, got %d", domain)
	}
	g := &Generator{spec: spec, initial: initial, domain: domain, rng: xrand.New(seed)}
	n := initial.Len()
	switch spec.Kind {
	case Zipf:
		if n > math.MaxInt32 {
			return nil, fmt.Errorf("workload: zipf reads need at most %d keys, got %d", math.MaxInt32, n)
		}
		g.zipf = newZipfTable(n, spec.Theta)
	case Hotspot:
		width := int(float64(n) * spec.HotPct / 100)
		if width < 1 {
			width = 1
		}
		g.hotLo = (n - width) / 2
		g.hotHi = g.hotLo + width - 1
	}
	return g, nil
}

// zipfTable is the Zipf CDF over ranks with a Chen & Asau guide table that
// inverts it in O(1) expected time per draw, with exactly the answers of a
// binary search over cum.
type zipfTable struct {
	// cum[i] = Σ_{r<=i+1} r^-Theta, normalized to cum[n-1] == 1.
	cum []float64
	// guide[j], for j in [0, n], is the first i with bucket(cum[i]) >= j,
	// where bucket(x) = int(x*n). cum[n-1] == 1 lands in bucket n, so every
	// entry exists and guide[n] <= n-1.
	guide []int32
}

// parallelTermsMin is the rank count below which the Zipf weights are
// computed inline: for smaller tables starting goroutines costs more than
// it saves.
const parallelTermsMin = 1 << 14

// newZipfTable builds the table over n ranks (1 <= n <= math.MaxInt32). The
// weights are computed in parallel chunks (each is a pure function of its
// rank), then summed and normalized in one sequential pass, so every float
// equals the plain running sum's. The guide is filled in the normalizing
// pass.
func newZipfTable(n int, theta float64) zipfTable {
	z := zipfTable{cum: make([]float64, n), guide: make([]int32, n+1)}
	zipfTerms(z.cum, theta)
	sum := 0.0
	for i, w := range z.cum {
		sum += w
		z.cum[i] = sum
	}
	j := 0
	for i := range z.cum {
		z.cum[i] /= sum
		for b := z.bucket(z.cum[i]); j <= b; j++ {
			z.guide[j] = int32(i)
		}
	}
	return z
}

// zipfTerms sets w[i] = (i+1)^-theta: inline below parallelTermsMin ranks
// or with one processor, else in GOMAXPROCS contiguous chunks.
func zipfTerms(w []float64, theta float64) {
	procs := runtime.GOMAXPROCS(0)
	if len(w) < parallelTermsMin || procs < 2 {
		powTerms(w, 0, theta)
		return
	}
	chunk := (len(w) + procs - 1) / procs
	var wg sync.WaitGroup
	for lo := 0; lo < len(w); lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			powTerms(w[lo:hi], lo, theta)
		}(lo, min(lo+chunk, len(w)))
	}
	wg.Wait()
}

// powTerms sets w[i] = (first+i+1)^-theta.
func powTerms(w []float64, first int, theta float64) {
	for i := range w {
		w[i] = math.Pow(float64(first+i+1), -theta)
	}
}

// bucket maps a probability in [0, 1] to its guide slot in [0, n].
func (z zipfTable) bucket(x float64) int { return int(x * float64(len(z.cum))) }

// rank returns the first i with cum[i] >= u, for u in [0, 1): the answer
// sort.SearchFloat64s(cum, u) gives. bucket is monotone and applied to u
// and cum alike, so with b = bucket(u) every index below guide[b] has
// cum < u, and cum[guide[b+1]] > u; the answer lies in [guide[b],
// guide[b+1]], which a binary search narrows. u < 1 keeps b <= n-1 (u*n
// rounds below n), so guide[b+1] exists. n equal-width buckets share n
// ranks, so over uniform u the range averages about one rank; a bucket
// that holds a long tail of tiny weights costs O(log n), not a scan. The
// search is written out: sort.SearchFloat64s on the range, through its
// callback, took 1.8x as long per OpsInto.
func (z zipfTable) rank(u float64) int {
	b := z.bucket(u)
	lo, hi := int(z.guide[b]), int(z.guide[b+1])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// readRank draws the next read's 0-based rank.
func (g *Generator) readRank() int {
	n := g.initial.Len()
	switch g.spec.Kind {
	case Zipf:
		return g.zipf.rank(g.rng.Float64())
	case Hotspot:
		if g.rng.Float64() < hotWindowShare {
			return g.hotLo + g.rng.Intn(g.hotHi-g.hotLo+1)
		}
		return g.rng.Intn(n)
	default:
		return g.rng.Intn(n)
	}
}

// Next draws the next operation of the stream.
func (g *Generator) Next() Op {
	var src int
	if g.sources > 0 {
		src = g.opCount % g.sources
	}
	g.opCount++
	if g.rng.Float64()*100 < g.spec.ReadPct {
		return Op{Read: true, Key: g.initial.At(g.readRank()), Source: src}
	}
	return Op{Key: g.rng.Int63n(g.domain), Source: src}
}

// Ops draws the next n operations.
func (g *Generator) Ops(n int) []Op {
	return g.OpsInto(nil, n)
}

// OpsInto draws the next n operations into dst, reusing its backing array
// when it is large enough — the allocation-free path the serving
// scenario's epoch loop uses to re-draw each epoch's stream into a buffer
// it reuses. The stream is identical to n calls of Next.
func (g *Generator) OpsInto(dst []Op, n int) []Op {
	if cap(dst) < n {
		dst = make([]Op, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = g.Next()
	}
	return dst
}
