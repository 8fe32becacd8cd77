// Package xrand provides a small, deterministic pseudo-random toolkit used by
// every experiment in this repository.
//
// The standard library's math/rand is perfectly serviceable, but its default
// Source changed behaviour across Go releases and its global state makes
// experiments order-dependent. All results in EXPERIMENTS.md must be exactly
// reproducible from a seed, on any Go release, so we implement a tiny,
// well-known generator (splitmix64 seeding a xoshiro256**) along with the few
// samplers the paper's workloads need: uniform integers, normal and
// log-normal variates, and sampling without replacement.
package xrand

import "math"

// RNG is a deterministic pseudo-random number generator (xoshiro256**
// seeded by splitmix64). The zero value is not usable; construct with New.
type RNG struct {
	s [4]uint64
}

// New returns an RNG deterministically derived from seed. Any seed,
// including zero, yields a well-mixed initial state.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Split returns a new RNG whose stream is independent of r's, derived from
// r's current state. It is used to give each experiment cell its own stream
// so that cells can be reordered or run in parallel without changing results.
func (r *RNG) Split() *RNG {
	return New(r.Uint64() ^ 0xd1b54a32d192ed03)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Int63n returns a uniformly distributed integer in [0, n). It panics if
// n <= 0. Lemire-style rejection keeps the distribution exactly uniform.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("xrand: Int63n with n <= 0")
	}
	un := uint64(n)
	// Rejection sampling on the top bits avoids modulo bias.
	mask := ^uint64(0)
	if un&(un-1) == 0 { // power of two
		return int64(r.Uint64() & (un - 1))
	}
	limit := mask - mask%un
	for {
		v := r.Uint64()
		if v < limit {
			return int64(v % un)
		}
	}
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int { return int(r.Int63n(int64(n))) }

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate (mean 0, stddev 1) using the
// Marsaglia polar method, which needs only Float64 and is branch-simple.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// LogNormFloat64 returns exp(mu + sigma*Z) with Z standard normal: a
// log-normal variate with the given log-space parameters. The paper's
// synthetic skewed workload uses mu=0, sigma=2 (Section V-B).
func (r *RNG) LogNormFloat64(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Perm returns a random permutation of [0, n) (Fisher–Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// SampleInt64s draws k distinct integers from [0, m) uniformly at random.
// It panics if k > m or either argument is negative.
//
// Two strategies keep it O(k) expected space/time at any density:
//   - dense draws (k > m/4): shuffle-prefix over the full domain,
//   - sparse draws: Floyd's algorithm with a hash set.
//
// The result is NOT sorted; callers that need order sort it themselves.
func SampleInt64s(r *RNG, k int, m int64) []int64 {
	if k < 0 || m < 0 || int64(k) > m {
		panic("xrand: SampleInt64s requires 0 <= k <= m")
	}
	if k == 0 {
		return nil
	}
	if int64(k) > m/4 && m <= 1<<27 {
		// Dense: partial Fisher–Yates over an explicit domain array.
		domain := make([]int64, m)
		for i := range domain {
			domain[i] = int64(i)
		}
		for i := 0; i < k; i++ {
			j := int64(i) + r.Int63n(m-int64(i))
			domain[i], domain[j] = domain[j], domain[i]
		}
		return domain[:k]
	}
	// Sparse: Floyd's sampling — uniform over k-subsets, O(k) expected.
	seen := make(map[int64]struct{}, k)
	out := make([]int64, 0, k)
	for j := m - int64(k); j < m; j++ {
		t := r.Int63n(j + 1)
		if _, dup := seen[t]; dup {
			t = j
		}
		seen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}
