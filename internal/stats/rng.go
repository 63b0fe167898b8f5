// Package stats provides the deterministic random-number generation,
// histogram and summary-statistics primitives used by every other package
// in the SOMPI reproduction.
//
// All randomness in the repository flows through RNG so that every
// experiment is reproducible given its seed; no package uses math/rand's
// global state.
package stats

import "math"

// RNG is a small, fast, deterministic pseudo-random generator built on
// splitmix64. It is deliberately not safe for concurrent use; simulation
// code that fans out creates one RNG per goroutine via Split.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two RNGs with the same seed
// produce identical streams on every platform.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Split derives an independent generator from r. The derived stream is
// decorrelated from the parent's subsequent output, which lets concurrent
// simulation replicas share a single top-level seed.
func (r *RNG) Split() *RNG {
	return &RNG{state: r.Uint64()*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d}
}

// StreamRNG derives the stream-th generator from seed without any shared
// state, so concurrent workers can each own a stream chosen by index
// rather than by spawn order. The derivation advances the splitmix64
// state by stream golden-ratio increments: stream i's first output equals
// the (i+1)-th output of NewRNG(seed), which makes any computation that
// draws a bounded, known number of values per stream (e.g. one start
// point per Monte Carlo replication) identical to a single sequential
// generator — and therefore independent of how streams are distributed
// across workers. Streams at adjacent indices overlap after the first
// draw; callers that need many draws per stream should use Split instead.
func StreamRNG(seed, stream uint64) *RNG {
	return &RNG{state: seed + 0x9e3779b97f4a7c15*stream}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal variate using the Box-Muller
// transform. Simulation accuracy, not tail precision, is the goal here.
func (r *RNG) NormFloat64() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// LogNormal returns a log-normal variate with the given location and scale
// parameters of the underlying normal.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Exp returns an exponential variate with the given rate (events per unit
// time). It panics if rate <= 0.
func (r *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("stats: Exp with non-positive rate")
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) / rate
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
