package sim

import "math"

// Rand is a small, fast, deterministic PRNG (SplitMix64 core). Every
// stochastic component of the simulator draws from its own Rand stream
// derived from the run seed, so adding a new consumer of randomness
// does not perturb the draws seen by existing ones.
type Rand struct {
	state uint64
}

// NewRand returns a stream seeded with seed.
func NewRand(seed uint64) *Rand {
	return &Rand{state: seed}
}

// Split derives an independent child stream. The label keeps children
// with different purposes decorrelated even under equal seeds.
func (r *Rand) Split(label uint64) *Rand {
	return NewRand(r.Uint64() ^ (label * 0x9e3779b97f4a7c15))
}

// Uint64 returns the next 64 uniformly distributed random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// UniformInt returns a uniform int64 in the closed interval [lo, hi].
func (r *Rand) UniformInt(lo, hi int64) int64 {
	if hi < lo {
		panic("sim: UniformInt with hi < lo")
	}
	return lo + r.Int63n(hi-lo+1)
}

// Exp returns an exponentially distributed float64 with the given mean.
func (r *Rand) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// ExpDuration returns an exponentially distributed Duration with the
// given mean; it is the inter-arrival draw for Poisson processes.
func (r *Rand) ExpDuration(mean Duration) Duration {
	return Duration(r.Exp(float64(mean)))
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
