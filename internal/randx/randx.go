// Package randx provides the deterministic random-number machinery shared
// by the dataset simulator and the randomized algorithms (IC sampling,
// RRR-set generation, LDA Gibbs sampling).
//
// Everything in the repository takes an explicit *randx.Rand or a seed;
// the global math/rand state is never touched, so every experiment,
// example and test is reproducible bit-for-bit from its seed.
package randx

import "math"

// Rand is a small, fast, seedable PRNG (xoshiro256** by Blackman and
// Vigna). It implements the handful of draws the repository needs and is
// deliberately independent of math/rand so behaviour is stable across Go
// releases.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed via SplitMix64, which maps any
// 64-bit value (including zero) to a full-entropy internal state.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Reseed(seed)
	return r
}

// Reseed reinitializes r from seed exactly as New does, letting callers
// recycle generator values instead of allocating fresh ones.
func (r *Rand) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
}

// Split returns a new generator derived deterministically from r's current
// state and the label. Use it to hand independent streams to subcomponents
// without correlating their draws.
func (r *Rand) Split(label uint64) *Rand {
	return New(r.Uint64() ^ (label * 0x9e3779b97f4a7c15))
}

// SplitInto reseeds dst with the same stream Split(label) would return,
// without allocating. The parallel samplers use it to derive one stream
// per scheduling chunk from a pooled generator array.
func (r *Rand) SplitInto(label uint64, dst *Rand) {
	dst.Reseed(r.Uint64() ^ (label * 0x9e3779b97f4a7c15))
}

// SplitStreamsInto reseeds dst[i] with the stream Split(i) would return,
// for every i, consuming one generator draw per stream. It is THE way to
// derive per-chunk streams for a parallel stage: called sequentially
// before any chunk runs, it pins stream identity to the chunk index so
// the result cannot depend on scheduling order (the repo-wide
// determinism contract; see internal/parallel).
func (r *Rand) SplitStreamsInto(dst []Rand) {
	for i := range dst {
		r.SplitInto(uint64(i), &dst[i])
	}
}

// Mix folds the labels into one stream seed via a SplitMix64 chain. It is
// a pure function — unlike Split it consumes no generator state — so a
// parallel worker can derive the stream of any (seed, sweep, chunk, ...)
// coordinate independently and in any order. The chunked Gibbs sampler
// keys its per-sweep chunk streams this way.
func Mix(labels ...uint64) uint64 {
	h := uint64(0x6a09e667f3bcc909) // fractional bits of sqrt(2)
	for _, l := range labels {
		h ^= l + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		z := h
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		h = z ^ (z >> 31)
	}
	return h
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics when n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("randx: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// NormFloat64 returns a standard normal draw using the Marsaglia polar
// method.
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Pareto returns a draw from the Pareto distribution with scale xm > 0 and
// shape alpha > 0; the density is alpha*xm^alpha / x^(alpha+1) for x >= xm.
// The paper models worker displacement lengths with exactly this law.
func (r *Rand) Pareto(xm, alpha float64) float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return xm / math.Pow(u, 1/alpha)
		}
	}
}

// Zipf returns a draw in [0, n) with P(k) proportional to 1/(k+1)^s, via
// inversion on the precomputed CDF held by the Zipf type. For one-off
// draws prefer NewZipf + Draw.
type Zipf struct {
	cdf []float64
}

// NewZipf precomputes a Zipf(s) distribution over n ranks.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("randx: NewZipf with non-positive n")
	}
	cdf := make([]float64, n)
	total := 0.0
	for k := 0; k < n; k++ {
		total += 1 / math.Pow(float64(k+1), s)
		cdf[k] = total
	}
	for k := range cdf {
		cdf[k] /= total
	}
	return &Zipf{cdf: cdf}
}

// Draw samples a rank from z using r.
func (z *Zipf) Draw(r *Rand) int {
	u := r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Perm returns a random permutation of [0, n) using the Fisher-Yates
// shuffle.
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// WeightedChoice returns an index drawn proportionally to weights. All
// weights must be non-negative; it panics when the total is not positive.
func (r *Rand) WeightedChoice(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		panic("randx: WeightedChoice with non-positive total weight")
	}
	u := r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}
