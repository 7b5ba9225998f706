// Package rng provides deterministic, splittable random-number streams used
// throughout the simulator. Every stochastic component of a campaign draws
// from a stream derived from the campaign seed and a string label, so that
// adding a new consumer of randomness does not perturb existing ones and
// every experiment is exactly reproducible from its seed.
package rng

import (
	"math"
	"math/rand"
)

// Stream is a deterministic random stream. It draws math/rand's sequence
// for its seed (from source, which seeds lazily) through math/rand's
// distributions, plus the ones the simulator needs. A Stream is not safe
// for concurrent use; derive per-goroutine streams with Split.
type Stream struct {
	r *rand.Rand
	// base is the seed material the stream was constructed from; Split
	// derives children from it so splitting is order-independent (it does
	// not matter how much of the parent has been consumed).
	base uint64
	src  source
}

// newStream returns the stream for seed material b.
func newStream(b uint64) *Stream {
	s := &Stream{base: b}
	s.src.Seed(mix(b))
	s.r = rand.New(&s.src)
	return s
}

// New returns a stream seeded with the given seed.
func New(seed int64) *Stream { return newStream(uint64(seed)) }

// Split derives an independent child stream from this stream's seed material
// and a label. Splitting is stable: the same parent seed and label always
// yield the same child, regardless of how much the parent has been consumed.
func (s *Stream) Split(label string) *Stream { return newStream(s.base ^ fnv64(label)) }

// NewLabeled returns a stream derived from seed and a label; equivalent to
// New(seed).Split(label).
func NewLabeled(seed int64, label string) *Stream {
	return New(seed).Split(label)
}

// Float64 returns a uniform value in [0,1).
func (s *Stream) Float64() float64 { return s.r.Float64() }

// Intn returns a uniform int in [0,n).
func (s *Stream) Intn(n int) int { return s.r.Intn(n) }

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Stream) Int63() int64 { return s.r.Int63() }

// NormFloat64 returns a standard normal variate.
func (s *Stream) NormFloat64() float64 { return s.r.NormFloat64() }

// Normal returns a normal variate with the given mean and standard deviation.
func (s *Stream) Normal(mean, std float64) float64 { return mean + std*s.r.NormFloat64() }

// LogNormal returns a log-normal variate with the given parameters of the
// underlying normal (mu, sigma).
func (s *Stream) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*s.r.NormFloat64())
}

// Exp returns an exponential variate with the given mean.
func (s *Stream) Exp(mean float64) float64 { return s.r.ExpFloat64() * mean }

// Uniform returns a uniform value in [lo, hi).
func (s *Stream) Uniform(lo, hi float64) float64 { return lo + (hi-lo)*s.r.Float64() }

// Bool returns true with probability p.
func (s *Stream) Bool(p float64) bool { return s.r.Float64() < p }

// Perm returns a random permutation of [0,n).
func (s *Stream) Perm(n int) []int { return s.r.Perm(n) }

// Shuffle shuffles n elements using the provided swap function.
func (s *Stream) Shuffle(n int, swap func(i, j int)) { s.r.Shuffle(n, swap) }

// AR1 is a first-order autoregressive process used to model slowly varying
// background traffic intensity. Successive values are correlated with
// coefficient Rho and revert to Mean with stationary standard deviation Std.
type AR1 struct {
	Mean, Std, Rho float64

	cur    float64
	inited bool
}

// Next advances the process by one step and returns the new value, clamped
// to be non-negative.
func (p *AR1) Next(s *Stream) float64 {
	if !p.inited {
		p.cur = p.Mean + p.Std*s.NormFloat64()
		p.inited = true
	} else {
		// Innovation variance chosen so the stationary std is p.Std.
		innov := p.Std * math.Sqrt(1-p.Rho*p.Rho)
		p.cur = p.Mean + p.Rho*(p.cur-p.Mean) + innov*s.NormFloat64()
	}
	if p.cur < 0 {
		p.cur = 0
	}
	return p.cur
}

// Value returns the current value without advancing.
func (p *AR1) Value() float64 { return p.cur }

// fnv64 hashes a string with FNV-1a.
func fnv64(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// mix applies a SplitMix64 finalizer so nearby seeds produce unrelated
// streams.
func mix(x uint64) int64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x = x ^ (x >> 31)
	return int64(x >> 1) // non-negative
}
