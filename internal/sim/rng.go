package sim

// RNG is a small, fast, seedable pseudo-random generator
// (xorshift64star). The simulator avoids math/rand so that random streams
// are stable across Go releases: experiment outputs must be reproducible
// byte-for-byte for the regression tests in EXPERIMENTS.md.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. A zero seed is remapped to a
// fixed non-zero constant because xorshift has an all-zero fixed point.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// SplitMix64 is the splitmix64 finalizer: a bijective mixing function whose
// outputs pass statistical tests even on sequential inputs. It is the seed
// deriver of choice (Vigna) for spawning independent streams.
func SplitMix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// DeriveSeed derives the RNG seed of the index-th point of a sweep from the
// sweep's base seed. Two splitmix rounds decorrelate (base, index) pairs, so
// every point of every sweep gets an independent stream while the mapping
// stays a pure function of its inputs — a parallel sweep that assigns points
// to arbitrary workers reproduces the sequential run bit for bit.
func DeriveSeed(base, index uint64) uint64 {
	s := SplitMix64(SplitMix64(base) + index)
	if s == 0 {
		// Avoid the xorshift fixed point remap so that distinct (base, index)
		// pairs keep distinct effective seeds.
		s = 0x9E3779B97F4A7C15
	}
	return s
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n) using Fisher-Yates.
func (r *RNG) Perm(n int) []int { return r.permInto(nil, n) }

// Sample returns k distinct values drawn from [0, n) in random order.
// It panics if k > n or k < 0.
func (r *RNG) Sample(n, k int) []int { return r.SampleInto(nil, n, k) }

// SampleInto is Sample drawing into buf's backing array (grown to n when
// shorter). It shuffles all of [0, n) exactly as Perm does, with the same
// n-1 draws, so the values and every later draw match Sample's. The result
// is buf's array cut to k; pass it back to reuse the array.
func (r *RNG) SampleInto(buf []int, n, k int) []int {
	if k < 0 || k > n {
		panic("sim: Sample k out of range")
	}
	return r.permInto(buf, n)[:k]
}

// permInto fills buf's backing array (grown to n when shorter) with a
// Fisher-Yates shuffle of [0, n).
func (r *RNG) permInto(buf []int, n int) []int {
	if cap(buf) < n {
		buf = make([]int, n)
	}
	p := buf[:n]
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
