// Package detrand is the repo's single sanctioned source of
// deterministic pseudo-randomness: the splitmix64 mixing function and
// the derivations built on it. Every subsystem that needs a seeded,
// coordinate-addressable random draw — the fault injector's per-message
// verdicts, the partitioner's per-epoch seeds — goes through this
// package, never through global math/rand or wall-clock entropy;
// core's TestBitwiseRootsReproduce fails a root that reads either.
//
// Determinism here is load-bearing, not stylistic: the 34M-core scaling
// argument requires every rank to derive identical decisions from
// (seed, coordinates) alone, with no communication and no dependence on
// scheduling order. splitmix64 (Steele, Lea & Flood, "Fast Splittable
// Pseudorandom Number Generators", OOPSLA 2014) is chosen because it is
// a pure 64-bit value function: stateless at the call site, trivially
// reproducible in any language a cross-implementation needs to agree
// with, and strong enough to decorrelate adjacent coordinates.
package detrand

// Gamma is the splitmix64 sequence increment (the odd integer nearest
// 2^64/phi). Streams advance by adding Gamma to their state; unrelated
// draws are decorrelated by the Mix finalizer.
const Gamma = 0x9e3779b97f4a7c15

// Mix is the splitmix64 finalizer: a bijective avalanche over 64 bits.
// Equal inputs give equal outputs on every platform, and a single-bit
// input change flips each output bit with probability ~1/2.
func Mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Step advances one splitmix64 state and finalizes it — the canonical
// next() of the reference generator. Iterating Step over x, x+Gamma,
// x+2*Gamma, ... reproduces the published test vectors.
func Step(x uint64) uint64 {
	return Mix(x + Gamma)
}

// Fold mixes a salt into a running hash — the building block for
// folding message or entity coordinates into one deterministic draw:
//
//	h := detrand.Step(seed)
//	h = detrand.Fold(h, uint64(from))
//	h = detrand.Fold(h, uint64(to))
func Fold(h, salt uint64) uint64 {
	return Step(h ^ salt)
}

// Unit maps a draw to the unit interval [0, 1) with 53 uniform bits —
// the float64 mantissa width, so the conversion is exact.
func Unit(x uint64) float64 {
	return float64(x>>11) / (1 << 53)
}

// SeedAt derives the seed of sequence index i (an epoch, a member
// generation, a retry round) from a base seed: state advances i steps
// along the splitmix64 stream, then finalizes. Successive indices yield
// decorrelated seeds while staying reproducible from (seed, i) alone.
func SeedAt(seed int64, i int) int64 {
	return int64(Mix(uint64(seed) + uint64(i)*Gamma))
}
