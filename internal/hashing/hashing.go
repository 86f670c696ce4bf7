// Package hashing provides the seeded 64-bit hash functions used by the
// sketch data structures in this repository.
//
// Sketches such as Count-Min and MinMaxSketch need a family of hash
// functions where each member is selected by an independent seed and the
// members behave as if pairwise independent. Mix64, a strong
// finalizer-style avalanche hash (SplitMix64 / Murmur3 finalizer
// construction) keyed by a seed, gives excellent bit dispersion for integer
// keys; Family derives one seed per sketch row from a master seed.
//
// All functions are deterministic given their seed, allocation-free, and
// safe for concurrent use.
package hashing

import (
	"math/bits"

	"sketchml/internal/invariant"
)

// Mix64 returns a well-dispersed 64-bit hash of x under the given seed.
//
// The construction XORs the seed into the input and applies the SplitMix64
// finalizer (Stafford variant 13), which passes standard avalanche tests:
// flipping any input bit flips each output bit with probability ~1/2.
func Mix64(x, seed uint64) uint64 {
	z := x ^ seed
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Family is a set of seeded hash functions mapping uint64 keys into
// [0, buckets). Each row of a sketch uses one member of the family.
type Family struct {
	seeds   []uint64
	buckets uint64
}

// NewFamily creates a family of n hash functions into [0, buckets).
// The master seed selects the family deterministically; two families built
// with the same master seed are identical.
func NewFamily(n int, buckets int, masterSeed uint64) *Family {
	if n <= 0 {
		invariant.Fail("hashing: family size must be positive")
	}
	if buckets <= 0 {
		invariant.Fail("hashing: bucket count must be positive")
	}
	f := &Family{}
	f.Reshape(n, buckets, masterSeed)
	return f
}

// Reshape reconfigures the family in place to n hash functions into
// [0, buckets), re-deriving the row seeds from masterSeed exactly as
// NewFamily does. The seed slice is reused whenever its capacity allows,
// so decoders that rebuild a family per message can do so without
// allocating once warm.
func (f *Family) Reshape(n int, buckets int, masterSeed uint64) {
	if n <= 0 {
		invariant.Fail("hashing: family size must be positive")
	}
	if buckets <= 0 {
		invariant.Fail("hashing: bucket count must be positive")
	}
	if cap(f.seeds) >= n {
		f.seeds = f.seeds[:n]
	} else {
		f.seeds = make([]uint64, n)
	}
	// Derive row seeds from the master seed with SplitMix64 so that any
	// master seed yields well-separated row seeds.
	s := masterSeed
	for i := range f.seeds {
		s += 0x9e3779b97f4a7c15 // golden-ratio increment
		f.seeds[i] = Mix64(s, 0)
	}
	f.buckets = uint64(buckets)
}

// Index returns hash row i of key, reduced into [0, buckets).
//
// Reduction uses the high bits of the 128-bit product (Lemire's fast
// alternative to modulo), which is unbiased for bucket counts far below 2^64
// and avoids an integer division on the hot path.
func (f *Family) Index(row int, key uint64) int {
	return int(Reduce(Mix64(key, f.seeds[row]), f.buckets))
}

// Row returns the seed of hash function row and the family's range, for a
// caller that hashes a block of keys and hoists both out of its loop:
// Index(row, key) == Reduce(Mix64(key, seed), buckets).
func (f *Family) Row(row int) (seed, buckets uint64) {
	return f.seeds[row], f.buckets
}

// Reduce maps a 64-bit hash into [0, buckets) by the high 64 bits of the
// 128-bit product h*buckets (one multiply instruction where the compiler has
// the intrinsic).
func Reduce(h, buckets uint64) uint64 {
	hi, _ := bits.Mul64(h, buckets)
	return hi
}
