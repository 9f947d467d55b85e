// Package detrand holds the simulator's deterministic primitives: the
// splitmix64 Source every seeded component draws from, the FNV-1a digest
// behind cell seeds and traffic digests, and the xorshift64 step of the
// synthetic access traces. It is integer arithmetic with no package state,
// so every stream and digest is a pure function of its inputs on every
// platform and Go release; known-answer vectors pin the exact outputs.
package detrand

// Gamma is splitmix64's increment, 2^64/φ rounded to odd. Callers also use
// it as an odd multiplier that spreads sequence numbers across 64 bits.
const Gamma = 0x9e3779b97f4a7c15

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Source is a splitmix64 generator. Its value is its whole state: the
// conversion Source(seed) builds one, and a copy continues independently.
type Source uint64

// Uint64 advances the stream and returns the next draw.
func (s *Source) Uint64() uint64 {
	*s += Gamma
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform draw in [0, 1).
func (s *Source) Float64() float64 { return float64(s.Uint64()>>11) / (1 << 53) }

// Fill overwrites p with draws, eight little-endian bytes per draw; the
// unused high bytes of a final partial draw are discarded.
func (s *Source) Fill(p []byte) {
	var w uint64
	for i := range p {
		if i&7 == 0 {
			w = s.Uint64()
		}
		p[i] = byte(w >> (8 * uint(i&7)))
	}
}

// Shuffle permutes n elements through swap with a Fisher–Yates pass from
// the top, drawing j = Uint64() % (i+1) for each i from n-1 down to 1.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, int(s.Uint64()%uint64(i+1)))
	}
}

// FNVByte folds b into the FNV-1a digest h. An h of 0 stands for the
// offset basis, so the zero value is a digest with no input yet.
func FNVByte(h uint64, b byte) uint64 {
	if h == 0 {
		h = fnvOffset
	}
	return (h ^ uint64(b)) * fnvPrime
}

// FNV64 folds the eight bytes of v, least significant first, into h.
func FNV64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = FNVByte(h, byte(v>>(8*i)))
	}
	return h
}

// FNVBytes folds the bytes of p into h.
func FNVBytes[T string | []byte](h uint64, p T) uint64 {
	for i := 0; i < len(p); i++ {
		h = FNVByte(h, p[i])
	}
	return h
}

// XorShift advances the xorshift64 (13, 7, 17) state x and returns it.
func XorShift(x *uint64) uint64 {
	v := *x
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = v
	return v
}
