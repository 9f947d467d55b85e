package detrand_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"riommu/internal/detrand"
	"riommu/internal/parallel"
)

// Known-answer vectors for the simulator's deterministic primitives,
// computed on the hand-rolled copies before they were consolidated. Every
// seeded stream, digest and golden file in the repository rests on these
// exact outputs.

var splitmixKAT = []struct {
	seed uint64
	out  [4]uint64
}{
	{0, [4]uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f, 0xf88bb8a8724c81ec}},
	{1, [4]uint64{0x910a2dec89025cc1, 0xbeeb8da1658eec67, 0xf893a2eefb32555e, 0x71c18690ee42c90b}},
}

var cellSeedKAT = []struct {
	id   string
	want uint64
}{
	{"sata/strict/r=0", 0xaceb2c1904daeb6a},
	{"nic/riommu/r=0.01", 0xaf3fe13a0664d631},
	{"perfbench/churn", 0x0d57511e2372d41d},
}

const (
	fnvEmptyKAT = 0x0 // no input: the digest stays "unstarted"
	fnvAKAT     = 0xaf63dc4c8601ec8c
	fnvU64In    = 0x0123456789abcdef
	fnvU64KAT   = 0x37eb3f3347761c55
)

// fillKAT is 13 payload bytes drawn from seed 7, and the state after.
var (
	fillKAT      = []byte{0xd7, 0x0d, 0x32, 0x59, 0xe4, 0xe1, 0xcb, 0x63, 0x1c, 0x66, 0x3c, 0xf4, 0xd7}
	fillStateKAT = uint64(0x3c6ef372fe94f831)
)

// xorshiftKAT starts from the prefetch trace, miss-penalty and userlevel
// example seeds.
var xorshiftKAT = []struct {
	seed uint64
	out  [4]uint64
}{
	{88172645463325252, [4]uint64{0x79690975fbde15b0, 0x2a337357ae2cc59b, 0x2fef107a27529ad0, 0xe4093df8432a8be5}},
	{0x9e3779b97f4a7c15, [4]uint64{0xdc1b77ae0bf34dad, 0x64f0eeb9026e6076, 0x7b07ce91e5906136, 0x305f050c368dcc74}},
	{0x2545f4914f6cdd1d, [4]uint64{0x7f6c280beaa8e3e7, 0xe47119871cf9abe0, 0x35174a4158b8a0b7, 0x62ce1ffad85b1c36}},
}

func TestKnownAnswers(t *testing.T) {
	for _, v := range splitmixKAT {
		s := detrand.Source(v.seed)
		for i, want := range v.out {
			if got := s.Uint64(); got != want {
				t.Errorf("splitmix64 seed %d draw %d = %#x, want %#x", v.seed, i, got, want)
			}
		}
	}
	for _, v := range cellSeedKAT {
		if got := parallel.CellSeed(1, v.id); got != v.want {
			t.Errorf("CellSeed(1, %q) = %#x, want %#x", v.id, got, v.want)
		}
	}
	if got := detrand.FNVBytes(0, ""); got != fnvEmptyKAT {
		t.Errorf(`fnv("") = %#x, want %#x`, got, uint64(fnvEmptyKAT))
	}
	if got := detrand.FNVBytes(0, []byte("a")); got != fnvAKAT {
		t.Errorf(`fnv("a") = %#x, want %#x`, got, uint64(fnvAKAT))
	}
	if got := detrand.FNVByte(0, 'a'); got != fnvAKAT {
		t.Errorf("fnv byte 'a' = %#x, want %#x", got, uint64(fnvAKAT))
	}
	if got := detrand.FNV64(0, fnvU64In); got != fnvU64KAT {
		t.Errorf("fnv u64 = %#x, want %#x", got, uint64(fnvU64KAT))
	}
	s := detrand.Source(7)
	p := make([]byte, len(fillKAT))
	s.Fill(p)
	if !bytes.Equal(p, fillKAT) || uint64(s) != fillStateKAT {
		t.Errorf("fill seed 7 = %#v state %#x, want %#v state %#x", p, uint64(s), fillKAT, fillStateKAT)
	}
	for _, v := range xorshiftKAT {
		x := v.seed
		for i, want := range v.out {
			if got := detrand.XorShift(&x); got != want {
				t.Errorf("xorshift seed %#x draw %d = %#x, want %#x", v.seed, i, got, want)
			}
		}
	}
}

// TestIndependentStreams checks that copies of a Source share no state and
// that a fresh Source restarts its stream.
func TestIndependentStreams(t *testing.T) {
	a := detrand.Source(7)
	b := a
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams from the same seed diverged at draw %d", i)
		}
	}
	c, d := detrand.Source(7), detrand.Source(7)
	if got, want := c.Uint64(), d.Uint64(); got != want {
		t.Fatalf("fresh generator did not restart: %d != %d", got, want)
	}
}

func shuffled(seed uint64, n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	s := detrand.Source(seed)
	s.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// TestShufflePermutation checks that Shuffle only reorders: every index
// appears exactly once, for every length up to a full SATA slot set.
func TestShufflePermutation(t *testing.T) {
	for n := 0; n <= 33; n++ {
		got := shuffled(uint64(n)*31+5, n)
		sorted := slices.Clone(got)
		slices.Sort(sorted)
		for i, v := range sorted {
			if v != i {
				t.Fatalf("n=%d: %v is not a permutation of 0..%d", n, got, n-1)
			}
		}
	}
}

// TestShuffleDeterministic checks that the order is a pure function of the
// seed and that distinct seeds give distinct orders.
func TestShuffleDeterministic(t *testing.T) {
	seen := map[string]uint64{}
	for seed := uint64(0); seed < 64; seed++ {
		a, b := shuffled(seed, 32), shuffled(seed, 32)
		if !slices.Equal(a, b) {
			t.Fatalf("seed %d: two shuffles differ: %v vs %v", seed, a, b)
		}
		key := fmt.Sprint(a)
		if prev, dup := seen[key]; dup {
			t.Fatalf("seeds %d and %d gave the same order %v", prev, seed, a)
		}
		seen[key] = seed
	}
}

// TestShuffleAllocs pins that building a Source and shuffling a 32-slot
// set, as a SATA completion does, allocates nothing.
func TestShuffleAllocs(t *testing.T) {
	var order [32]int
	seed := uint64(1)
	allocs := testing.AllocsPerRun(100, func() {
		s := detrand.Source(seed)
		s.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		seed++
	})
	if allocs != 0 {
		t.Fatalf("Source + 32-slot Shuffle: %v allocs/op, want 0", allocs)
	}
}
