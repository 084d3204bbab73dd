package rng

import (
	"math"
	"math/rand"
	"testing"
)

// edgeSeeds cover math/rand's seed normalisation: seed % (2³¹−1), negatives
// wrapped, and 0 (or any multiple of 2³¹−1) mapped to 89482311.
var edgeSeeds = []int64{
	0, 1, -1,
	int32max - 1, -(int32max - 1),
	int32max, -int32max,
	1 << 31, 2 * int32max,
	89482311,
	math.MinInt64, math.MaxInt64,
}

// TestSourceMatchesMathRand pins the vendored source to math/rand, which
// is the independent oracle: the jump-ahead Seed shares no code with
// math/rand's serial seedrand loop. 1,300 draws per seed run past the
// 607-word register's wrap, so every seeded word feeds the output twice.
func TestSourceMatchesMathRand(t *testing.T) {
	gen := rand.New(rand.NewSource(20261017))
	seeds := append([]int64(nil), edgeSeeds...)
	for i := 0; i < 20000; i++ {
		seeds = append(seeds, int64(gen.Uint64()))
	}
	var src source
	for _, seed := range seeds {
		src.Seed(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 1300; i++ {
			if got, w := src.Uint64(), want.Uint64(); got != w {
				t.Fatalf("seed %d draw %d: source %#x, math/rand %#x", seed, i, got, w)
			}
		}
	}

	// The distribution helpers stay math/rand code over the vendored
	// source; a Stream must match a math/rand twin draw for draw.
	for _, seed := range seeds[:len(edgeSeeds)+200] {
		s, twin := New(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < 300; i++ {
			if got, w := s.Float64(), twin.Float64(); got != w {
				t.Fatalf("seed %d step %d: Float64 %v, math/rand %v", seed, i, got, w)
			}
			if got, w := s.Normal(0, 1), twin.NormFloat64(); got != w {
				t.Fatalf("seed %d step %d: Normal %v, math/rand %v", seed, i, got, w)
			}
			if got, w := s.Exp(1), twin.ExpFloat64(); got != w {
				t.Fatalf("seed %d step %d: Exp %v, math/rand %v", seed, i, got, w)
			}
			if got, w := s.IntN(1000), twin.Intn(1000); got != w {
				t.Fatalf("seed %d step %d: IntN %v, math/rand %v", seed, i, got, w)
			}
			if got, w := s.Int63(), twin.Int63(); got != w {
				t.Fatalf("seed %d step %d: Int63 %v, math/rand %v", seed, i, got, w)
			}
		}
	}
}

// TestMulModMatchesRemainder checks the division-free reduction, which
// has no final subtract, against the % operator, at the edges of its
// domain and on random residues.
func TestMulModMatchesRemainder(t *testing.T) {
	edges := []uint64{0, 1, 2, lcgMul, 1 << 30, 1<<31 - 3, int32max - 1}
	gen := rand.New(rand.NewSource(7))
	check := func(a, b uint64) {
		if got, want := mulMod(a, b), a*b%int32max; got != want {
			t.Fatalf("mulMod(%d, %d) = %d, want %d", a, b, got, want)
		}
	}
	for _, a := range edges {
		for _, b := range edges {
			check(a, b)
		}
	}
	for i := 0; i < 100000; i++ {
		check(uint64(gen.Int63n(int32max)), uint64(gen.Int63n(int32max)))
	}
}

// BenchmarkSeed times one Seed of the vendored source against math/rand's.
func BenchmarkSeed(b *testing.B) {
	b.Run("jump-ahead", func(b *testing.B) {
		var src source
		for i := 0; b.Loop(); i++ {
			src.Seed(int64(i))
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		src := rand.NewSource(1)
		for i := 0; b.Loop(); i++ {
			src.Seed(int64(i))
		}
	})
}
