package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// drawAll draws n values from r through every *rand.Rand method the
// repository uses and returns their bit patterns in draw order.
func drawAll(r *rand.Rand, n int) []uint64 {
	out := make([]uint64, 0, n+64)
	for len(out) < n {
		out = append(out,
			r.Uint64(),
			uint64(r.Int63()),
			math.Float64bits(r.Float64()),
			math.Float64bits(r.NormFloat64()),
			math.Float64bits(r.ExpFloat64()),
			uint64(r.Intn(1000)),
			uint64(r.Int63n(1<<40)),
		)
		for _, v := range r.Perm(9) {
			out = append(out, uint64(v))
		}
		s := []int{0, 1, 2, 3, 4, 5, 6, 7}
		r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		for _, v := range s {
			out = append(out, uint64(v))
		}
	}
	return out
}

// TestSourceMatchesMathRand pins the source to math/rand's generator bit
// for bit: every seed normalization branch, and more than two full cycles
// of the 607-slot state on each seed.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 89482311, 1<<31 - 1, -(1<<31 - 1), 1 << 31, math.MinInt64, math.MaxInt64}
	pick := rand.New(rand.NewSource(20110815))
	for i := 0; i < 2000; i++ {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	const draws = 3000
	for _, seed := range seeds {
		want := drawAll(rand.New(rand.NewSource(seed)), draws)
		src := new(source)
		src.Seed(seed)
		got := drawAll(rand.New(src), draws)
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("seed %d: draw %d = %#x, math/rand gives %#x", seed, k, got[k], want[k])
			}
		}
	}
}

// TestReseedMatchesNewRNG checks that Reseed, applied after a partial
// draw, leaves the generator exactly where a fresh NewRNG starts. The draw
// counts straddle the lazily seeded first draws: 273 is the tap distance
// and 334 the draws that read an initial slot.
func TestReseedMatchesNewRNG(t *testing.T) {
	r := NewRNG(3, 0x1000)
	for _, tc := range []struct {
		stream uint64
		draws  int
	}{
		{0x1000, 0}, {0x1001, 1}, {0xdec1de, 101}, {0, 201},
		{0x1002, 272}, {0x1003, 273}, {0x1004, 333}, {0x1005, 334},
	} {
		for k := 0; k < tc.draws; k++ {
			r.Uint64()
		}
		Reseed(r, 9, tc.stream)
		want := drawAll(NewRNG(9, tc.stream), 700)
		got := drawAll(r, 700)
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("stream %#x after %d draws: reseeded draw %d = %#x, fresh NewRNG gives %#x",
					tc.stream, tc.draws, k, got[k], want[k])
			}
		}
	}
}

var sinkRNG *rand.Rand

func BenchmarkNewRNG(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkRNG = NewRNG(1, uint64(i))
	}
}

// BenchmarkReseed reseeds and then draws what a light trace client draws,
// a few dozen values; a bare Reseed only stores the seed. The heavy
// variant draws past the lazily seeded first draws, so it computes all 607
// state slots.
func BenchmarkReseed(b *testing.B) {
	for _, draws := range []int{32, 400} {
		b.Run(fmt.Sprintf("draws=%d", draws), func(b *testing.B) {
			r := NewRNG(1, 0)
			for i := 0; i < b.N; i++ {
				Reseed(r, 1, uint64(i))
				for k := 0; k < draws; k++ {
					r.Uint64()
				}
			}
			sinkRNG = r
		})
	}
}
