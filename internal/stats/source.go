package stats

import "math/rand"

// source is math/rand v1's generator (the additive lagged Fibonacci
// source rand.NewSource returns) with the same state, the same Uint64 and
// Int63, and the same seeding, so every draw through a *rand.Rand over it
// is bit-identical to one over rand.NewSource. Only how the state is
// computed differs. math/rand walks one serial MINSTD chain of 1,841
// steps, while here each MINSTD word is an independent multiply by a
// precomputed power of the multiplier, so any slot can be computed alone.
// Seeding is deferred to the first draws: Seed stores the normalized
// seed, and each of the first rngLen−rngTap draws computes the initial
// slots it reads (see Uint64). A per-client trace stream draws a few dozen
// values, so it computes a few dozen of the 607 slots rather than all.
type source struct {
	tap  int
	feed int
	// pending counts the draws still to come that read an initial slot;
	// x0 is the normalized seed they compute those slots from.
	pending int
	x0      uint64
	vec     [rngLen]int64
}

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
	// minstdM and minstdA define the MINSTD chain x[n+1] = A·x[n] mod M
	// that math/rand seeds from.
	minstdM = 1<<31 - 1
	minstdA = 48271
)

var (
	// minstdPow[i][j] = minstdA^(21+3i+j) mod minstdM: the factors that
	// map a seed to the three MINSTD words math/rand's serial chain mixes
	// into slot i.
	minstdPow [rngLen][3]uint64
	// rngCooked is math/rand's table of the same name, recovered from
	// math/rand itself at init (see init below) rather than restated.
	rngCooked [rngLen]int64
)

func init() {
	x := uint64(1)
	for k := 1; k <= 20; k++ {
		x = x * minstdA % minstdM
	}
	for i := range minstdPow {
		for j := range minstdPow[i] {
			x = x * minstdA % minstdM
			minstdPow[i][j] = x
		}
	}
	// Draw j from a fresh math/rand source overwrites slot feed(j) with
	// the value drawn, and slot feed(j)+rngTap mod rngLen is the tap it
	// added. After rngLen draws every slot has been written once, so
	// undoing the draws in reverse recovers seed 1's state; XORing out
	// seed 1's MINSTD words (the powers themselves) leaves the cooked
	// table.
	mr := rand.NewSource(1).(rand.Source64)
	feed := func(j int) int { return (2*rngLen - rngTap - 1 - j) % rngLen }
	var vec [rngLen]int64
	for j := 0; j < rngLen; j++ {
		vec[feed(j)] = int64(mr.Uint64())
	}
	for j := rngLen - 1; j >= 0; j-- {
		vec[feed(j)] -= vec[(feed(j)+rngTap)%rngLen]
	}
	for i, p := range minstdPow {
		rngCooked[i] = vec[i] ^ int64(p[0]<<40^p[1]<<20^p[2])
	}
}

// mulMod returns a·b mod 2³¹−1 for a, b in [1, 2³¹−1), folding the 62-bit
// product with the Mersenne identity 2³¹ ≡ 1.
func mulMod(a, b uint64) uint64 {
	p := a * b
	p = p&minstdM + p>>31
	if p >= minstdM {
		p -= minstdM
	}
	return p
}

// Seed sets the generator to the state rand.NewSource(seed) starts from.
// The state's slots are computed by the draws that first read them.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	s.pending = rngLen - rngTap

	seed = seed % minstdM
	if seed < 0 {
		seed += minstdM
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
}

// slot returns slot i of the seeded state. It mixes MINSTD words 21+3i,
// 22+3i and 23+3i, each the seed times a power of the multiplier.
func (s *source) slot(i int) int64 {
	p := &minstdPow[i]
	u := mulMod(s.x0, p[0])<<40 ^ mulMod(s.x0, p[1])<<20 ^ mulMod(s.x0, p[2])
	return int64(u) ^ rngCooked[i]
}

// Int63 returns a non-negative pseudo-random 63-bit integer as an int64.
func (s *source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// Uint64 returns a pseudo-random 64-bit value as a uint64.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}

	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}

	if s.pending > 0 {
		// The first rngLen−rngTap draws after Seed feed from slots no
		// draw has touched, so each computes its feed slot. While its tap
		// is one of the top rngTap slots, which no draw feeds from until
		// draw rngLen−rngTap, it computes and stores that slot too; later
		// taps read slots that earlier draws fed. Each slot is computed
		// once, as a full seeding would.
		s.pending--
		s.vec[s.feed] = s.slot(s.feed)
		if s.tap >= rngLen-rngTap {
			s.vec[s.tap] = s.slot(s.tap)
		}
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}
