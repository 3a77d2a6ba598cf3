package campaign

import "math/rand"

// NewTrialRand returns a generator seeded with seed whose stream is,
// bit for bit, that of rand.New(rand.NewSource(seed)) — after this
// seed and after every later Seed call — but whose Seed costs O(1)
// instead of math/rand's 1,841 LCG steps over a 607-word state.
//
// Workers reseed once per trial with TrialSeed, and most trials make
// a few dozen draws, so an eager Seed would cost more than the rest of
// a memsim trial. This source builds a state word only when a draw
// first reads it: a trial that makes d draws builds at most 2d words.
// The stream is math/rand's so that every fixed-seed artifact, golden
// and checkpoint written before this source existed stays valid.
func NewTrialRand(seed int64) *rand.Rand {
	src := new(trialSource)
	src.Seed(seed)
	return rand.New(src)
}

const (
	rngLen   = 607 // math/rand's additive lagged-Fibonacci register length
	rngTap   = 273 // and its tap
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1

	// lazyDraws is the number of draws after a seed that can read a
	// word not yet built. Draw n (counting from 0) adds tap word 606-n
	// into feed word 333-n. For n < 273 neither word has been read;
	// for 273 <= n < 334 the tap word is an earlier draw's feed word
	// and only the feed word is new; from n = 334 on, every word has
	// been built and a draw is math/rand's plain two-load add.
	lazyDraws = rngLen - rngTap
)

// seedPow[i] holds 48271^j mod (2^31-1) for j = 21+3i, 22+3i, 23+3i.
// math/rand seeds by stepping the Park-Miller LCG x <- 48271·x mod
// (2^31-1): twenty discarded steps, then three steps per state word,
// so word i draws on the LCG's outputs x_j = 48271^j·x0 at those
// three j and can be built without the steps before them.
var seedPow = func() (p [rngLen][3]uint64) {
	x := uint64(1)
	for j := 0; j < 20; j++ {
		x = x * 48271 % int32max
	}
	for i := range p {
		for k := range p[i] {
			x = x * 48271 % int32max
			p[i][k] = x
		}
	}
	return p
}()

// trialSource is math/rand's rngSource with a lazy Seed. vec holds
// the register. After a seed, a word at index >= lazyDraws is built
// by the draw that first reads it as the tap, and a word below
// lazyDraws by the draw that first writes it as the feed, so Seed
// only resets the positions and leaves vec as it is.
type trialSource struct {
	tap, feed int
	fresh     int    // draws left before every word has been built
	x0        uint64 // the normalized seed, math/rand's first LCG state
	vec       [rngLen]int64
}

// Seed implements rand.Source. It normalizes seed exactly as
// math/rand does: modulo 2^31-1, negatives shifted up, and zero
// replaced by 89482311.
func (s *trialSource) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	// tap starts one past the end so the first draw reads word 606
	// without wrapping, as math/rand's tap 0 does after its wrap.
	s.tap, s.feed, s.fresh = rngLen, lazyDraws, lazyDraws
}

// word builds word i of the state math/rand's Seed would have written.
func (s *trialSource) word(i int) int64 {
	p := &seedPow[i]
	return int64(p[0]*s.x0%int32max)<<40 ^ int64(p[1]*s.x0%int32max)<<20 ^
		int64(p[2]*s.x0%int32max) ^ rngCooked[i]
}

// Int63 implements rand.Source.
func (s *trialSource) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Uint64 implements rand.Source64.
func (s *trialSource) Uint64() uint64 {
	if s.fresh > 0 {
		return s.lazyUint64()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// lazyUint64 is one of the first lazyDraws draws after a seed; tap
// and feed cannot wrap during them.
func (s *trialSource) lazyUint64() uint64 {
	s.fresh--
	s.tap--
	s.feed--
	t := s.vec[s.tap]
	if s.tap >= lazyDraws {
		t = s.word(s.tap)
		s.vec[s.tap] = t
	}
	x := s.word(s.feed) + t
	s.vec[s.feed] = x
	return uint64(x)
}
