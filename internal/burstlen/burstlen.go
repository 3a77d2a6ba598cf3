// Package burstlen models the length distribution of multi-bit-upset
// (MBU) burst events shared by internal/mbusim and internal/pagesim.
// Measured MBU multiplicities in scaled technologies are not a single
// fixed width: most events flip a couple of adjacent bits while a tail
// of rarer events flips many, which a geometric length models with one
// parameter (the mean). The fixed distribution preserves the
// historical behavior — and, deliberately, the historical RNG stream:
// sampling a fixed length consumes no randomness, so campaigns
// configured with fixed bursts remain bit-identical to releases that
// predate this package. Geometric sampling consumes one extra uniform
// draw per event, which is a new RNG stream by construction (there
// was no geometric mode before), so no committed tolerance band moves.
package burstlen

import (
	"fmt"
	"math"
	"math/rand"
)

// Distribution kinds.
const (
	// Fixed draws every burst at exactly Bits bits ("" means Fixed).
	Fixed = "fixed"
	// Geometric draws lengths from a geometric distribution on
	// {1, 2, ...} with mean MeanBits, capped at the stored-image size
	// (a physical burst cannot flip more bits than the image holds).
	Geometric = "geometric"
)

// Dist selects how long each MBU burst is, in stored bits.
type Dist struct {
	// Kind is "", Fixed or Geometric.
	Kind string
	// Bits is the fixed burst length (Fixed kind).
	Bits int
	// MeanBits is the geometric mean burst length (Geometric kind),
	// >= 1.
	MeanBits float64
}

// IsFixed reports whether every burst has the same length.
func (d Dist) IsFixed() bool { return d.Kind == "" || d.Kind == Fixed }

// Validate checks the parameters of the selected kind.
func (d Dist) Validate() error {
	switch d.Kind {
	case "", Fixed:
		if d.Bits <= 0 {
			return fmt.Errorf("burstlen: invalid fixed burst length %d", d.Bits)
		}
	case Geometric:
		if !(d.MeanBits >= 1) || math.IsInf(d.MeanBits, 0) {
			return fmt.Errorf("burstlen: geometric mean burst length %v must be a finite value >= 1", d.MeanBits)
		}
	default:
		return fmt.Errorf("burstlen: unknown burst distribution %q (want %q or %q)", d.Kind, Fixed, Geometric)
	}
	return nil
}

// String renders the distribution for scenario names and reports.
// Fixed renders as the bare bit count, matching the historical name
// format so fixed-burst checkpoints stay resumable.
func (d Dist) String() string {
	if d.IsFixed() {
		return fmt.Sprintf("%d", d.Bits)
	}
	return fmt.Sprintf("geom(%g)", d.MeanBits)
}

// Place draws one burst for an image of imageBits bits: first its
// length, then a start uniform over the imageBits-length+1 placements
// at which the whole burst fits, so every event flips exactly its
// sampled length (a start drawn over the whole image would truncate
// bursts near the edge, under-dosing small images). internal/mbusim
// and internal/pagesim both place their bursts here, and their
// fixed-seed goldens depend on the two draws' order. The caller must
// have rejected fixed lengths exceeding the image.
func (d Dist) Place(rng *rand.Rand, imageBits int) (start, length int) {
	length = d.sample(rng, imageBits)
	return rng.Intn(imageBits - length + 1), length
}

// sample draws one burst length, capped at imageBits so every event
// can be placed without truncation at the image edge. Fixed draws
// consume no randomness (preserving the pre-distribution RNG stream).
func (d Dist) sample(rng *rand.Rand, imageBits int) int {
	if d.IsFixed() {
		return d.Bits
	}
	// Inverse-CDF geometric on {1, 2, ...} with success probability
	// p = 1/mean: L = 1 + floor(log(1-U) / log1p(-p)). U = 0 maps to
	// 1; mean 1 makes log1p(-p) = -Inf and every draw lands on 1.
	// Log1p keeps the denominator nonzero for tiny p (huge means),
	// where log(1-p) would round to 0 and degenerate every draw to 1.
	p := 1 / d.MeanBits
	u := rng.Float64()
	ratio := math.Log(1-u) / math.Log1p(-p)
	if !(ratio < float64(imageBits)) {
		// Cap in float space: for huge means the ratio can exceed
		// MaxInt64, and the out-of-range float-to-int conversion
		// would wrap to a value the l<1 clamp rewrites to 1 — the
		// opposite of the intended image-capped draw.
		return imageBits
	}
	l := 1 + int(math.Floor(ratio))
	if l < 1 {
		l = 1
	}
	if l > imageBits {
		l = imageBits
	}
	return l
}
