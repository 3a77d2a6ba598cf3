// Package mbusim compares protection schemes under multi-bit upsets
// (MBUs): single physical events that flip a run of adjacent stored
// bits. Scaled technologies make MBUs an increasing fraction of SEUs,
// and they are where symbol-organized Reed-Solomon coding earns its
// keep — a burst confined to one 8-bit symbol is still one symbol
// error — while bit-granular SEC-DED sees every flipped bit
// separately. The ext-mbu experiment built on this package completes
// the baseline comparison of ext-baselines, whose chains model only
// independent single-bit SEUs (SEC-DED's best case).
//
// Each System stores the same 128-bit payload in its own layout;
// campaigns inject Poisson-distributed burst events (rate proportional
// to each system's stored size, so denser redundancy honestly costs
// exposure) and measure the unrecovered fraction. Burst lengths come
// from a configurable distribution (internal/burstlen): fixed at
// Config.BurstBits, or geometric with mean Config.BurstMeanBits
// capped at each system's image size. Burst starts are uniform over
// the placements at which the full burst fits the image, so every
// event flips exactly its sampled length — no system gets a discount
// from bursts truncated at its image edge.
//
// Campaigns run on the internal/campaign engine: every trial draws
// its burst pattern from a seed derived from (system, trial), so the
// aggregate statistics are reproducible for a fixed Config.Seed
// regardless of the worker count, and long campaigns inherit the
// engine's checkpointing and early stopping. Fixed-length campaigns
// consume the exact RNG stream of earlier releases (length sampling
// draws no randomness there), so existing fixed-burst numbers do not
// move; geometric campaigns draw one extra uniform per event and are
// a new stream by construction.
package mbusim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/burstlen"
	"repro/internal/campaign"
	"repro/internal/gf"
	"repro/internal/hamming"
	"repro/internal/interleave"
	"repro/internal/rs"
	"repro/internal/tmr"
)

// PayloadBits is the common protected payload size.
const PayloadBits = 128

// System is one protected storage layout under test.
type System interface {
	// Name identifies the system in reports.
	Name() string
	// StoredBits is the physical footprint (drives event exposure).
	StoredBits() int
	// Trial stores a fresh random 128-bit payload, applies the burst
	// events (start bit, length) to the stored image, attempts
	// recovery and reports whether the payload came back exactly.
	// A System may keep its codec workspace between trials: every
	// campaign worker builds its own set (see Scenario), so Trial is
	// never called concurrently on one receiver.
	Trial(rng *rand.Rand, bursts [][2]int) (recovered bool, err error)
}

// flipBits applies the bursts to a bit-addressable image accessor.
// Burst starts are clamped at generation time so every event fits
// inside the image; the bounds check here is purely defensive against
// hand-built burst lists.
func flipBits(bits int, bursts [][2]int, flip func(bit int)) {
	for _, b := range bursts {
		for i := 0; i < b[1]; i++ {
			if p := b[0] + i; p >= 0 && p < bits {
				flip(p)
			}
		}
	}
}

// --- Reed-Solomon word -------------------------------------------

// RSWord protects the payload as one RS(n,16) codeword of byte
// symbols (k*m = 128 bits). It owns a decoder workspace, so a trial
// allocates nothing.
type RSWord struct {
	code     *rs.Code
	dec      *rs.Decoder
	data, cw []gf.Elem
}

// NewRSWord builds the system for a code with k=16, m=8.
func NewRSWord(code *rs.Code) (*RSWord, error) {
	if code == nil {
		return nil, fmt.Errorf("mbusim: nil code")
	}
	if code.K()*code.Field().M() != PayloadBits {
		return nil, fmt.Errorf("mbusim: code carries %d payload bits, want %d", code.K()*code.Field().M(), PayloadBits)
	}
	return &RSWord{code: code, dec: code.NewDecoder(), data: make([]gf.Elem, code.K()), cw: make([]gf.Elem, code.N())}, nil
}

// Name implements System.
func (s *RSWord) Name() string { return fmt.Sprintf("RS(%d,%d)", s.code.N(), s.code.K()) }

// StoredBits implements System.
func (s *RSWord) StoredBits() int { return s.code.N() * s.code.Field().M() }

// Trial implements System.
func (s *RSWord) Trial(rng *rand.Rand, bursts [][2]int) (bool, error) {
	data, cw := s.data, s.cw
	for i := range data {
		data[i] = gf.Elem(rng.Intn(s.code.Field().Size()))
	}
	if err := s.code.EncodeTo(cw, data); err != nil {
		return false, err
	}
	m := s.code.Field().M()
	flipBits(s.StoredBits(), bursts, func(bit int) {
		cw[bit/m] ^= 1 << uint(bit%m)
	})
	res, err := s.dec.Decode(cw, nil)
	if err != nil {
		return false, nil // detected loss
	}
	for i := range data {
		if res.Data[i] != data[i] {
			return false, nil // mis-correction
		}
	}
	return true, nil
}

// --- Interleaved Reed-Solomon page --------------------------------

// RSInterleaved protects the payload as a depth-d interleaved page of
// RS codewords (the ref [6] organization). The page is kept in the
// decoder's layout, one stripe-major arena (interleave.Page.Addr maps
// each stored bit's symbol into it), and it owns a decoder, so a trial
// allocates nothing.
type RSInterleaved struct {
	page         *interleave.Page
	dec          *rs.Decoder
	truth, words []gf.Elem
}

// NewRSInterleaved wraps a page whose payload is 128 bits.
func NewRSInterleaved(page *interleave.Page) (*RSInterleaved, error) {
	if page == nil {
		return nil, fmt.Errorf("mbusim: nil page")
	}
	if page.DataSymbols()*page.Code().Field().M() != PayloadBits {
		return nil, fmt.Errorf("mbusim: page carries %d payload bits, want %d",
			page.DataSymbols()*page.Code().Field().M(), PayloadBits)
	}
	return &RSInterleaved{
		page:  page,
		dec:   page.Code().NewDecoder(),
		truth: make([]gf.Elem, page.StoredSymbols()),
		words: make([]gf.Elem, page.StoredSymbols()),
	}, nil
}

// Name implements System.
func (s *RSInterleaved) Name() string {
	return fmt.Sprintf("RS(%d,%d) x%d interleaved", s.page.Code().N(), s.page.Code().K(), s.page.Depth())
}

// StoredBits implements System.
func (s *RSInterleaved) StoredBits() int {
	return s.page.StoredSymbols() * s.page.Code().Field().M()
}

// Trial implements System. The payload is drawn in data-index order,
// index j*depth+st being position j of stripe st, straight into the
// arena, and each stripe is encoded and decoded in place.
func (s *RSInterleaved) Trial(rng *rand.Rand, bursts [][2]int) (bool, error) {
	page, code := s.page, s.page.Code()
	n, k, depth, m := code.N(), code.K(), page.Depth(), code.Field().M()
	truth, words := s.truth, s.words
	for j := 0; j < k; j++ {
		for st := 0; st < depth; st++ {
			truth[st*n+j] = gf.Elem(rng.Intn(code.Field().Size()))
		}
	}
	for st := 0; st < depth; st++ {
		word := truth[st*n : (st+1)*n]
		if err := code.EncodeTo(word, word[:k]); err != nil {
			return false, err
		}
	}
	copy(words, truth)
	flipBits(s.StoredBits(), bursts, func(bit int) {
		st, j := page.Addr(bit / m)
		words[st*n+j] ^= 1 << uint(bit%m)
	})
	res, err := s.dec.DecodeAll(rs.Batch{Words: words, Stride: n, Count: depth}, nil)
	if err != nil {
		return false, err
	}
	if res.Failed > 0 {
		return false, nil
	}
	for st := 0; st < depth; st++ {
		if !slices.Equal(words[st*n:st*n+k], truth[st*n:st*n+k]) {
			return false, nil
		}
	}
	return true, nil
}

// --- SEC-DED block -------------------------------------------------

// SECDEDBlock protects the payload as four consecutive SEC-DED(39,32)
// words.
type SECDEDBlock struct {
	code *hamming.Code
}

// NewSECDEDBlock builds the 4x(39,32) layout.
func NewSECDEDBlock() (*SECDEDBlock, error) {
	c, err := hamming.New(32)
	if err != nil {
		return nil, err
	}
	return &SECDEDBlock{code: c}, nil
}

// Name implements System.
func (s *SECDEDBlock) Name() string { return "4x SEC-DED(39,32)" }

// StoredBits implements System.
func (s *SECDEDBlock) StoredBits() int { return 4 * s.code.CodewordBits() }

// Trial implements System.
func (s *SECDEDBlock) Trial(rng *rand.Rand, bursts [][2]int) (bool, error) {
	wordBits := s.code.CodewordBits()
	var payload [4]uint64
	var stored [4]uint64
	for w := range payload {
		payload[w] = rng.Uint64() & (1<<32 - 1)
		cw, err := s.code.Encode(payload[w])
		if err != nil {
			return false, err
		}
		stored[w] = cw
	}
	flipBits(s.StoredBits(), bursts, func(bit int) {
		stored[bit/wordBits] ^= 1 << uint(bit%wordBits)
	})
	for w := range stored {
		res, err := s.code.Decode(stored[w])
		if err != nil {
			return false, err
		}
		if res.Status == hamming.DetectedDouble || res.Data != payload[w] {
			return false, nil
		}
	}
	return true, nil
}

// --- TMR block -------------------------------------------------------

// TMRBlock protects the payload as three consecutive 128-bit copies
// with bit-majority voting.
type TMRBlock struct{}

// Name implements System.
func (TMRBlock) Name() string { return "TMR voter" }

// StoredBits implements System.
func (TMRBlock) StoredBits() int { return 3 * PayloadBits }

// Trial implements System.
func (TMRBlock) Trial(rng *rand.Rand, bursts [][2]int) (bool, error) {
	payload := make([]byte, PayloadBits/8)
	rng.Read(payload)
	a, b, c := tmr.Replicate(payload)
	copies := [3][]byte{a, b, c}
	flipBits(3*PayloadBits, bursts, func(bit int) {
		copyIdx := bit / PayloadBits
		off := bit % PayloadBits
		copies[copyIdx][off/8] ^= 1 << uint(off%8)
	})
	voted, _, err := tmr.Vote(copies[0], copies[1], copies[2])
	if err != nil {
		return false, err
	}
	for i := range payload {
		if voted[i] != payload[i] {
			return false, nil
		}
	}
	return true, nil
}

// --- Campaign --------------------------------------------------------

// Config parameterizes a burst campaign.
type Config struct {
	// EventsPerKilobit is the mean number of burst events per 1000
	// stored bits per trial; each system draws its own Poisson count
	// scaled by its footprint.
	EventsPerKilobit float64
	// BurstBits is the length of each event's bit run under the
	// default fixed distribution.
	BurstBits int
	// BurstDist selects the burst-length distribution: "" or "fixed"
	// (every event is BurstBits long) or "geometric" (lengths drawn
	// with mean BurstMeanBits, capped at each system's image size).
	BurstDist string
	// BurstMeanBits is the geometric mean burst length (>= 1).
	BurstMeanBits float64
	Trials        int
	Seed          int64
}

// dist assembles the burst-length distribution the config selects.
func (c Config) dist() burstlen.Dist {
	return burstlen.Dist{Kind: c.BurstDist, Bits: c.BurstBits, MeanBits: c.BurstMeanBits}
}

// LostCounter and EventsCounter name the campaign counters recorded
// per system.
func LostCounter(system string) string   { return "lost/" + system }
func EventsCounter(system string) string { return "events/" + system }

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.EventsPerKilobit <= 0 || math.IsNaN(c.EventsPerKilobit) || math.IsInf(c.EventsPerKilobit, 0):
		return fmt.Errorf("mbusim: invalid event density %v", c.EventsPerKilobit)
	case c.Trials <= 0:
		return fmt.Errorf("mbusim: need at least one trial")
	}
	if err := c.dist().Validate(); err != nil {
		return fmt.Errorf("mbusim: %w", err)
	}
	return nil
}

// SystemResult is one system's campaign outcome.
type SystemResult struct {
	Name         string
	StoredBits   int
	Trials       int
	Lost         int
	MeanEvents   float64
	LossFraction float64
}

// scenario adapts a burst campaign to the engine: one campaign trial
// injects one independent burst pattern into every system.
type scenario struct {
	cfg        Config
	dist       burstlen.Dist
	newSystems func() ([]System, error)
	systems    []System // names and footprints; workers build their own
	// means holds each system's Poisson event mean per trial;
	// lostKeys/eventsKeys cache counter names so the trial loop does
	// no per-trial string concatenation.
	means                []float64
	lostKeys, eventsKeys []string
}

// Scenario adapts the configuration and system set to the campaign
// engine's Scenario interface. newSystems builds the set (such as
// DefaultSystems); it is called once here and once per campaign
// worker, so every worker trials its own systems and their codec
// workspaces. The set built here is returned too, for
// ResultsFromCampaign's names and stored sizes.
func Scenario(cfg Config, newSystems func() ([]System, error)) (campaign.Scenario, []System, error) {
	s, err := newScenario(cfg, newSystems)
	if err != nil {
		return nil, nil, err
	}
	return s, s.systems, nil
}

func newScenario(cfg Config, newSystems func() ([]System, error)) (*scenario, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	systems, err := newSystems()
	if err != nil {
		return nil, err
	}
	if len(systems) == 0 {
		return nil, fmt.Errorf("mbusim: no systems")
	}
	dist := cfg.dist()
	s := &scenario{cfg: cfg, dist: dist, newSystems: newSystems, systems: systems}
	for _, sys := range systems {
		// Every event must apply its full length: a fixed burst longer
		// than the image cannot be placed without truncation, which
		// would bias the cross-system comparison (the truncation
		// probability scales inversely with each system's footprint).
		// Geometric lengths are capped at the image by construction.
		if dist.IsFixed() && cfg.BurstBits > sys.StoredBits() {
			return nil, fmt.Errorf("mbusim: burst of %d bits exceeds %s's %d stored bits",
				cfg.BurstBits, sys.Name(), sys.StoredBits())
		}
		mean := cfg.EventsPerKilobit * float64(sys.StoredBits()) / 1000
		if mean > maxPoissonMean {
			return nil, fmt.Errorf("mbusim: %g events per kilobit puts a mean of %g events per trial on %s's %d stored bits, beyond the Poisson sampler's limit of %d",
				cfg.EventsPerKilobit, mean, sys.Name(), sys.StoredBits(), maxPoissonMean)
		}
		s.means = append(s.means, mean)
		s.lostKeys = append(s.lostKeys, LostCounter(sys.Name()))
		s.eventsKeys = append(s.eventsKeys, EventsCounter(sys.Name()))
	}
	return s, nil
}

// Name encodes the configuration and system set so checkpoints from a
// different campaign are rejected. Fixed-length campaigns keep the
// historical "burst=<bits>" form so their checkpoints stay resumable.
func (s *scenario) Name() string {
	names := make([]string, len(s.systems))
	for i, sys := range s.systems {
		names[i] = sys.Name()
	}
	return fmt.Sprintf("mbusim:epk=%g:burst=%s:seed=%d:%s",
		s.cfg.EventsPerKilobit, s.dist, s.cfg.Seed, strings.Join(names, ","))
}

// Trials implements campaign.Scenario.
func (s *scenario) Trials() int { return s.cfg.Trials }

// NewWorker implements campaign.Scenario.
func (s *scenario) NewWorker() (campaign.Worker, error) {
	systems, err := s.newSystems()
	if err != nil {
		return nil, err
	}
	return &worker{scn: s, systems: systems, rng: campaign.NewTrialRand(0)}, nil
}

// worker owns its systems, the per-goroutine RNG and the recycled
// burst buffer.
type worker struct {
	scn     *scenario
	systems []System
	rng     *rand.Rand
	bursts  [][2]int
}

// Trial implements campaign.Worker: each (system, trial) pair draws
// from its own deterministic seed, making the campaign independent of
// sharding.
func (w *worker) Trial(trial int, acc *campaign.Acc) error {
	cfg := w.scn.cfg
	for i, sys := range w.systems {
		w.rng.Seed(campaign.TrialSeed(cfg.Seed+int64(i)*7919, trial))
		n := poisson(w.rng, w.scn.means[i])
		w.bursts = w.bursts[:0]
		for j := 0; j < n; j++ {
			start, length := w.scn.dist.Place(w.rng, sys.StoredBits())
			w.bursts = append(w.bursts, [2]int{start, length})
		}
		acc.Add(w.scn.eventsKeys[i], int64(n))
		ok, err := sys.Trial(w.rng, w.bursts)
		if err != nil {
			return fmt.Errorf("mbusim: %s: %w", sys.Name(), err)
		}
		if !ok {
			acc.Add(w.scn.lostKeys[i], 1)
		}
	}
	return nil
}

// ResultsFromCampaign reassembles per-system results from the
// engine's counters.
func ResultsFromCampaign(systems []System, cres *campaign.Result) []SystemResult {
	out := make([]SystemResult, len(systems))
	for i, sys := range systems {
		lost := cres.Counter(LostCounter(sys.Name()))
		events := cres.Counter(EventsCounter(sys.Name()))
		out[i] = SystemResult{
			Name:         sys.Name(),
			StoredBits:   sys.StoredBits(),
			Trials:       cres.Trials,
			Lost:         int(lost),
			MeanEvents:   float64(events) / float64(cres.Trials),
			LossFraction: float64(lost) / float64(cres.Trials),
		}
	}
	return out
}

// Run executes the campaign over the systems newSystems builds (see
// Scenario) on the shared engine with GOMAXPROCS workers. Statistics
// are deterministic for a fixed Config.Seed, independent of the worker
// count.
func Run(cfg Config, newSystems func() ([]System, error)) ([]SystemResult, error) {
	scn, err := newScenario(cfg, newSystems)
	if err != nil {
		return nil, err
	}
	cres, err := campaign.Run(scn, campaign.Config{})
	if err != nil {
		return nil, err
	}
	return ResultsFromCampaign(scn.systems, cres), nil
}

// maxPoissonMean bounds the per-trial event mean poisson samples.
// Knuth's method compares a running product of uniforms against
// exp(-mean), which leaves the normal float64 range near a mean of 708
// and underflows to zero near 745, where every draw saturates at ~745
// events whatever the mean.
const maxPoissonMean = 700

// poisson samples a Poisson variate by Knuth's method (means here are
// small, a few events per trial; Scenario caps them at
// maxPoissonMean).
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// DefaultSystems returns the standard comparison set:
//
//   - RS(18,16): the paper's code (t=1, 1.125x overhead);
//   - RS(20,16): t=2 at 1.25x overhead — the apples-to-apples rival of
//     the SEC-DED block's 1.22x, and tolerant of any single burst up
//     to 9 bits (at most two adjacent symbols);
//   - RS(10,8) x2 interleaved: the same 1.25x overhead spent on
//     interleaving depth instead of distance;
//   - 4x SEC-DED(39,32) at 1.22x;
//   - TMR at 3x.
func DefaultSystems() ([]System, error) {
	f8, err := gf.NewField(8)
	if err != nil {
		return nil, err
	}
	rsw1816, err := newRSWordFor(f8, 18)
	if err != nil {
		return nil, err
	}
	rsw2016, err := newRSWordFor(f8, 20)
	if err != nil {
		return nil, err
	}
	code108, err := rs.New(f8, 10, 8)
	if err != nil {
		return nil, err
	}
	page, err := interleave.New(code108, 2)
	if err != nil {
		return nil, err
	}
	rsi, err := NewRSInterleaved(page)
	if err != nil {
		return nil, err
	}
	secded, err := NewSECDEDBlock()
	if err != nil {
		return nil, err
	}
	return []System{rsw1816, rsw2016, rsi, secded, TMRBlock{}}, nil
}

func newRSWordFor(f *gf.Field, n int) (*RSWord, error) {
	code, err := rs.New(f, n, 16)
	if err != nil {
		return nil, err
	}
	return NewRSWord(code)
}
