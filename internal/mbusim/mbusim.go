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
	// Campaigns shard trials over goroutines, so Trial must be safe
	// for concurrent use on a shared receiver (the stock systems are
	// stateless; per-trial state lives on the stack and in rng).
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
// symbols (k*m = 128 bits).
type RSWord struct {
	code *rs.Code
}

// NewRSWord builds the system for a code with k=16, m=8.
func NewRSWord(code *rs.Code) (*RSWord, error) {
	if code == nil {
		return nil, fmt.Errorf("mbusim: nil code")
	}
	if code.K()*code.Field().M() != PayloadBits {
		return nil, fmt.Errorf("mbusim: code carries %d payload bits, want %d", code.K()*code.Field().M(), PayloadBits)
	}
	return &RSWord{code: code}, nil
}

// Name implements System.
func (s *RSWord) Name() string { return fmt.Sprintf("RS(%d,%d)", s.code.N(), s.code.K()) }

// StoredBits implements System.
func (s *RSWord) StoredBits() int { return s.code.N() * s.code.Field().M() }

// Trial implements System.
func (s *RSWord) Trial(rng *rand.Rand, bursts [][2]int) (bool, error) {
	data := make([]gf.Elem, s.code.K())
	for i := range data {
		data[i] = gf.Elem(rng.Intn(s.code.Field().Size()))
	}
	cw, err := s.code.Encode(data)
	if err != nil {
		return false, err
	}
	m := s.code.Field().M()
	flipBits(s.StoredBits(), bursts, func(bit int) {
		cw[bit/m] ^= 1 << uint(bit%m)
	})
	res, err := s.code.Decode(cw, nil)
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
// RS codewords (the ref [6] organization).
type RSInterleaved struct {
	page *interleave.Page
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
	return &RSInterleaved{page: page}, nil
}

// Name implements System.
func (s *RSInterleaved) Name() string {
	return fmt.Sprintf("RS(%d,%d) x%d interleaved", s.page.Code().N(), s.page.Code().K(), s.page.Depth())
}

// StoredBits implements System.
func (s *RSInterleaved) StoredBits() int {
	return s.page.StoredSymbols() * s.page.Code().Field().M()
}

// Trial implements System.
func (s *RSInterleaved) Trial(rng *rand.Rand, bursts [][2]int) (bool, error) {
	data := make([]gf.Elem, s.page.DataSymbols())
	for i := range data {
		data[i] = gf.Elem(rng.Intn(s.page.Code().Field().Size()))
	}
	stored, err := s.page.Encode(data)
	if err != nil {
		return false, err
	}
	m := s.page.Code().Field().M()
	flipBits(s.StoredBits(), bursts, func(bit int) {
		stored[bit/m] ^= 1 << uint(bit%m)
	})
	res, err := s.page.Decode(stored, nil)
	if err != nil {
		return false, err
	}
	if len(res.FailedStripes) > 0 {
		return false, nil
	}
	for i := range data {
		if res.Data[i] != data[i] {
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
	// Workers is the goroutine count for the campaign engine; 0 means
	// GOMAXPROCS.
	Workers int
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
	case c.EventsPerKilobit <= 0 || math.IsNaN(c.EventsPerKilobit):
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
	cfg     Config
	dist    burstlen.Dist
	systems []System
	// lostKeys/eventsKeys cache counter names so the trial loop does
	// no per-trial string concatenation.
	lostKeys, eventsKeys []string
}

// Scenario adapts the configuration and system set to the campaign
// engine's Scenario interface.
func Scenario(cfg Config, systems []System) (campaign.Scenario, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(systems) == 0 {
		return nil, fmt.Errorf("mbusim: no systems")
	}
	dist := cfg.dist()
	s := &scenario{cfg: cfg, dist: dist, systems: systems}
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
	return &worker{scn: s, rng: campaign.NewTrialRand(0)}, nil
}

// worker owns the per-goroutine RNG and the recycled burst buffer.
type worker struct {
	scn    *scenario
	rng    *rand.Rand
	bursts [][2]int
}

// Trial implements campaign.Worker: each (system, trial) pair draws
// from its own deterministic seed, making the campaign independent of
// sharding.
func (w *worker) Trial(trial int, acc *campaign.Acc) error {
	cfg := w.scn.cfg
	for i, sys := range w.scn.systems {
		w.rng.Seed(campaign.TrialSeed(cfg.Seed+int64(i)*7919, trial))
		mean := cfg.EventsPerKilobit * float64(sys.StoredBits()) / 1000
		n := poisson(w.rng, mean)
		w.bursts = w.bursts[:0]
		// Each event samples its length from the configured
		// distribution (capped at the image), then a start uniform
		// over [0, StoredBits-length] so every event flips exactly its
		// full length; drawing starts over the whole image would
		// truncate bursts landing near the edge, under-dosing
		// small-footprint systems.
		for j := 0; j < n; j++ {
			length := w.scn.dist.Sample(w.rng, sys.StoredBits())
			w.bursts = append(w.bursts, [2]int{w.rng.Intn(sys.StoredBits() - length + 1), length})
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

// Run executes the campaign over the given systems on the shared
// engine. Statistics are deterministic for a fixed Config.Seed,
// independent of Workers.
func Run(cfg Config, systems []System) ([]SystemResult, error) {
	scn, err := Scenario(cfg, systems)
	if err != nil {
		return nil, err
	}
	cres, err := campaign.Run(scn, campaign.Config{Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	return ResultsFromCampaign(systems, cres), nil
}

// poisson samples a Poisson variate by Knuth's method (means here are
// small, a few events per trial).
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
