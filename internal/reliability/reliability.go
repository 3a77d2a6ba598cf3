// Package reliability provides the rate and mission-time conventions
// shared by the memory-system models, plus a simplified
// MIL-HDBK-217-style estimator for the permanent fault rates of
// memory devices (the paper establishes its permanent-fault rates
// "using for example the models of [6], [1]", where [1] is
// MIL-HDBK-217).
//
// Conventions: the models in internal/simplex and internal/duplex work
// in hours. The paper quotes SEU rates per bit per day and sweeps
// permanent-fault rates per symbol per day; the conversion helpers
// here are the single place those units meet.
package reliability

import (
	"fmt"
	"math"
)

// Time conversions. The paper plots Figures 5-7 over hours and
// Figures 8-10 over months of continuous data storage; months are
// taken as 30 days.
const (
	HoursPerDay    = 24.0
	DaysPerMonth   = 30.0
	HoursPerMonth  = HoursPerDay * DaysPerMonth
	SecondsPerHour = 3600.0
)

// PerDayToPerHour converts an event rate from 1/day to 1/hour.
func PerDayToPerHour(r float64) float64 { return r / HoursPerDay }

// PerHourToPerDay converts an event rate from 1/hour to 1/day.
func PerHourToPerDay(r float64) float64 { return r * HoursPerDay }

// ScrubRatePerHour converts a scrubbing period in seconds into the
// exponential scrub rate 1/Tsc per hour used by the Markov models.
// A nonpositive period disables scrubbing (rate 0).
func ScrubRatePerHour(periodSeconds float64) float64 {
	if periodSeconds <= 0 {
		return 0
	}
	return SecondsPerHour / periodSeconds
}

// HoursRange returns count times evenly spaced over [start, end]
// (inclusive). count must be at least 2.
func HoursRange(start, end float64, count int) ([]float64, error) {
	if count < 2 {
		return nil, fmt.Errorf("reliability: need at least 2 points, got %d", count)
	}
	if end < start {
		return nil, fmt.Errorf("reliability: end %v before start %v", end, start)
	}
	out := make([]float64, count)
	step := (end - start) / float64(count-1)
	for i := range out {
		out[i] = start + float64(i)*step
	}
	out[count-1] = end
	return out, nil
}

// Months converts a duration in months to hours.
func Months(m float64) float64 { return m * HoursPerMonth }

// PaperSEURates are the transient fault rates swept by the paper's
// Figures 5 and 6, in errors per bit per day: from the quiet-orbit
// 7.3e-7 up to the worst case 1.7e-5.
var PaperSEURates = []float64{7.3e-7, 3.6e-6, 1.7e-5}

// WorstCaseSEURate is the paper's worst-case scenario (Figure 7).
const WorstCaseSEURate = 1.7e-5

// PaperPermanentRates are the permanent fault rates swept by
// Figures 8-10, per symbol per day.
var PaperPermanentRates = []float64{1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10}

// PaperScrubPeriods are the scrubbing periods of Figure 7, in seconds.
var PaperScrubPeriods = []float64{900, 1200, 1800, 3600}

// Environment selects the MIL-HDBK-217 application environment factor.
type Environment int

const (
	// GroundBenign: laboratory conditions (pi_E = 0.5).
	GroundBenign Environment = iota
	// GroundFixed: permanent ground installation (pi_E = 2).
	GroundFixed
	// SpaceFlight: orbital, the paper's SSMM scenario (pi_E = 0.5 per
	// 217F notice 2 for space flight, benign weightlessness).
	SpaceFlight
	// AirborneInhabitedCargo: transport aircraft (pi_E = 4).
	AirborneInhabitedCargo
)

func (e Environment) factor() (float64, error) {
	switch e {
	case GroundBenign, SpaceFlight:
		return 0.5, nil
	case GroundFixed:
		return 2, nil
	case AirborneInhabitedCargo:
		return 4, nil
	default:
		return 0, fmt.Errorf("reliability: unknown environment %d", e)
	}
}

// Device describes one static MOS RAM chip for the prediction model.
type Device struct {
	Bits         int     // storage capacity in bits
	Pins         int     // package pin count
	JunctionTemp float64 // junction temperature in deg C
	Env          Environment
	Quality      float64 // pi_Q: 0.25 space-grade .. 10 commercial; 0 means 1
}

// c1 returns the die-complexity factor by capacity bucket
// (MIL-HDBK-217F notice 2, MOS static RAMs, table values).
func (d Device) c1() (float64, error) {
	if d.Bits <= 0 {
		return 0, fmt.Errorf("reliability: device capacity %d bits", d.Bits)
	}
	buckets := []struct {
		maxBits int
		c1      float64
	}{
		{16 << 10, 0.0052},
		{64 << 10, 0.011},
		{256 << 10, 0.021},
		{1 << 20, 0.042},
		{1 << 24, 0.084}, // extrapolated doubling per 4x capacity
		{1 << 30, 0.168},
	}
	for _, b := range buckets {
		if d.Bits <= b.maxBits {
			return b.c1, nil
		}
	}
	return 0, fmt.Errorf("reliability: device capacity %d bits beyond model range", d.Bits)
}

// FailureRatePerMillionHours predicts the device permanent failure
// rate lambda_p in failures per 1e6 hours using the simplified
// MIL-HDBK-217F form
//
//	lambda_p = (C1*pi_T + C2*pi_E) * pi_Q
//
// with C2 = 2.8e-4 * pins^1.08 (hermetic DIP), the Arrhenius
// temperature factor pi_T = 0.1 * exp(-Ea/k * (1/Tj - 1/298)) at
// Ea = 0.6 eV, and the learning factor folded into pi_Q.
func (d Device) FailureRatePerMillionHours() (float64, error) {
	c1, err := d.c1()
	if err != nil {
		return 0, err
	}
	piE, err := d.Env.factor()
	if err != nil {
		return 0, err
	}
	if d.Pins <= 0 {
		return 0, fmt.Errorf("reliability: device pin count %d", d.Pins)
	}
	tj := d.JunctionTemp + 273.15
	if tj <= 0 {
		return 0, fmt.Errorf("reliability: junction temperature %v C below absolute zero", d.JunctionTemp)
	}
	const (
		ea        = 0.6      // activation energy, eV
		boltzmann = 8.617e-5 // eV/K
		tref      = 298.0    // K
	)
	piT := 0.1 * math.Exp(-ea/boltzmann*(1/tj-1/tref))
	c2 := 2.8e-4 * math.Pow(float64(d.Pins), 1.08)
	piQ := d.Quality
	if piQ == 0 {
		piQ = 1
	}
	if piQ < 0 {
		return 0, fmt.Errorf("reliability: negative quality factor %v", piQ)
	}
	return (c1*piT + c2*piE) * piQ, nil
}

// SymbolErasureRatePerDay apportions a device failure rate to one
// m-bit codeword symbol: permanent faults are assumed uniformly
// distributed over the device's bits, and any fault inside a symbol's
// bits erases that symbol. The result feeds Params.LambdaE (after
// PerDayToPerHour).
func (d Device) SymbolErasureRatePerDay(symbolBits int) (float64, error) {
	if symbolBits <= 0 || symbolBits > d.Bits {
		return 0, fmt.Errorf("reliability: symbol width %d bits incompatible with %d-bit device", symbolBits, d.Bits)
	}
	perMillionHours, err := d.FailureRatePerMillionHours()
	if err != nil {
		return 0, err
	}
	perHour := perMillionHours / 1e6
	perDay := PerHourToPerDay(perHour)
	return perDay * float64(symbolBits) / float64(d.Bits), nil
}
