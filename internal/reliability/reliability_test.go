package reliability

import (
	"math"
	"testing"
)

func TestRateConversions(t *testing.T) {
	if got := PerDayToPerHour(24); got != 1 {
		t.Errorf("PerDayToPerHour(24) = %v", got)
	}
	if got := PerHourToPerDay(1); got != 24 {
		t.Errorf("PerHourToPerDay(1) = %v", got)
	}
	x := 1.7e-5
	if got := PerHourToPerDay(PerDayToPerHour(x)); math.Abs(got-x) > 1e-20 {
		t.Errorf("round trip lost precision: %v", got)
	}
}

func TestScrubRatePerHour(t *testing.T) {
	if got := ScrubRatePerHour(3600); got != 1 {
		t.Errorf("ScrubRatePerHour(3600) = %v, want 1", got)
	}
	if got := ScrubRatePerHour(900); got != 4 {
		t.Errorf("ScrubRatePerHour(900) = %v, want 4", got)
	}
	if got := ScrubRatePerHour(0); got != 0 {
		t.Errorf("ScrubRatePerHour(0) = %v, want 0 (disabled)", got)
	}
	if got := ScrubRatePerHour(-5); got != 0 {
		t.Errorf("ScrubRatePerHour(-5) = %v, want 0", got)
	}
}

func TestDurations(t *testing.T) {
	if Months(1) != 720 {
		t.Errorf("Months(1) = %v, want 720", Months(1))
	}
	if Months(24) != 17280 {
		t.Errorf("Months(24) = %v", Months(24))
	}
}

func TestHoursRange(t *testing.T) {
	r, err := HoursRange(0, 48, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 12, 24, 36, 48}
	for i := range want {
		if math.Abs(r[i]-want[i]) > 1e-12 {
			t.Errorf("r[%d] = %v, want %v", i, r[i], want[i])
		}
	}
	if _, err := HoursRange(0, 48, 1); err == nil {
		t.Error("count=1 accepted")
	}
	if _, err := HoursRange(48, 0, 5); err == nil {
		t.Error("end<start accepted")
	}
	// Endpoint must be exact despite floating-point stepping.
	r2, _ := HoursRange(0, 17280, 7)
	if r2[6] != 17280 {
		t.Errorf("endpoint = %v, want exactly 17280", r2[6])
	}
}

func TestPaperConstants(t *testing.T) {
	if len(PaperSEURates) != 3 || PaperSEURates[0] != 7.3e-7 || PaperSEURates[2] != 1.7e-5 {
		t.Errorf("PaperSEURates = %v", PaperSEURates)
	}
	if WorstCaseSEURate != 1.7e-5 {
		t.Errorf("WorstCaseSEURate = %v", WorstCaseSEURate)
	}
	if len(PaperPermanentRates) != 7 {
		t.Errorf("PaperPermanentRates has %d entries, want 7 (1e-4..1e-10)", len(PaperPermanentRates))
	}
	for i := 1; i < len(PaperPermanentRates); i++ {
		if PaperPermanentRates[i] >= PaperPermanentRates[i-1] {
			t.Error("PaperPermanentRates must be decreasing")
		}
	}
	if len(PaperScrubPeriods) != 4 || PaperScrubPeriods[0] != 900 || PaperScrubPeriods[3] != 3600 {
		t.Errorf("PaperScrubPeriods = %v", PaperScrubPeriods)
	}
}

func spaceDevice() Device {
	return Device{
		Bits:         1 << 20, // 1 Mbit
		Pins:         32,
		JunctionTemp: 40,
		Env:          SpaceFlight,
		Quality:      0.25, // space-grade screening
	}
}

func TestFailureRatePlausibleRange(t *testing.T) {
	d := spaceDevice()
	rate, err := d.FailureRatePerMillionHours()
	if err != nil {
		t.Fatal(err)
	}
	// Space-grade SRAM predictions land in the 1e-3 .. 1 FIT-ish
	// per-million-hours window for this model family.
	if rate <= 0 || rate > 10 {
		t.Errorf("failure rate %v per 1e6 h implausible", rate)
	}
}

func TestFailureRateMonotoneInTemperature(t *testing.T) {
	cold := spaceDevice()
	cold.JunctionTemp = 25
	hot := spaceDevice()
	hot.JunctionTemp = 85
	cr, err := cold.FailureRatePerMillionHours()
	if err != nil {
		t.Fatal(err)
	}
	hr, err := hot.FailureRatePerMillionHours()
	if err != nil {
		t.Fatal(err)
	}
	if hr <= cr {
		t.Errorf("hotter junction must fail more: %v vs %v", hr, cr)
	}
}

func TestFailureRateMonotoneInQualityAndEnv(t *testing.T) {
	d := spaceDevice()
	commercial := d
	commercial.Quality = 10
	dr, _ := d.FailureRatePerMillionHours()
	cr, err := commercial.FailureRatePerMillionHours()
	if err != nil {
		t.Fatal(err)
	}
	if cr <= dr {
		t.Errorf("COTS quality must fail more: %v vs %v", cr, dr)
	}
	airborne := d
	airborne.Env = AirborneInhabitedCargo
	ar, err := airborne.FailureRatePerMillionHours()
	if err != nil {
		t.Fatal(err)
	}
	if ar <= dr {
		t.Errorf("harsher environment must fail more: %v vs %v", ar, dr)
	}
}

func TestFailureRateValidation(t *testing.T) {
	bad := spaceDevice()
	bad.Bits = 0
	if _, err := bad.FailureRatePerMillionHours(); err == nil {
		t.Error("zero capacity accepted")
	}
	bad = spaceDevice()
	bad.Pins = 0
	if _, err := bad.FailureRatePerMillionHours(); err == nil {
		t.Error("zero pins accepted")
	}
	bad = spaceDevice()
	bad.JunctionTemp = -300
	if _, err := bad.FailureRatePerMillionHours(); err == nil {
		t.Error("sub-absolute-zero temperature accepted")
	}
	bad = spaceDevice()
	bad.Quality = -1
	if _, err := bad.FailureRatePerMillionHours(); err == nil {
		t.Error("negative quality accepted")
	}
	bad = spaceDevice()
	bad.Bits = 1 << 31
	if _, err := bad.FailureRatePerMillionHours(); err == nil {
		t.Error("capacity beyond model range accepted")
	}
	bad = spaceDevice()
	bad.Env = Environment(99)
	if _, err := bad.FailureRatePerMillionHours(); err == nil {
		t.Error("unknown environment accepted")
	}
}

func TestSymbolErasureRatePerDay(t *testing.T) {
	d := spaceDevice()
	rate, err := d.SymbolErasureRatePerDay(8)
	if err != nil {
		t.Fatal(err)
	}
	device, _ := d.FailureRatePerMillionHours()
	want := device / 1e6 * 24 * 8 / float64(d.Bits)
	if math.Abs(rate-want) > 1e-20 {
		t.Errorf("symbol rate %v, want %v", rate, want)
	}
	// The paper sweeps 1e-4..1e-10 per symbol-day; a realistic device
	// must land inside (toward the reliable end of) that band.
	if rate > 1e-4 || rate < 1e-16 {
		t.Errorf("symbol erasure rate %v outside plausible band", rate)
	}
	if _, err := d.SymbolErasureRatePerDay(0); err == nil {
		t.Error("zero symbol width accepted")
	}
	if _, err := d.SymbolErasureRatePerDay(d.Bits + 1); err == nil {
		t.Error("symbol wider than device accepted")
	}
}
