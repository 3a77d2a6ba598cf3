package spec

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/expdata"
)

func TestParseValidation(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"empty", `{}`},
		{"no name", `{"scenarios":[{"kind":"memsim"}]}`},
		{"dup name", `{"scenarios":[{"name":"a","kind":"memsim"},{"name":"a","kind":"mbusim"}]}`},
		{"bad kind", `{"scenarios":[{"name":"a","kind":"nope"}]}`},
		{"unknown field", `{"scenarios":[{"name":"a","kind":"memsim","bogus":1}]}`},
		{"stop no counter", `{"scenarios":[{"name":"a","kind":"memsim","stop":{"rel_half_width":0.1}}]}`},
		{"expect no counter", `{"scenarios":[{"name":"a","kind":"memsim","expect":[{"min_fraction":0.1}]}]}`},
		{"expect no bound", `{"scenarios":[{"name":"a","kind":"memsim","expect":[{"counter":"x"}]}]}`},
		// An unknown file-level block is refused, not dropped: a spec
		// asking for a round budget must not run without one.
		{"adaptive block", `{"adaptive":{"round_trials":100},"scenarios":[{"name":"a","kind":"memsim","stop":{"counter":"x","rel_half_width":0.1}}]}`},
		{"not json", `nope`},
	}
	for _, c := range cases {
		if _, err := Parse([]byte(c.doc)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestBuildRejectsBadParams(t *testing.T) {
	f := &File{Seed: 1, Scenarios: []Entry{{Name: "a", Kind: "memsim"}}}
	cases := []Entry{
		{Name: "a", Kind: "memsim", Params: []byte(`{"bogus":1}`)},
		{Name: "a", Kind: "memsim", Params: []byte(`{"trials":0,"horizon_hours":1}`)},
		{Name: "a", Kind: "memsim", Params: []byte(`{"n":3,"k":5,"trials":1,"horizon_hours":1}`)},
		{Name: "a", Kind: "memsim", Params: []byte(`{"lambda_bit_per_hour":1e307,"trials":1,"horizon_hours":48}`)},
		{Name: "a", Kind: "memsim", Params: []byte(`{"scrub_period_hours":1e-12,"trials":1,"horizon_hours":48}`)},
		{Name: "a", Kind: "mbusim", Params: []byte(`{"events_per_kilobit":0,"burst_bits":1,"trials":1}`)},
		{Name: "a", Kind: "mbusim", Params: []byte(`{"events_per_kilobit":4,"burst_bits":1,"trials":0}`)},
		{Name: "a", Kind: "bercurve", Params: []byte(`{"hours":0}`)},
		{Name: "a", Kind: "bercurve", Params: []byte(`{"hours":48,"arrangement":"triplex"}`)},
		{Name: "a", Kind: "tradeoff", Params: []byte(`{"hours":0}`)},
		{Name: "a", Kind: "experiments", Params: []byte(`{"ids":["nope"]}`)},
		{Name: "a", Kind: "interleave", Params: []byte(`{"bogus":1}`)},
		{Name: "a", Kind: "interleave", Params: []byte(`{"trials":0,"horizon_hours":1}`)},
		{Name: "a", Kind: "interleave", Params: []byte(`{"depth":-1,"trials":1,"horizon_hours":1}`)},
		{Name: "a", Kind: "interleave", Params: []byte(`{"depth":2,"lambda_bit_per_hour":1e300,"trials":1,"horizon_hours":48}`)},
		{Name: "a", Kind: "interleave", Params: []byte(`{"depth":2,"scrub_period_hours":1e-12,"exponential_scrub":true,"trials":1,"horizon_hours":48}`)},
		{Name: "a", Kind: "array", Params: []byte(`{"hours":0,"trials":1}`)},
		{Name: "a", Kind: "array", Params: []byte(`{"hours":1,"trials":1,"arrangement":"triplex"}`)},
		{Name: "a", Kind: "array", Params: []byte(`{"hours":1,"trials":1,"n":3,"k":5}`)},
	}
	for i, e := range cases {
		_, err := Build(e, f)
		if err == nil {
			t.Errorf("case %d (%s): bad params accepted", i, e.Kind)
			continue
		}
		if e.Kind == "experiments" {
			// The unknown-ID error is where a user learns the valid IDs.
			for _, exp := range expdata.All() {
				if !strings.Contains(err.Error(), exp.ID) {
					t.Errorf("case %d: unknown-experiment error %q does not list %q", i, err, exp.ID)
				}
			}
		}
	}
}

func TestMemsimSpecRoundTrip(t *testing.T) {
	doc := `{
	  "seed": 9,
	  "scenarios": [{
	    "name": "mission",
	    "kind": "memsim",
	    "params": {"duplex": true, "lambda_bit_per_hour": 6e-4,
	               "lambda_symbol_per_hour": 2e-4, "scrub_period_hours": 4,
	               "exponential_scrub": true, "horizon_hours": 48, "trials": 500},
	    "expect": [{"counter": "capability_exceeded", "min_fraction": 0.5, "max_fraction": 1.0}]
	  }]
	}`
	f, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	built, err := f.BuildAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(built) != 1 {
		t.Fatalf("built %d scenarios", len(built))
	}
	b := built[0]
	if b.Scenario.Trials() != 500 {
		t.Errorf("trials = %d", b.Scenario.Trials())
	}
	if !strings.Contains(b.Scenario.Name(), "seed=9") {
		t.Errorf("file-level seed not inherited: %s", b.Scenario.Name())
	}
	cres, err := campaign.Run(b.Scenario, b.EngineConfig(f))
	if err != nil {
		t.Fatal(err)
	}
	if errs := b.CheckExpectations(cres); len(errs) != 0 {
		t.Errorf("expectations failed: %v", errs)
	}
	var buf bytes.Buffer
	if err := b.Render(&buf, cres); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"duplex", "cap. exceeded", "fail fraction"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("render missing %q:\n%s", want, buf.String())
		}
	}
}

func TestExpectationBands(t *testing.T) {
	cres := &campaign.Result{Trials: 100, Counters: map[string]int64{"hits": 50}}
	band := func(min, max *float64) Expectation {
		return Expectation{Counter: "hits", MinFraction: min, MaxFraction: max}
	}
	f := func(v float64) *float64 { return &v }
	if err := band(f(0.4), f(0.6)).Check(cres); err != nil {
		t.Errorf("in-band value rejected: %v", err)
	}
	if err := band(f(0.6), nil).Check(cres); err == nil {
		t.Error("below-minimum value accepted")
	}
	if err := band(nil, f(0.4)).Check(cres); err == nil {
		t.Error("above-maximum value accepted")
	}
	// Missing counters read as fraction 0, so a minimum catches a
	// scenario that silently stopped recording.
	if err := (Expectation{Counter: "gone", MinFraction: f(0.01)}).Check(cres); err == nil {
		t.Error("missing counter with minimum accepted")
	}
}

func TestBERCurveSpecMatchesPoints(t *testing.T) {
	scn, err := newBERCurve(BERCurveParams{
		Arrangement: "duplex",
		SEUPerBit:   1.7e-5,
		ScrubSec:    3600,
		Hours:       48,
		Points:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if scn.Trials() != 5 {
		t.Fatalf("trials = %d, want 5", scn.Trials())
	}
	cres, err := campaign.Run(scn, campaign.Config{Workers: 2, ShardSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	xs, ys := cres.SeriesPoints(SeriesBER)
	if len(xs) != 5 {
		t.Fatalf("got %d points", len(xs))
	}
	if xs[0] != 0 || xs[4] != 48 {
		t.Errorf("grid endpoints %v", xs)
	}
	if ys[0] != 0 {
		t.Errorf("BER(0) = %v, want 0", ys[0])
	}
	for i := 1; i < len(ys); i++ {
		if ys[i] <= ys[i-1] {
			t.Errorf("BER not increasing at %d: %v", i, ys)
		}
	}
}

func TestTradeoffSpecCandidates(t *testing.T) {
	scn, err := newTradeoff(TradeoffParams{
		SEUPerBit: 1.7e-5, PermPerSym: 1e-7, ScrubSec: 3600, Hours: 48,
		MaxRed: 4, DuplexMaxRed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(scn.Candidates()); got != 3 {
		t.Fatalf("got %d candidates, want 3 (simplex 18,20 + duplex 18)", got)
	}
	cres, err := campaign.Run(scn, campaign.Config{Workers: 3, ShardSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range scn.Candidates() {
		ber, mttdl, cycles, gates, overhead, ok := scn.MetricsFor(cres, i)
		if !ok {
			t.Fatalf("candidate %s missing", c.Label())
		}
		if ber <= 0 || mttdl <= 0 || cycles <= 0 || gates <= 0 || overhead <= 1 {
			t.Errorf("%s: implausible metrics ber=%g mttdl=%g cycles=%g gates=%g overhead=%g",
				c.Label(), ber, mttdl, cycles, gates, overhead)
		}
	}
	var buf bytes.Buffer
	if err := renderTradeoff(&buf, scn, cres); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "simplex RS(20,16)") {
		t.Errorf("table missing candidate:\n%s", buf.String())
	}
}

// TestInterleaveDetectionParams: the stuck-column detection policy is
// a first-class interleave param — matrix-sweepable, reflected in the
// scenario name (except immediate, which keeps the historical name so
// old checkpoints stay resumable), and validated at build time.
func TestInterleaveDetectionParams(t *testing.T) {
	doc := `{"seed": 1, "scenarios": [{
	  "name": "det", "kind": "interleave",
	  "params": {"depth": 2, "lambda_column_per_hour": 1e-3,
	             "detection_latency_hours": 6, "scrub_period_hours": 2,
	             "horizon_hours": 4, "trials": 50},
	  "matrix": {"detection": ["immediate", "scrub", "latency"]}}]}`
	f, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	built, err := f.BuildAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(built) != 3 {
		t.Fatalf("built %d cells, want 3", len(built))
	}
	names := map[string]bool{}
	for _, b := range built {
		names[b.Scenario.Name()] = true
	}
	if len(names) != 3 {
		t.Errorf("detection cells share scenario names: %v", names)
	}
	for _, b := range built {
		if strings.Contains(b.Entry.Name, "immediate") && strings.Contains(b.Scenario.Name(), "det=") {
			t.Errorf("immediate cell renamed the scenario (breaks old checkpoints): %s", b.Scenario.Name())
		}
	}

	bad := `{"scenarios": [{"name": "x", "kind": "interleave",
	  "params": {"depth": 2, "detection": "eventually", "horizon_hours": 1, "trials": 1}}]}`
	fb, err := Parse([]byte(bad))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fb.BuildAll(); err == nil {
		t.Error("unknown detection policy built")
	}
}
