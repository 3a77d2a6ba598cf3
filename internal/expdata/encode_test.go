package expdata

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/campaign"
)

// FuzzArtifactEncoders holds the hand-written artifact encoders to the
// library code they replace, on results with odd strings (HTML
// characters, U+2028, invalid UTF-8, quotes, commas, leading spaces,
// `\.`), non-finite, negative-zero and subnormal coordinates, weight
// moments that encoding/json refuses, and every omitempty field set
// and unset. campaign.AppendResultJSON must write
// json.MarshalIndent's bytes or fail with its error,
// Sample.MarshalJSON must write what json.Marshal writes for the
// sample's wire form, and WriteCampaignCSV must write csvOracle's
// bytes.
func FuzzArtifactEncoders(f *testing.F) {
	f.Add("scenario", "page_loss", "time_to_location", "a note", 1.5, -2.0, 0.25, int64(7), uint8(0xff))
	f.Fuzz(func(t *testing.T, scenario, counter, series, note string, x, y, w float64, n int64, flags uint8) {
		r := fuzzResult(scenario, counter, series, note, x, y, w, n, flags)

		want, werr := json.MarshalIndent(r, "", "  ")
		got, gerr := campaign.AppendResultJSON(nil, r)
		switch {
		case werr != nil || gerr != nil:
			if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
				t.Fatalf("errors differ: encoding/json %v, encoder %v", werr, gerr)
			}
		case !bytes.Equal(got, want):
			t.Fatalf("JSON differs:\nencoding/json:\n%s\nencoder:\n%s", want, got)
		}

		for _, s := range r.Samples {
			got, err := s.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(sampleWire{
				Trial:  s.Trial,
				Series: s.Series,
				X:      strconv.FormatFloat(s.X, 'g', -1, 64),
				Y:      strconv.FormatFloat(s.Y, 'g', -1, 64),
			})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("sample JSON differs:\nencoding/json: %s\nencoder:       %s", want, got)
			}
		}

		var csvGot bytes.Buffer
		if err := WriteCampaignCSV(&csvGot, r); err != nil {
			t.Fatal(err)
		}
		if csvWant := csvOracle(t, r); !bytes.Equal(csvGot.Bytes(), csvWant) {
			t.Fatalf("CSV differs:\nencoding/csv:\n%s\nencoder:\n%s", csvWant, csvGot.Bytes())
		}
	})
}

// fuzzResult builds a result from the fuzz inputs. The flag bits
// choose which optional parts it has: early stop, resumed trials, the
// counter map (bits 2-3: nil, empty or filled), weight moments,
// samples and notes; bit 7 makes each of the last three that is not
// chosen empty but non-nil.
func fuzzResult(scenario, counter, series, note string, x, y, w float64, n int64, flags uint8) *campaign.Result {
	r := &campaign.Result{Scenario: scenario, Requested: int(n), Trials: int(n / 2)}
	if flags&1 != 0 {
		r.EarlyStopped = true
	}
	if flags&2 != 0 {
		r.ResumedTrials = int(n)
	}
	switch (flags >> 2) & 3 {
	case 0:
	case 1:
		r.Counters = map[string]int64{}
	default:
		r.Counters = map[string]int64{counter: n, counter + "_2": -n, series: 0, "correct": 1}
	}
	if flags&16 != 0 {
		r.Weights = map[string]campaign.Moments{counter: {WSum: w, WSum2: w * w}, "correct": {WSum: w / 3, WSum2: 1e-300}}
	}
	if flags&32 != 0 {
		r.Samples = []campaign.Sample{
			{Trial: int(n), Series: series, X: x, Y: y},
			{Trial: 0, Series: counter, X: y, Y: w},
			{Trial: 1, Series: series, X: math.NaN(), Y: math.Copysign(0, -1)},
			{Trial: -1, Series: "time_to_location", X: math.Inf(1), Y: math.SmallestNonzeroFloat64},
		}
	}
	if flags&64 != 0 {
		r.Notes = []campaign.Note{{Trial: int(n), Text: note}, {Trial: 0, Text: scenario}}
	}
	if flags&128 != 0 {
		if r.Weights == nil {
			r.Weights = map[string]campaign.Moments{}
		}
		if r.Samples == nil {
			r.Samples = []campaign.Sample{}
		}
		if r.Notes == nil {
			r.Notes = []campaign.Note{}
		}
	}
	return r
}

// sampleWire mirrors campaign's wire form of a sample: json.Marshal of
// it is what Sample.MarshalJSON wrote before the hand-written appender.
type sampleWire struct {
	Trial  int    `json:"trial"`
	Series string `json:"series"`
	X      string `json:"x"`
	Y      string `json:"y"`
}

// csvOracle is the campaign CSV as written before rows were appended
// by hand: every row through one csv.Writer.
func csvOracle(t testing.TB, cres *campaign.Result) []byte {
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	rows := [][]string{{"kind", "name", "trial", "x", "y"}}
	for _, name := range cres.CounterNames() {
		rows = append(rows, []string{"counter", name, "", "", strconv.FormatInt(cres.Counters[name], 10)})
	}
	for _, sm := range cres.Samples {
		rows = append(rows, []string{
			"sample", sm.Series, strconv.Itoa(sm.Trial),
			strconv.FormatFloat(sm.X, 'g', -1, 64),
			strconv.FormatFloat(sm.Y, 'g', -1, 64),
		})
	}
	if err := cw.WriteAll(rows); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// benchResult is a fixed result of about one page-grid detection
// cell: 4,096 time_to_location samples over 2,048 trials and a
// pagesim counter block.
func benchResult() *campaign.Result {
	rng := rand.New(rand.NewSource(1))
	r := &campaign.Result{
		Scenario:  "pagesim:RS(18,16) depth=4 scrub=8 det=scrub",
		Requested: 2048,
		Trials:    2048,
		Counters: map[string]int64{
			"corrected_symbols": 5012, "failed_stripes": 361, "page_correct": 1790,
			"page_loss": 258, "page_silent_loss": 17, "scrub_ops": 12288,
			"seus": 8120, "stuck_columns": 4096, "stuck_unlocated_reads": 733,
		},
	}
	for i := 0; i < 4096; i++ {
		strike := 48 * rng.Float64()
		r.Samples = append(r.Samples, campaign.Sample{
			Trial: i / 2, Series: "time_to_location", X: strike, Y: 8 * math.Ceil(strike/8),
		})
	}
	return r
}

// BenchmarkResultJSON is the JSON artifact's encoding, as
// WriteResultJSON does it, of a 4,096-sample result.
func BenchmarkResultJSON(b *testing.B) {
	r := benchResult()
	data, err := campaign.AppendResultJSON(nil, r)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := campaign.AppendResultJSON(nil, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignCSV is the CSV artifact's encoding, as
// WriteArtifacts does it, of a 4,096-sample result.
func BenchmarkCampaignCSV(b *testing.B) {
	r := benchResult()
	var buf bytes.Buffer
	if err := WriteCampaignCSV(&buf, r); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	for b.Loop() {
		var buf bytes.Buffer
		if err := WriteCampaignCSV(&buf, r); err != nil {
			b.Fatal(err)
		}
	}
}
