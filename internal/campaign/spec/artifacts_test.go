package spec

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/campaign"
)

// TestArtifactBytesGolden pins the sha256 and length of the .json and
// .csv files WriteArtifacts writes for three entries that between
// them reach every part of the artifact encoders: string-valued
// sample coordinates (a scrub-located interleave cell's
// time_to_location series), weight moments with an early stop (a
// tilted memsim entry under a stop rule), and notes plus series
// labels that need CSV quoting (two experiments). Any change to the
// encoders must keep these bytes.
func TestArtifactBytesGolden(t *testing.T) {
	doc := `{
	  "seed": 21,
	  "scenarios": [
	    {"name": "golden-detection", "kind": "interleave",
	     "params": {"depth": 2, "detection": "scrub", "scrub_period_hours": 8,
	                "lambda_bit_per_hour": 1e-5, "lambda_column_per_hour": 1.5e-3,
	                "horizon_hours": 48, "trials": 400}},
	    {"name": "golden-tilted", "kind": "memsim",
	     "sampling": {"method": "auto"},
	     "stop": {"counter": "capability_exceeded", "rel_half_width": 0.2, "min_trials": 1000},
	     "params": {"n": 18, "k": 16, "lambda_bit_per_hour": 1.7e-8,
	                "lambda_symbol_per_hour": 8.5e-10,
	                "scrub_period_hours": 4, "exponential_scrub": true,
	                "horizon_hours": 48, "trials": 20000}},
	    {"name": "golden-experiments", "kind": "experiments",
	     "params": {"ids": ["tbl-td", "ext-baselines"]}}
	  ]
	}`
	want := map[string]struct {
		sha  string
		size int
	}{
		"golden-detection.json":   {"00185617c00353325e9a62fba86bd4b4397c29f664c9df94e3c197f93f5b7326", 63860},
		"golden-detection.csv":    {"1b6ccb72db64dcc9d83e19d8f3e7102a278bb20a005720d41f955083e2b8fadd", 31194},
		"golden-tilted.json":      {"2d30c43386001bc3028a55f986f3c20d435688a26a444568f5d684f7b7c82c41", 918},
		"golden-tilted.csv":       {"1774caf3e2a4834ad8bcc135333b263674f49f48456c966e20bf6922503e3979", 268},
		"golden-experiments.json": {"30211e6ce558e86308a97af4de7291734f8603e2fd48ded18e2f63b7915e9d21", 7908},
		"golden-experiments.csv":  {"bf578c86def34abf9def07fd5b0b62ac7ee4f98943cb1afeca14dff3ab089902", 3105},
	}
	f, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	built, err := f.BuildAll()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var results []*campaign.Result
	for _, b := range built {
		cres, err := campaign.Run(b.Scenario, b.EngineConfig(f))
		if err != nil {
			t.Fatal(err)
		}
		if err := b.WriteArtifacts(dir, cres); err != nil {
			t.Fatal(err)
		}
		results = append(results, cres)
	}
	// The fixture must keep reaching what it is here to pin.
	if len(results[0].Samples) == 0 {
		t.Error("detection entry recorded no samples")
	}
	if !results[1].EarlyStopped || results[1].Weights == nil {
		t.Errorf("tilted entry: early_stopped=%v, weights=%v", results[1].EarlyStopped, results[1].Weights)
	}
	if len(results[2].Notes) == 0 {
		t.Error("experiments entry recorded no notes")
	}
	if csv, err := os.ReadFile(filepath.Join(dir, "golden-experiments.csv")); err != nil || !bytes.Contains(csv, []byte(`"`)) {
		t.Errorf("experiments CSV has no quoted field (err %v)", err)
	}
	for name, w := range want {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != w.sha || len(data) != w.size {
			t.Errorf("%s drifted: sha256 %s (%d bytes), want %s (%d bytes)", name, got, len(data), w.sha, w.size)
		}
	}
}

// TestWriteArtifactsAtomic: a reader re-reading the artifacts while
// WriteArtifacts replaces a small result with a large one, and back,
// must see one of the two whole files every time, never a prefix.
func TestWriteArtifactsAtomic(t *testing.T) {
	result := func(samples int) *campaign.Result {
		r := &campaign.Result{Scenario: "atomic", Requested: samples, Trials: samples,
			Counters: map[string]int64{"page_loss": int64(samples / 7)}}
		for i := 0; i < samples; i++ {
			r.Samples = append(r.Samples, campaign.Sample{Trial: i, Series: "time_to_location", X: float64(i) / 3, Y: 12})
		}
		return r
	}
	small, large := result(1000), result(200000)
	b := &Built{Entry: Entry{Name: "atomic"}}
	want := map[string][2][]byte{} // extension -> small, large bytes
	for i, r := range []*campaign.Result{small, large} {
		dir := t.TempDir()
		if err := b.WriteArtifacts(dir, r); err != nil {
			t.Fatal(err)
		}
		for _, ext := range []string{".json", ".csv"} {
			data, err := os.ReadFile(filepath.Join(dir, "atomic"+ext))
			if err != nil {
				t.Fatal(err)
			}
			w := want[ext]
			w[i] = data
			want[ext] = w
		}
	}

	dir := t.TempDir()
	if err := b.WriteArtifacts(dir, small); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, ext := range []string{".json", ".csv"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			path := filepath.Join(dir, "atomic"+ext)
			for reads, torn := 0, 0; ; reads++ {
				select {
				case <-done:
					if torn > 0 {
						t.Errorf("%s: %d of %d reads saw neither whole artifact", ext, torn, reads)
					}
					return
				default:
				}
				data, err := os.ReadFile(path)
				if err != nil || !(bytes.Equal(data, want[ext][0]) || bytes.Equal(data, want[ext][1])) {
					torn++
				}
			}
		}()
	}
	for i := 0; i < 3; i++ {
		for _, r := range []*campaign.Result{large, small} {
			if err := b.WriteArtifacts(dir, r); err != nil {
				t.Error(err)
			}
		}
	}
	close(done)
	wg.Wait()
}
