package expdata

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/campaign"
)

// TestCampaignReassemblyMatchesDirectRun: running experiments through
// the campaign engine and reassembling must reproduce the direct
// Run() output exactly, regardless of worker count.
func TestCampaignReassemblyMatchesDirectRun(t *testing.T) {
	var exps []Experiment
	for _, id := range []string{"fig5", "tbl-td", "tbl-area"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %q missing", id)
		}
		exps = append(exps, e)
	}
	var want []*Result
	for _, e := range exps {
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}

	for _, workers := range []int{1, 3} {
		scn, err := Scenario("paper-tables", exps)
		if err != nil {
			t.Fatal(err)
		}
		cres, err := campaign.Run(scn, campaign.Config{Workers: workers, ShardSize: 1})
		if err != nil {
			t.Fatal(err)
		}
		if cres.Scenario != "paper-tables" {
			t.Errorf("scenario name %q", cres.Scenario)
		}
		got, err := ResultsFromCampaign(exps, cres)
		if err != nil {
			t.Fatal(err)
		}
		for i := range exps {
			if !reflect.DeepEqual(want[i], got[i]) {
				t.Errorf("workers=%d: %s reassembled differently:\nwant %+v\ngot  %+v",
					workers, exps[i].ID, want[i], got[i])
			}
		}
	}
}

func TestScenarioValidation(t *testing.T) {
	if _, err := Scenario("x", nil); err == nil {
		t.Error("empty experiment list accepted")
	}
	e, _ := ByID("tbl-td")
	scn, err := Scenario("", []Experiment{e})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(scn.Name(), "tbl-td") {
		t.Errorf("default name %q should mention the experiment", scn.Name())
	}
}

func TestWriteCampaignCSV(t *testing.T) {
	cres := &campaign.Result{
		Scenario: "s", Trials: 2,
		Counters: map[string]int64{"hits": 3, "misses": 1},
		Samples:  []campaign.Sample{{Trial: 0, Series: "ber", X: 1, Y: 2e-6}},
	}
	var buf bytes.Buffer
	if err := WriteCampaignCSV(&buf, cres); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"counter,hits,,,3", "counter,misses,,,1", "sample,ber,0,1,2e-06"} {
		if !strings.Contains(out, want) {
			t.Errorf("campaign CSV missing %q:\n%s", want, out)
		}
	}
}

// TestStreamingCSVMatchesInMemory: the streaming writer fed sample by
// sample from a merge Sink must produce byte-for-byte the CSV that
// WriteCampaignCSV produces from the fully materialized result.
func TestStreamingCSVMatchesInMemory(t *testing.T) {
	// A real engine campaign (experiments carry samples with exotic
	// values, including +Inf MTTDLs) exercises the full float
	// formatting path.
	var exps []Experiment
	for _, id := range []string{"fig5", "tbl-td"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %q missing", id)
		}
		exps = append(exps, e)
	}
	scn, err := Scenario("stream-csv", exps)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := campaign.NewPlan(scn, 1, campaign.Whole)
	if err != nil {
		t.Fatal(err)
	}
	partial, err := campaign.Execute(scn, plan, campaign.ExecConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer partial.Close()

	inMemory, err := campaign.Merge([]*campaign.Partial{partial}, campaign.MergeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := WriteCampaignCSV(&want, inMemory); err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	stream := NewCampaignCSVStream(&got)
	streamed, err := campaign.Merge([]*campaign.Partial{partial}, campaign.MergeConfig{Sink: stream})
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.Flush(); err != nil {
		t.Fatal(err)
	}
	if streamed.Samples != nil {
		t.Error("streaming merge still materialized samples")
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("streaming CSV differs from in-memory CSV:\nin-memory:\n%s\nstreamed:\n%s", want.String(), got.String())
	}
	if got.Len() == 0 || !strings.Contains(got.String(), "sample,") {
		t.Fatalf("streamed CSV suspiciously empty:\n%s", got.String())
	}
}

// TestRegistryMetaStamped: every experiment's Run output must carry
// the registry's axis metadata (the single-source guarantee the
// campaign reassembly relies on).
func TestRegistryMetaStamped(t *testing.T) {
	e, ok := ByID("fig5")
	if !ok {
		t.Fatal("fig5 missing")
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.XLabel != e.XLabel || res.YLabel != e.YLabel || res.LogY != e.LogY {
		t.Errorf("run result meta (%q,%q,%t) != registry meta (%q,%q,%t)",
			res.XLabel, res.YLabel, res.LogY, e.XLabel, e.YLabel, e.LogY)
	}
	if e.XLabel == "" || e.YLabel == "" {
		t.Error("registry meta empty")
	}
}
