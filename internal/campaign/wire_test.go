package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestWriteToRoundTrip is the fabric's wire-format law: executing a
// partition in memory, serializing it with WriteTo and re-reading the
// bytes with OpenPartial must merge bit-identically to the
// single-process run — uploads are just partials in flight.
func TestWriteToRoundTrip(t *testing.T) {
	scn := &coinScenario{name: "wire-coin", trials: 1700, seed: 21, p: 0.3}
	want := run(t, scn, Config{Workers: 4, ShardSize: 64})

	dir := t.TempDir()
	const parts = 3
	var partials []*Partial
	for i := 0; i < parts; i++ {
		plan, err := NewPlan(scn, 64, Partition{Index: i, Count: parts})
		if err != nil {
			t.Fatal(err)
		}
		plan.ParamsDigest = "digest-1"
		mem, err := Execute(scn, plan, ExecConfig{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if n, err := mem.WriteTo(&buf); err != nil || n != int64(buf.Len()) {
			t.Fatalf("WriteTo = %d, %v; buffered %d", n, err, buf.Len())
		}
		path := filepath.Join(dir, "up.part"+string(rune('0'+i)))
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		p, err := OpenPartial(path)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if err := p.MatchesPlan(plan); err != nil {
			t.Fatalf("round-tripped partial rejected by its own plan: %v", err)
		}
		if !p.Complete(plan) {
			t.Fatalf("round-tripped partial incomplete for its plan")
		}
		if p.ParamsDigest() != "digest-1" {
			t.Fatalf("digest lost on the wire: %q", p.ParamsDigest())
		}
		partials = append(partials, p)
	}
	got, err := Merge(partials, MergeConfig{ParamsDigest: "digest-1"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("wire round trip changed the result:\nwant %+v\ngot  %+v", want, got)
	}
}

func TestMatchesPlanRejectsMismatches(t *testing.T) {
	scn := &coinScenario{name: "wire-coin", trials: 500, seed: 3, p: 0.5}
	plan0, err := NewPlan(scn, 64, Partition{Index: 0, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	plan0.ParamsDigest = "d-one"
	p, err := Execute(scn, plan0, ExecConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	plan1, err := NewPlan(scn, 64, Partition{Index: 1, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.MatchesPlan(plan1); err == nil {
		t.Error("partial for slice 0/2 accepted against the 1/2 plan")
	}

	other := &coinScenario{name: "wire-coin", trials: 1000, seed: 3, p: 0.5}
	planOther, err := NewPlan(other, 64, Partition{Index: 0, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.MatchesPlan(planOther); err == nil {
		t.Error("partial accepted against a different campaign geometry")
	}

	edited, err := NewPlan(scn, 64, Partition{Index: 0, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	edited.ParamsDigest = "d-two"
	if err := p.MatchesPlan(edited); err == nil {
		t.Error("partial accepted despite a conflicting params digest")
	}

	// Pre-digest artifacts (empty digest) keep passing — the
	// documented caveat.
	preDigest, err := NewPlan(scn, 64, Partition{Index: 0, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	preDigest.ParamsDigest = "d-one"
	if err := p.MatchesPlan(preDigest); err != nil {
		t.Errorf("matching digest rejected: %v", err)
	}
}

// TestTruncatedUploadIncomplete drops the tail of a serialized partial
// and checks Complete detects the missing shards (the coordinator's
// truncated-upload rejection) while the shards that survived still
// load with their counters.
func TestTruncatedUploadIncomplete(t *testing.T) {
	scn := &coinScenario{name: "wire-coin", trials: 600, seed: 9, p: 0.4}
	plan, err := NewPlan(scn, 64, Whole)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := Execute(scn, plan, ExecConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := mem.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(buf.Bytes(), []byte("\n"))
	kept := bytes.Join(lines[:len(lines)-2], nil) // drop the last record
	path := filepath.Join(t.TempDir(), "trunc.part0of1")
	if err := os.WriteFile(path, kept, 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := OpenPartial(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.MatchesPlan(plan); err != nil {
		t.Fatalf("truncated partial should still match the plan (just incompletely): %v", err)
	}
	if p.Complete(plan) {
		t.Fatal("truncated partial reported complete")
	}
	if v, ok := p.counters[0]["trials_seen"]; !ok || v != 64 {
		t.Fatalf("shard 0 trials_seen = %d, %v; want 64, true", v, ok)
	}
	if p.has(plan.NumShards - 1) {
		t.Fatal("dropped shard still readable")
	}
}
