package fabric

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// weightedDoc is an importance-sampled rare-event campaign with a
// relative-error stop — the coordinator must fold weight moments over
// the contiguous prefix and re-decide the weighted stop exactly as the
// merger does.
const weightedDoc = `{"seed": 11, "shard_size": 256, "scenarios": [{
  "name": "rare", "kind": "memsim",
  "sampling": {"method": "tilt", "factor": 19169},
  "params": {"duplex": false, "n": 18, "k": 16, "lambda_bit_per_hour": 1.7e-8,
             "lambda_symbol_per_hour": 8.5e-10,
             "scrub_period_hours": 4, "exponential_scrub": true,
             "horizon_hours": 48, "trials": 30000},
  "stop": {"counter": "capability_exceeded", "rel_half_width": 0.15,
           "min_trials": 1000}
}]}`

// TestFabricWeightedMatchesSingleProcess: the fabric law holds for
// weighted campaigns — a 3-executor fleet's merged result is
// bit-identical to the single-process run, weighted early stop
// re-decision included, and the uploads land gzip-compressed at rest.
// The registry itself must decide the weighted stop and cancel the
// slices past it.
func TestFabricWeightedMatchesSingleProcess(t *testing.T) {
	r, srv, f, built, dir := startRegistry(t, weightedDoc, 4, time.Minute, nil)
	want := singleProcess(t, f, built)
	if !want["rare"].EarlyStopped {
		t.Fatal("want a weighted early-stopping reference run")
	}
	if want["rare"].Weights == nil {
		t.Fatal("reference run carries no weight moments")
	}
	runExecutors(t, srv.URL, 3)
	waitDone(t, r)
	got := mergeAll(t, dir, f, built)
	if !reflect.DeepEqual(want["rare"], got["rare"]) {
		t.Errorf("weighted fabric merge diverged:\nwant %+v\ngot  %+v", want["rare"], got["rare"])
	}

	// Uploaded partials are stored compressed at rest.
	parts, err := filepath.Glob(filepath.Join(dir, "*.part*"))
	if err != nil || len(parts) == 0 {
		t.Fatalf("no stored partials (%v)", err)
	}
	for _, p := range parts {
		head := make([]byte, 2)
		fh, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fh.Read(head); err != nil {
			t.Fatal(err)
		}
		fh.Close()
		if head[0] != 0x1f || head[1] != 0x8b {
			t.Errorf("upload %s not gzip at rest (magic %x)", filepath.Base(p), head)
		}
	}

	// Early stop must have been decided by the registry, not just the
	// merge: with the stop rule firing well before 30000 trials, some
	// slices past the stopping shard must have been cancelled. Three
	// executors may lease, or even upload, those slices before the
	// covering slice lands, so this runs on a second registry whose one
	// executor leases the slices in order.
	r1, srv1, _, _, dir1 := startRegistry(t, weightedDoc, 4, time.Minute, nil)
	runExecutors(t, srv1.URL, 1)
	waitDone(t, r1)
	cancelled := 0
	for _, jb := range r1.Status().Jobs {
		for _, e := range jb.Entries {
			for _, s := range e.Slices {
				if s.State == sliceCancelled {
					cancelled++
				}
			}
		}
	}
	if cancelled == 0 {
		t.Error("registry cancelled no slices despite a weighted early stop")
	}
	if got1 := mergeAll(t, dir1, f, built); !reflect.DeepEqual(want["rare"], got1["rare"]) {
		t.Errorf("one-executor weighted fabric merge diverged:\nwant %+v\ngot  %+v", want["rare"], got1["rare"])
	}
}
