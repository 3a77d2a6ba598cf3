package main

import (
	"sync"
	"time"

	"repro/internal/campaign"
)

// trialLog collects the wall time of every Worker.Trial call made
// through the timed scenarios that share it, keyed by layer ("memsim",
// "pagesim", "mbusim", "analytic"). Workers append to their own slice;
// the log only locks when a worker is created and when it is read.
type trialLog struct {
	mu      sync.Mutex
	workers map[string][]*timedWorker
}

func newTrialLog() *trialLog {
	return &trialLog{workers: make(map[string][]*timedWorker)}
}

// durations returns every trial duration recorded for a layer. Call it
// only after the campaigns that used the log have returned.
func (l *trialLog) durations(layer string) []time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []time.Duration
	for _, w := range l.workers[layer] {
		out = append(out, w.times...)
	}
	return out
}

// count returns the number of trials recorded across all layers.
func (l *trialLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, ws := range l.workers {
		for _, w := range ws {
			n += len(w.times)
		}
	}
	return n
}

// timedScenario decorates a campaign.Scenario so that every trial its
// workers run is timed into a trialLog.
type timedScenario struct {
	campaign.Scenario
	layer string
	log   *trialLog
}

// timedWeightedScenario is the decorator for scenarios whose trials
// carry importance-sampling weights. The planner only sees the weighted
// flag through the campaign.WeightedScenario interface, so dropping it
// would silently plan the decorated campaign with unit weights.
type timedWeightedScenario struct {
	timedScenario
	weighted campaign.WeightedScenario
}

func (s timedWeightedScenario) Weighted() bool { return s.weighted.Weighted() }

// timeScenario wraps scn so its trials are timed under layer.
func timeScenario(scn campaign.Scenario, layer string, log *trialLog) campaign.Scenario {
	ts := timedScenario{Scenario: scn, layer: layer, log: log}
	if ws, ok := scn.(campaign.WeightedScenario); ok {
		return timedWeightedScenario{timedScenario: ts, weighted: ws}
	}
	return ts
}

func (s timedScenario) NewWorker() (campaign.Worker, error) {
	inner, err := s.Scenario.NewWorker()
	if err != nil {
		return nil, err
	}
	w := &timedWorker{inner: inner}
	s.log.mu.Lock()
	s.log.workers[s.layer] = append(s.log.workers[s.layer], w)
	s.log.mu.Unlock()
	return w, nil
}

// timedWorker times each trial of the worker it wraps. The engine
// calls one worker from one goroutine, so times needs no lock.
type timedWorker struct {
	inner campaign.Worker
	times []time.Duration
}

func (w *timedWorker) Trial(trial int, acc *campaign.Acc) error {
	start := time.Now()
	err := w.inner.Trial(trial, acc)
	w.times = append(w.times, time.Since(start))
	return err
}

// kindLayer names the trial-timing layer of a spec kind.
func kindLayer(kind string) string {
	switch kind {
	case "interleave":
		return "pagesim"
	case "bercurve", "tradeoff":
		return "analytic"
	}
	return kind
}
