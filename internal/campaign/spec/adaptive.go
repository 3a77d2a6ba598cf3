package spec

import (
	"fmt"
	"math"

	"repro/internal/campaign"
)

// Adaptive is the file-level adaptive-allocation block:
//
//	"adaptive": {"round_trials": 20000, "max_rounds": 8}
//
// Instead of running every scenario to its full trial count,
// RunAdaptive interleaves them in rounds: each round distributes
// round_trials across the scenarios still short of their stop rule,
// in proportion to their squared relative errors (campaign.Allocate),
// then re-merges and re-decides each stop. Scenarios whose stop rule
// fires drop out; the loop ends when all are done or after max_rounds
// (default 16). Results for scenarios that ran out of budget cover
// the executed prefix (campaign.MergeConfig.AllowIncomplete). The
// whole loop is deterministic for a fixed spec: allocations are
// computed from deterministic merges and trials are bit-identical to
// the single-process stream.
type Adaptive struct {
	// RoundTrials is the trial budget distributed each round.
	RoundTrials int `json:"round_trials"`
	// MaxRounds bounds the loop; 0 means the default of 16.
	MaxRounds int `json:"max_rounds,omitempty"`
}

// defaultMaxRounds bounds an adaptive run whose spec does not say.
const defaultMaxRounds = 16

// adaptiveCell tracks one scenario through the adaptive rounds.
type adaptiveCell struct {
	b    *Built
	plan *campaign.Plan
	path string // partial artifact (the cell's cumulative state)
	ecfg campaign.Config
}

// state evaluates the cell's current estimate from its artifact: the
// folded prefix result (nil before the first round), whether the stop
// rule is satisfied or the trial budget exhausted, and the relative
// error the allocator weighs.
func (c *adaptiveCell) state(dir string) (campaign.CellState, *campaign.Result, error) {
	st := campaign.CellState{Name: c.b.Entry.Name, RelErr: math.Inf(1)}
	p, err := campaign.ReadPartial(c.path)
	if err != nil {
		return st, nil, err
	}
	if p == nil {
		return st, nil, nil
	}
	defer p.Close()
	res, err := campaign.Merge([]*campaign.Partial{p}, campaign.MergeConfig{
		Stop:            c.ecfg.Stop,
		ParamsDigest:    c.ecfg.ParamsDigest,
		AllowIncomplete: true,
	})
	if err != nil {
		return st, nil, err
	}
	st.Trials = res.Trials
	// A merge that early-stopped found the stop satisfied on the
	// executed prefix; a merge covering every requested trial is done
	// regardless.
	st.Done = res.EarlyStopped || res.Trials >= res.Requested
	z := c.ecfg.Stop.Z
	if z == 0 {
		z = 1.96
	}
	st.RelErr = res.RelErr(c.ecfg.Stop.Counter, z)
	return st, res, nil
}

// RunAdaptive executes every built entry under the file's adaptive
// block, writing each scenario's cumulative state as a partial
// artifact under dir, and returns the final merged results aligned
// with builts. logf (optional) receives one progress line per round.
func RunAdaptive(f *File, builts []*Built, dir string, logf func(format string, args ...any)) ([]*campaign.Result, error) {
	ad := f.Adaptive
	if ad == nil {
		return nil, fmt.Errorf("spec: RunAdaptive needs an adaptive block")
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	maxRounds := ad.MaxRounds
	if maxRounds == 0 {
		maxRounds = defaultMaxRounds
	}

	cells := make([]*adaptiveCell, len(builts))
	for i, b := range builts {
		ecfg := b.EngineConfig(f)
		if ecfg.Stop == nil {
			return nil, fmt.Errorf("spec: %s: adaptive allocation requires a stop rule", b.Entry.Name)
		}
		plan, err := campaign.NewPlan(b.Scenario, ecfg.ShardSize, campaign.Whole)
		if err != nil {
			return nil, fmt.Errorf("spec: %s: %w", b.Entry.Name, err)
		}
		plan.ParamsDigest = ecfg.ParamsDigest
		cells[i] = &adaptiveCell{
			b:    b,
			plan: plan,
			path: b.Entry.PartialPath(dir, campaign.Whole),
			ecfg: ecfg,
		}
	}

	for round := 1; round <= maxRounds; round++ {
		states := make([]campaign.CellState, len(cells))
		for i, c := range cells {
			st, _, err := c.state(dir)
			if err != nil {
				return nil, fmt.Errorf("spec: %s: %w", c.b.Entry.Name, err)
			}
			states[i] = st
		}
		alloc := campaign.Allocate(states, ad.RoundTrials)
		open := 0
		for _, a := range alloc {
			if a > 0 {
				open++
			}
		}
		if open == 0 {
			logf("adaptive: round %d: all scenarios satisfied their stop rules", round)
			break
		}
		for i, c := range cells {
			if alloc[i] == 0 {
				continue
			}
			shards := (alloc[i] + c.plan.ShardSize - 1) / c.plan.ShardSize
			logf("adaptive: round %d: %s gets %d trials (%d shards; rel err %.3g over %d trials)",
				round, c.b.Entry.Name, alloc[i], shards, states[i].RelErr, states[i].Trials)
			partial, err := campaign.Execute(c.b.Scenario, c.plan, campaign.ExecConfig{
				Workers:   c.ecfg.Workers,
				Artifact:  c.path,
				Stop:      c.ecfg.Stop,
				MaxShards: shards,
			})
			if err != nil {
				return nil, fmt.Errorf("spec: %s: %w", c.b.Entry.Name, err)
			}
			partial.Close()
		}
	}

	results := make([]*campaign.Result, len(cells))
	for i, c := range cells {
		st, res, err := c.state(dir)
		if err != nil {
			return nil, fmt.Errorf("spec: %s: %w", c.b.Entry.Name, err)
		}
		if res == nil {
			return nil, fmt.Errorf("spec: %s: adaptive run produced no trials", c.b.Entry.Name)
		}
		if !st.Done {
			logf("adaptive: %s exhausted the round budget at %d/%d trials (rel err %.3g)",
				c.b.Entry.Name, res.Trials, res.Requested, st.RelErr)
		}
		results[i] = res
	}
	return results, nil
}
