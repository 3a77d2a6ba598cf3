package campaign

import "fmt"

// PrefixFold folds completed shards in global shard order and decides
// a campaign's early stop. It sums counters and recorded weight moments
// over the contiguous shard prefix [0, Next()) and, after each shard,
// evaluates the stop rule on the prefix totals: the Wilson interval for
// unit-weight campaigns, the weighted relative error for weighted ones,
// both behind the per-trial guard. The single-process executor, Merge
// and the fabric registry all decide the stop through it, so no two
// layers can disagree on where a campaign stops. A PrefixFold is not
// safe for concurrent use.
type PrefixFold struct {
	head     partialHeader
	stop     *EarlyStop
	next     int
	stopped  bool
	counters map[string]int64
	weights  map[string]Moments // nil for unit-weight campaigns
}

// NewPrefixFold starts an empty fold over the campaign the plan (any
// partition of it) belongs to. With a nil stop the fold never stops.
func NewPrefixFold(plan *Plan, stop *EarlyStop) *PrefixFold {
	return newPrefixFold(plan.header(), stop)
}

func newPrefixFold(head partialHeader, stop *EarlyStop) *PrefixFold {
	f := &PrefixFold{head: head, stop: stop, counters: make(map[string]int64)}
	if head.Version == partialVersionWeighted {
		f.weights = make(map[string]Moments)
	}
	return f
}

// Next returns the first shard not yet folded, which is also the
// number of shards in the prefix.
func (f *PrefixFold) Next() int { return f.next }

// Stopped reports whether the stop rule fired on shard Next()-1.
func (f *PrefixFold) Stopped() bool { return f.stopped }

// Advance folds p's completed shards from Next() on, in order, until p
// lacks the next shard or the stop rule fires. It returns an error when
// the stop counter cannot drive the rule: a counter that exceeds one
// event per trial is not a binomial proportion, and in a weighted
// campaign a counter recorded without weight moments (Acc.Add instead
// of Acc.AddWeighted) has no weighted estimator. Both refusals depend
// only on the prefix contents, so every layer reports them at the same
// shard.
func (f *PrefixFold) Advance(p *Partial) error {
	for !f.stopped && p.has(f.next) {
		i := f.next
		for k, v := range p.counters[i] {
			f.counters[k] += v
		}
		if f.weights != nil {
			// Only counters recorded via AddWeighted carry moments;
			// diagnostics folded with Add stay integer-only.
			for k, m := range p.weights[i] {
				w := f.weights[k]
				w.add(m)
				f.weights[k] = w
			}
		}
		f.next++
		if f.stop == nil {
			continue
		}
		fired, err := f.decide()
		if err != nil {
			return err
		}
		f.stopped = fired
	}
	return nil
}

// decide evaluates the stop rule on the prefix [0, next).
func (f *PrefixFold) decide() (bool, error) {
	s := f.stop
	_, trials := shardSpan(f.next-1, f.head.ShardSize, f.head.Trials)
	successes := f.counters[s.Counter]
	if err := checkBinomial(f.head.Scenario, s.Counter, successes, trials); err != nil {
		return false, err
	}
	if f.weights == nil {
		return s.satisfied(successes, trials), nil
	}
	m, ok := f.weights[s.Counter]
	if !ok && successes > 0 {
		return false, fmt.Errorf("campaign: %s: early-stop counter %q carries no weight moments in a weighted campaign (%d events over %d trials); only counters recorded with AddWeighted can stop one",
			f.head.Scenario, s.Counter, successes, trials)
	}
	return s.satisfiedWeighted(m, trials), nil
}

// checkBinomial guards the early-stop rule: a counter that increments
// more than once per trial is not a binomial proportion; the Wilson
// width would be NaN and the stop rule would silently never fire.
func checkBinomial(scenario, counter string, successes int64, trials int) error {
	if successes > int64(trials) {
		return fmt.Errorf("campaign: %s: early-stop counter %q is not per-trial (%d over %d trials)",
			scenario, counter, successes, trials)
	}
	return nil
}
