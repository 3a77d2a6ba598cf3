package campaign

import (
	"fmt"
	"sort"
)

// Sink consumes a merged campaign's samples and notes in trial order
// instead of accumulating them into the Result, so million-sample
// campaigns can stream straight to disk with bounded memory.
type Sink interface {
	// Start is called once, after counters, trial bookkeeping and the
	// early-stop decision are final but before any samples, with the
	// Result whose Samples and Notes fields are nil.
	Start(res *Result) error
	// Sample receives each sample in trial order.
	Sample(s Sample) error
	// Note receives each note in trial order.
	Note(n Note) error
}

// MergeConfig tunes how partials fold into a Result.
type MergeConfig struct {
	// Stop re-applies the campaign's early-stop rule on the contiguous
	// global shard prefix. It must be the same rule the single-process
	// run would use: partitioned executors over-run a would-be stopping
	// point (they cannot see the global prefix), and the merger
	// truncates the result at the deterministic stopping shard, so the
	// merged Result is bit-identical to the single-process one.
	Stop *EarlyStop
	// Sink, when non-nil, receives samples and notes in trial order
	// and the Result's Samples/Notes fields stay nil (the
	// bounded-memory path); otherwise they accumulate in the Result.
	Sink Sink
	// ParamsDigest, when set, is the digest of the scenario parameter
	// set the caller is merging FOR (the current spec entry): any
	// partial carrying a different digest is a stale artifact from an
	// edited spec and the merge is refused. Partials without a digest
	// (pre-digest artifacts) pass — the documented caveat.
	ParamsDigest string
}

// Merge folds any set of partial results — from one process or many —
// into the Result a single-process run would produce. It validates
// that the partials share one campaign fingerprint (scenario, trial
// count, shard size) and partition count, that their shard sets are
// disjoint and lie inside their declared partition ranges, and that
// together they cover every shard up to the campaign's end (or its
// deterministic early-stop point). Shards are folded in global index
// order, so counters, samples and notes are bit-identical to the
// single-process merge.
func Merge(partials []*Partial, cfg MergeConfig) (*Result, error) {
	if len(partials) == 0 {
		return nil, fmt.Errorf("campaign: no partials to merge")
	}
	if cfg.Stop != nil {
		if err := cfg.Stop.validate(); err != nil {
			return nil, err
		}
	}
	sorted := make([]*Partial, len(partials))
	copy(sorted, partials)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].header.PartitionIndex < sorted[j].header.PartitionIndex
	})

	head := sorted[0].header
	numShards := head.numShards()
	owner := make(map[int]*Partial, numShards)
	// The digest check is pairwise-transitive via the first non-empty
	// digest seen: pre-digest partials (empty digest) are compatible
	// with everything, but two partials carrying different digests —
	// or one contradicting the caller's expected digest — mean some
	// shards were computed under edited params and must not merge.
	digestHolder := partialHeader{ParamsDigest: cfg.ParamsDigest}
	for _, p := range sorted {
		h := p.header
		if !h.geometryMatches(head) {
			return nil, fmt.Errorf("campaign: partial %s is from campaign %q, want %q", describePartial(p), h.fingerprint(), head.fingerprint())
		}
		if h.Version != head.Version {
			return nil, fmt.Errorf("campaign: partial %s has artifact version %d, want %d: weighted and unweighted partials cannot merge",
				describePartial(p), h.Version, head.Version)
		}
		if h.digestConflicts(digestHolder) {
			return nil, fmt.Errorf("campaign: partial %s was computed under different scenario params (digest %s, want %s): it is stale — recompute it or revert the spec edit",
				describePartial(p), h.ParamsDigest, digestHolder.ParamsDigest)
		}
		if h.ParamsDigest != "" {
			digestHolder.ParamsDigest = h.ParamsDigest
		}
		if h.PartitionCount != head.PartitionCount {
			return nil, fmt.Errorf("campaign: partial %s declares %d partitions, want %d", describePartial(p), h.PartitionCount, head.PartitionCount)
		}
		// Shards must lie inside the partial's declared contiguous
		// partition range (the planner's shardRange) and be claimed by
		// exactly one partial.
		first, end := h.partition().shardRange(numShards)
		for _, idx := range p.Shards() {
			if idx < first || idx >= end {
				return nil, fmt.Errorf("campaign: partial %s holds shard %d outside partition %s range [%d, %d)",
					describePartial(p), idx, h.partition(), first, end)
			}
			if prev, dup := owner[idx]; dup {
				return nil, fmt.Errorf("campaign: shard %d appears in partials %s and %s", idx, describePartial(prev), describePartial(p))
			}
			owner[idx] = p
		}
	}

	// Pass 1: fold counters in shard order and decide the early stop
	// on the contiguous prefix, exactly as a single-process run does.
	// A shard missing before the stopping point (or the end) means the
	// partition set is incomplete.
	fold := newPrefixFold(head, cfg.Stop)
	for !fold.stopped && fold.next < numShards {
		p, ok := owner[fold.next]
		if !ok {
			return nil, fmt.Errorf("campaign: %s: incomplete merge: shard %d of %d missing from the %d given partial(s)",
				head.Scenario, fold.next, numShards, len(partials))
		}
		if err := fold.Advance(p); err != nil {
			return nil, err
		}
	}
	useShards := fold.next

	resumed := 0
	for _, p := range sorted {
		resumed += p.resumed
	}
	_, trials := shardSpan(useShards-1, head.ShardSize, head.Trials)
	res := &Result{
		Scenario:      head.Scenario,
		Requested:     head.Trials,
		Trials:        trials,
		EarlyStopped:  fold.stopped && useShards < numShards,
		ResumedTrials: resumed,
		// The fold stops at the stopping shard, so the totals cover
		// exactly [0, useShards).
		Counters: fold.counters,
		Weights:  fold.weights,
	}

	// Pass 2: stream samples and notes in shard (= trial) order,
	// re-reading spilled records from their artifacts on demand.
	if cfg.Sink != nil {
		if err := cfg.Sink.Start(res); err != nil {
			return nil, err
		}
	}
	for i := 0; i < useShards; i++ {
		rec, err := owner[i].load(i)
		if err != nil {
			return nil, err
		}
		if cfg.Sink == nil {
			res.Samples = append(res.Samples, rec.Samples...)
			res.Notes = append(res.Notes, rec.Notes...)
			continue
		}
		for _, s := range rec.Samples {
			if err := cfg.Sink.Sample(s); err != nil {
				return nil, err
			}
		}
		for _, n := range rec.Notes {
			if err := cfg.Sink.Note(n); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// describePartial names a partial for error messages.
func describePartial(p *Partial) string {
	if p.path != "" {
		return p.path
	}
	return fmt.Sprintf("partition %s (in memory)", p.header.partition())
}
