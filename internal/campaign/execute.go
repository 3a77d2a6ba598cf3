package campaign

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// maxBufferedShards bounds how many completed-but-unflushed shard
// records the executor holds when an artifact is configured: it
// flushes after this many shards or about one second, whichever comes
// first (plus a final flush). Together with the spill-after-flush
// policy this caps resident sample memory at about
// maxBufferedShards * ShardSize samples regardless of campaign size.
const maxBufferedShards = 64

// ExecConfig tunes one partition's execution.
type ExecConfig struct {
	// Workers is the goroutine count; 0 means GOMAXPROCS.
	Workers int
	// Artifact is the path of the partial-result file; "" keeps the
	// partition's output in memory. When the file exists it must
	// describe the same plan (scenario, trials, shard size, partition)
	// and its completed shards are not recomputed. Once a shard record
	// has been appended to the artifact its samples and notes are
	// dropped from memory (Merge re-reads them), so a file-backed
	// execution's memory use is bounded by the flush cadence, not the
	// campaign size.
	Artifact string
	// Stop optionally ends the campaign once a counter's confidence
	// interval is narrow enough. The executor applies it only when the
	// plan covers the whole campaign (its local shard prefix is then
	// the global prefix); a partitioned executor runs its entire slice
	// — over-running a would-be stopping point — and Merge decides the
	// stop deterministically on the contiguous global prefix. Both
	// decide through a PrefixFold.
	Stop *EarlyStop
}

// Execute runs one partition of the campaign and returns its partial
// result. The shards it computes are bit-identical to the ones a
// single-process run would compute for the same indices.
func Execute(scn Scenario, plan *Plan, cfg ExecConfig) (*Partial, error) {
	if scn == nil || plan == nil {
		return nil, fmt.Errorf("campaign: nil scenario or plan")
	}
	if scn.Name() != plan.Scenario {
		return nil, fmt.Errorf("campaign: plan is for scenario %q, executing %q", plan.Scenario, scn.Name())
	}
	if cfg.Stop != nil {
		if err := cfg.Stop.validate(); err != nil {
			return nil, err
		}
	}

	partial, appender, err := preparePartial(plan, cfg.Artifact)
	if err != nil {
		return nil, err
	}
	defer func() {
		if appender != nil {
			appender.close()
		}
	}()

	var pending []int
	for i := plan.First; i < plan.End; i++ {
		if !partial.has(i) {
			pending = append(pending, i)
		}
	}

	// The early stop is decided only for a full plan, whose local
	// prefix is the global one. An artifact-restored prefix is folded
	// shard by shard exactly like live progress, so a resumed run
	// reproduces the original stopping point even when the artifact
	// holds in-flight shards beyond it.
	var (
		firstErr error
		stopFlag int64
		fold     *PrefixFold
	)
	if cfg.Stop != nil && plan.Full() {
		fold = NewPrefixFold(plan, cfg.Stop)
	}
	advancePrefix := func() {
		if fold == nil || fold.Stopped() || firstErr != nil {
			return
		}
		if err := fold.Advance(partial); err != nil {
			firstErr = err
		}
		if firstErr != nil || fold.Stopped() {
			atomic.StoreInt64(&stopFlag, 1)
		}
	}
	advancePrefix()
	if firstErr != nil || (fold != nil && fold.Stopped()) {
		// The restored prefix already decided the campaign; don't
		// start workers for shards that would be discarded anyway.
		pending = nil
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pending) {
		workers = len(pending)
	}

	var nextPending int64 = -1
	// The bounded buffer applies backpressure: workers can run at most
	// ~2x workers shards ahead of the collector, so an early-stop
	// decision (made by the collector) takes effect before cheap
	// trials race through the whole budget, and artifact appends never
	// lag unboundedly behind computed work.
	resultsCap := 2 * workers
	if resultsCap > len(pending) {
		resultsCap = len(pending)
	}
	results := make(chan shardDone, resultsCap)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker, err := scn.NewWorker()
			if err != nil {
				results <- shardDone{index: -1, err: fmt.Errorf("campaign: %s: new worker: %w", scn.Name(), err)}
				return
			}
			for {
				i := atomic.AddInt64(&nextPending, 1)
				if i >= int64(len(pending)) || atomic.LoadInt64(&stopFlag) != 0 {
					return
				}
				shard := pending[i]
				lo, hi := plan.ShardSpan(shard)
				acc := NewAcc()
				for t := lo; t < hi; t++ {
					if err := worker.Trial(t, acc); err != nil {
						atomic.StoreInt64(&stopFlag, 1)
						results <- shardDone{index: shard, err: fmt.Errorf("campaign: %s: trial %d: %w", scn.Name(), t, err)}
						return
					}
				}
				results <- shardDone{index: shard, acc: acc}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Collector: record shards, advance the contiguous prefix, decide
	// early stopping (full plans), and append to the artifact. Spilled
	// records drop their samples from memory once durably appended.
	var (
		buffered  []*shardRecord
		lastWrite = time.Now()
	)
	flushDue := func() bool {
		if appender == nil || len(buffered) == 0 {
			return false
		}
		return len(buffered) >= maxBufferedShards || time.Since(lastWrite) >= time.Second
	}
	flush := func() error {
		for i, rec := range buffered {
			loc, err := appender.append(rec)
			if err != nil {
				// Keep only the un-appended suffix so a later flush
				// (the final one runs even after errors) cannot
				// duplicate records already on disk.
				n := copy(buffered, buffered[i:])
				for j := n; j < len(buffered); j++ {
					buffered[j] = nil
				}
				buffered = buffered[:n]
				return err
			}
			partial.loc[rec.Index] = loc
			buffered[i] = nil // release the spilled samples to the GC
		}
		buffered = buffered[:0]
		lastWrite = time.Now()
		return nil
	}

	for done := range results {
		if done.err != nil {
			if firstErr == nil {
				firstErr = done.err
			}
			continue
		}
		rec := &shardRecord{
			Index:    done.index,
			Counters: done.acc.counters,
			Weights:  wireWeights(done.acc.weights),
			Samples:  done.acc.samples,
			Notes:    done.acc.notes,
		}
		if err := partial.record(rec); err != nil {
			if firstErr == nil {
				firstErr = err
				atomic.StoreInt64(&stopFlag, 1)
			}
			continue
		}
		if appender != nil {
			buffered = append(buffered, rec)
		}
		advancePrefix()
		if flushDue() {
			if err := flush(); err != nil && firstErr == nil {
				firstErr = err
				atomic.StoreInt64(&stopFlag, 1)
			}
		}
	}

	// Flush remaining progress (including partial progress before an
	// error) so an aborted campaign resumes where it stopped.
	if err := flush(); err != nil && firstErr == nil {
		firstErr = err
	}
	if appender != nil {
		if err := appender.close(); err != nil && firstErr == nil {
			firstErr = err
		}
		appender = nil
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return partial, nil
}

// preparePartial builds the partition's output store: an in-memory
// partial when no artifact is configured, otherwise the existing
// artifact (validated against the plan) or a freshly created one,
// opened for appending.
func preparePartial(plan *Plan, artifact string) (*Partial, *partialAppender, error) {
	if artifact == "" {
		return newMemPartial(plan), nil, nil
	}
	existing, appendAt, err := readPartial(artifact)
	if err != nil {
		return nil, nil, err
	}
	header := plan.header()
	if existing == nil {
		p := &Partial{
			header:   header,
			counters: make(map[int]map[string]int64),
			loc:      make(map[int][2]int64),
			path:     artifact,
		}
		appender, err := createPartialFile(artifact, header)
		if err != nil {
			return nil, nil, err
		}
		return p, appender, nil
	}
	// Resuming an artifact of another plan, or one computed under
	// since-edited params, would mix two campaigns' shards.
	if err := existing.MatchesPlan(plan); err != nil {
		return nil, nil, err
	}
	if appendAt == appendGzip {
		return nil, nil, fmt.Errorf("campaign: partial %s is gzip-compressed (read-only at rest): decompress it or choose a new checkpoint path", artifact)
	}
	existing.resumed = existing.DoneTrials()
	appender, err := openAppender(artifact, appendAt)
	if err != nil {
		return nil, nil, err
	}
	return existing, appender, nil
}

// shardDone is one completed shard travelling from a worker to the
// collector.
type shardDone struct {
	index int
	acc   *Acc
	err   error
}
