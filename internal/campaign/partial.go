package campaign

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// Partial-result artifact format. Version 2 is an append-only JSON
// Lines file: a header line identifying the campaign geometry and the
// partition, followed by one line per completed shard. Appending a
// shard is O(shard), not O(campaign), which is what lets the executor
// spill samples to disk as shards complete instead of re-marshaling a
// growing checkpoint — the bounded-memory path for million-sample
// campaigns. A torn final line (crash mid-append) is dropped on read
// and truncated away before the next append, so the file is always
// resumable. Version 3 is version 2 plus per-shard weight moments for
// importance-sampled campaigns; version-2 files load as unit-weight
// (nil moments). The version-1 single-object checkpoint of earlier
// releases is refused.
//
// Artifacts may also be stored gzip-compressed at rest (the fabric
// coordinator's format): readPartial sniffs the gzip magic bytes and
// decompresses transparently. Compressed artifacts are read-only —
// they merge and adopt normally but refuse resume-appending.
const (
	partialVersion         = 2
	partialVersionWeighted = 3
)

// appendGzip is the appendAt value readPartial returns for a gzip
// artifact, which is read-only at rest.
const appendGzip = -2

// partialHeader is the first line of a version-2 artifact.
type partialHeader struct {
	Version   int    `json:"version"`
	Scenario  string `json:"scenario"`
	Trials    int    `json:"trials"`
	ShardSize int    `json:"shard_size"`
	// PartitionIndex/PartitionCount record which slice of the shard
	// range this artifact holds (0/1 for a single-process campaign).
	PartitionIndex int `json:"partition_index"`
	PartitionCount int `json:"partition_count"`
	// ParamsDigest is an optional deterministic digest of the full
	// scenario parameter set, supplied by layers above the engine (the
	// spec package digests each entry's kind+params). It closes the
	// resume hole where an edit to a spec entry's params that a
	// scenario's Name does not encode would let stale shards merge
	// silently. Artifacts written before the field existed carry ""
	// and digests compare only when both sides have one, so old
	// partials stay loadable and resumable — with the documented
	// caveat that params edits are not detected against them.
	ParamsDigest string `json:"params_digest,omitempty"`
}

func (h partialHeader) fingerprint() string {
	fp := fmt.Sprintf("%s|trials=%d|shard=%d", h.Scenario, h.Trials, h.ShardSize)
	if h.ParamsDigest != "" {
		fp += "|params=" + h.ParamsDigest
	}
	return fp
}

// geometryMatches reports whether two headers agree on the
// digest-independent campaign identity (scenario, trials, shard size).
func (h partialHeader) geometryMatches(o partialHeader) bool {
	return h.Scenario == o.Scenario && h.Trials == o.Trials && h.ShardSize == o.ShardSize
}

// digestConflicts reports whether two headers carry contradicting
// params digests. Empty digests (pre-digest artifacts, or engines run
// without a spec layer) never conflict.
func (h partialHeader) digestConflicts(o partialHeader) bool {
	return h.ParamsDigest != "" && o.ParamsDigest != "" && h.ParamsDigest != o.ParamsDigest
}

func (h partialHeader) partition() Partition {
	return Partition{Index: h.PartitionIndex, Count: h.PartitionCount}
}

func (h partialHeader) numShards() int {
	return (h.Trials + h.ShardSize - 1) / h.ShardSize
}

// shardRecord is one completed shard on the wire (and the in-memory
// record of an artifact-less execution). Weights is the version-3
// extension: per-counter weight moments, absent for unit-weight
// shards so version-2 bytes are unchanged.
type shardRecord struct {
	Index    int                   `json:"index"`
	Counters map[string]int64      `json:"counters,omitempty"`
	Weights  map[string]momentWire `json:"weights,omitempty"`
	Samples  []Sample              `json:"samples,omitempty"`
	Notes    []Note                `json:"notes,omitempty"`
}

// momentWire is the JSON form of Moments: strconv-formatted strings
// for the same reason as sampleWire — FormatFloat('g', -1) round-trips
// every float64 bit pattern exactly, which the merge-equals-single-
// process guarantee extends to weight moments.
type momentWire struct {
	WSum  string `json:"wsum"`
	WSum2 string `json:"wsum2"`
}

// wireWeights converts in-memory moments to their wire form (nil in,
// nil out, keeping unit-weight records weightless).
func wireWeights(m map[string]Moments) map[string]momentWire {
	if m == nil {
		return nil
	}
	out := make(map[string]momentWire, len(m))
	for k, v := range m {
		out[k] = momentWire{
			WSum:  strconv.FormatFloat(v.WSum, 'g', -1, 64),
			WSum2: strconv.FormatFloat(v.WSum2, 'g', -1, 64),
		}
	}
	return out
}

// parseWeights converts wire moments back (nil in, nil out).
func parseWeights(m map[string]momentWire) (map[string]Moments, error) {
	if m == nil {
		return nil, nil
	}
	out := make(map[string]Moments, len(m))
	for k, v := range m {
		wsum, err := strconv.ParseFloat(v.WSum, 64)
		if err != nil {
			return nil, fmt.Errorf("campaign: weight wsum %q: %w", v.WSum, err)
		}
		wsum2, err := strconv.ParseFloat(v.WSum2, 64)
		if err != nil {
			return nil, fmt.Errorf("campaign: weight wsum2 %q: %w", v.WSum2, err)
		}
		out[k] = Moments{WSum: wsum, WSum2: wsum2}
	}
	return out, nil
}

// sampleWire is the JSON form of Sample, as UnmarshalJSON reads it
// (sampleLayout writes it). Coordinates travel as
// strconv-formatted strings because campaigns legitimately record
// non-finite values (an MTTDL of +Inf, say) that encoding/json
// refuses to emit as numbers; FormatFloat('g', -1) round-trips every
// float64 bit pattern exactly, which the merge-equals-single-process
// guarantee depends on.
type sampleWire struct {
	Trial  int    `json:"trial"`
	Series string `json:"series"`
	X      string `json:"x"`
	Y      string `json:"y"`
}

// MarshalJSON implements json.Marshaler. It writes the bytes
// json.Marshal writes for the sample's sampleWire, through the same
// appender as AppendResultJSON's samples array.
func (s Sample) MarshalJSON() ([]byte, error) {
	return compactSample.append(make([]byte, 0, 64), s), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (s *Sample) UnmarshalJSON(data []byte) error {
	var w sampleWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	x, err := strconv.ParseFloat(w.X, 64)
	if err != nil {
		return fmt.Errorf("campaign: sample x %q: %w", w.X, err)
	}
	y, err := strconv.ParseFloat(w.Y, 64)
	if err != nil {
		return fmt.Errorf("campaign: sample y %q: %w", w.Y, err)
	}
	s.Trial, s.Series, s.X, s.Y = w.Trial, w.Series, x, y
	return nil
}

// Partial is one partition's executed output: per-shard counters
// (always resident — they are small and drive early stopping and
// merge validation) plus per-shard samples and notes, held in memory
// for artifact-less executions and lazily re-read from the artifact
// file otherwise, so a file-backed Partial's memory footprint is
// independent of the campaign's sample volume. A Partial is not safe
// for concurrent use.
type Partial struct {
	header  partialHeader
	resumed int // trials restored from a pre-existing artifact

	counters map[int]map[string]int64
	weights  map[int]map[string]Moments // per-shard weight moments (nil maps for unit-weight shards)
	mem      map[int]*shardRecord       // artifact-less (or gzip-loaded) records
	loc      map[int][2]int64           // file-backed record {offset, length}

	path string
	file *os.File // lazily opened read handle for load
}

// Path returns the artifact file backing the partial ("" when it was
// executed without one).
func (p *Partial) Path() string { return p.path }

// ResumedTrials returns the number of trials restored from a
// pre-existing artifact rather than executed.
func (p *Partial) ResumedTrials() int { return p.resumed }

// Shards returns the sorted indices of the completed shards.
func (p *Partial) Shards() []int {
	out := make([]int, 0, len(p.counters))
	for i := range p.counters {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// DoneTrials returns the number of trials covered by completed shards.
func (p *Partial) DoneTrials() int {
	done := 0
	for i := range p.counters {
		lo, hi := p.shardSpan(i)
		done += hi - lo
	}
	return done
}

func (p *Partial) shardSpan(idx int) (lo, hi int) {
	return shardSpan(idx, p.header.ShardSize, p.header.Trials)
}

// has reports whether shard idx is complete in this partial.
func (p *Partial) has(idx int) bool {
	_, ok := p.counters[idx]
	return ok
}

// load returns the full record of one completed shard, re-reading it
// from the artifact when it was spilled.
func (p *Partial) load(idx int) (*shardRecord, error) {
	if rec, ok := p.mem[idx]; ok {
		return rec, nil
	}
	loc, ok := p.loc[idx]
	if !ok {
		return nil, fmt.Errorf("campaign: partial %s has no shard %d", describePartial(p), idx)
	}
	if p.file == nil {
		f, err := os.Open(p.path)
		if err != nil {
			return nil, fmt.Errorf("campaign: reopen partial: %w", err)
		}
		p.file = f
	}
	buf := make([]byte, loc[1])
	if _, err := p.file.ReadAt(buf, loc[0]); err != nil {
		return nil, fmt.Errorf("campaign: read partial %s shard %d: %w", p.path, idx, err)
	}
	var rec shardRecord
	if err := json.Unmarshal(buf, &rec); err != nil {
		return nil, fmt.Errorf("campaign: parse partial %s shard %d: %w", p.path, idx, err)
	}
	if rec.Index != idx {
		return nil, fmt.Errorf("campaign: partial %s record at offset %d is shard %d, want %d", p.path, loc[0], rec.Index, idx)
	}
	return &rec, nil
}

// MatchesPlan validates that this partial is the output of exactly the
// given plan: same campaign geometry (scenario, trials, shard size),
// same partition, no params-digest conflict, and every completed shard
// inside the plan's range. It is the upload-acceptance check of the
// fabric coordinator — a partial that passes can be handed to Merge
// alongside the plan's siblings without further identity checks.
func (p *Partial) MatchesPlan(plan *Plan) error {
	h := plan.header()
	if !p.header.geometryMatches(h) || p.header.partition() != h.partition() {
		return fmt.Errorf("campaign: partial %s is for scenario %q (%d trials, shard %d, partition %s), want %q (%d trials, shard %d, partition %s)",
			describePartial(p), p.header.Scenario, p.header.Trials, p.header.ShardSize, p.header.partition(),
			plan.Scenario, plan.Trials, plan.ShardSize, plan.Part)
	}
	if p.header.Version != h.Version {
		return fmt.Errorf("campaign: partial %s has artifact version %d, want %d",
			describePartial(p), p.header.Version, h.Version)
	}
	if p.header.digestConflicts(h) {
		return fmt.Errorf("campaign: partial %s was computed under different scenario params (digest %s, want %s)",
			describePartial(p), p.header.ParamsDigest, h.ParamsDigest)
	}
	for idx := range p.counters {
		if idx < plan.First || idx >= plan.End {
			return fmt.Errorf("campaign: partial %s holds shard %d outside partition %s range [%d, %d)",
				describePartial(p), idx, plan.Part, plan.First, plan.End)
		}
	}
	return nil
}

// Complete reports whether the partial holds every shard of the
// plan's range — the difference between an upload that finished its
// slice and one that was truncated in flight.
func (p *Partial) Complete(plan *Plan) bool {
	for idx := plan.First; idx < plan.End; idx++ {
		if !p.has(idx) {
			return false
		}
	}
	return true
}

// WriteTo serializes the partial as a version-2 JSONL artifact —
// header line plus one record per completed shard in shard order —
// which is also the fabric's upload wire format: bytes written by
// WriteTo round-trip through OpenPartial into an equal partial.
// File-backed records are re-read from the artifact on demand, so
// streaming a spilled partial does not re-materialize its samples.
func (p *Partial) WriteTo(w io.Writer) (int64, error) {
	head, err := json.Marshal(p.header)
	if err != nil {
		return 0, fmt.Errorf("campaign: encode partial header: %w", err)
	}
	var written int64
	n, err := w.Write(append(head, '\n'))
	written += int64(n)
	if err != nil {
		return written, err
	}
	for _, idx := range p.Shards() {
		rec, err := p.load(idx)
		if err != nil {
			return written, err
		}
		line, err := json.Marshal(rec)
		if err != nil {
			return written, fmt.Errorf("campaign: encode shard %d: %w", idx, err)
		}
		n, err := w.Write(append(line, '\n'))
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// Close releases the artifact read handle (a no-op for in-memory
// partials). The Partial must not be used afterwards.
func (p *Partial) Close() error {
	if p.file == nil {
		return nil
	}
	err := p.file.Close()
	p.file = nil
	return err
}

// newMemPartial builds an empty artifact-less partial for a plan.
func newMemPartial(plan *Plan) *Partial {
	return &Partial{
		header:   plan.header(),
		counters: make(map[int]map[string]int64),
		mem:      make(map[int]*shardRecord),
	}
}

// record stores a completed shard in memory.
func (p *Partial) record(rec *shardRecord) error {
	w, err := parseWeights(rec.Weights)
	if err != nil {
		return err
	}
	p.counters[rec.Index] = rec.Counters
	if w != nil {
		if p.weights == nil {
			p.weights = make(map[int]map[string]Moments)
		}
		p.weights[rec.Index] = w
	}
	if p.mem != nil {
		p.mem[rec.Index] = rec
	}
	return nil
}

// OpenPartial reads a partial-result artifact (version 2 or 3) for
// merging. A plain JSONL file keeps only per-shard counters resident
// (samples are re-read on demand); a gzip-compressed one loads fully
// into memory.
func OpenPartial(path string) (*Partial, error) {
	p, _, err := readPartial(path)
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("campaign: partial %s does not exist", path)
	}
	return p, nil
}

// readPartial loads an artifact in any format. It returns the
// partial, the byte offset at which a plain JSONL file's next append
// belongs (the end of the last complete record — a torn tail is
// excluded), and nil, nil, nil for a missing file. Gzip-compressed
// files return appendGzip (read-only at rest).
func readPartial(path string) (*Partial, int64, error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("campaign: read partial: %w", err)
	}
	defer f.Close()

	br := bufio.NewReaderSize(f, 1<<16)
	gzipped := false
	if magic, _ := br.Peek(2); len(magic) == 2 && magic[0] == 0x1f && magic[1] == 0x8b {
		zr, zerr := gzip.NewReader(br)
		if zerr != nil {
			return nil, 0, fmt.Errorf("campaign: decompress partial %s: %w", path, zerr)
		}
		defer zr.Close()
		br = bufio.NewReaderSize(zr, 1<<16)
		gzipped = true
	}
	first, err := br.ReadBytes('\n')
	if err != nil && err != io.EOF {
		return nil, 0, fmt.Errorf("campaign: read partial %s: %w", path, err)
	}
	trimmed := bytes.TrimSpace(first)
	if len(trimmed) == 0 {
		return nil, 0, fmt.Errorf("campaign: partial %s is empty", path)
	}

	var header partialHeader
	if uerr := json.Unmarshal(trimmed, &header); uerr != nil {
		return nil, 0, fmt.Errorf("campaign: parse partial %s: %v", path, uerr)
	}
	if header.Version == 0 {
		return nil, 0, fmt.Errorf("campaign: partial %s has no version field", path)
	}
	switch header.Version {
	case partialVersion, partialVersionWeighted:
		if header.Trials <= 0 || header.ShardSize <= 0 {
			return nil, 0, fmt.Errorf("campaign: partial %s has invalid geometry (%d trials, shard %d)", path, header.Trials, header.ShardSize)
		}
		if err := header.partition().validate(); err != nil {
			return nil, 0, fmt.Errorf("campaign: partial %s: %w", path, err)
		}
		p := &Partial{
			header:   header,
			counters: make(map[int]map[string]int64),
			path:     path,
		}
		if gzipped {
			// Byte offsets into the compressed file are useless for
			// on-demand re-reads, so records stay resident.
			p.mem = make(map[int]*shardRecord)
		} else {
			p.loc = make(map[int][2]int64)
		}
		numShards := header.numShards()
		offset := int64(len(first))
		appendAt := offset
		for {
			line, rerr := br.ReadBytes('\n')
			if rerr != nil && rerr != io.EOF {
				return nil, 0, fmt.Errorf("campaign: read partial %s: %w", path, rerr)
			}
			complete := len(line) > 0 && line[len(line)-1] == '\n'
			if len(bytes.TrimSpace(line)) > 0 {
				var rec shardRecord
				if uerr := json.Unmarshal(line, &rec); uerr != nil {
					if complete {
						return nil, 0, fmt.Errorf("campaign: parse partial %s at offset %d: %w", path, offset, uerr)
					}
					// Torn tail from a crash mid-append: drop it; the
					// executor recomputes the shard.
				} else if rec.Index < 0 || rec.Index >= numShards {
					return nil, 0, fmt.Errorf("campaign: partial %s has out-of-range shard %d", path, rec.Index)
				} else if complete && !p.has(rec.Index) {
					if rec.Counters == nil {
						rec.Counters = make(map[string]int64)
					}
					if err := p.record(&rec); err != nil {
						return nil, 0, fmt.Errorf("campaign: partial %s shard %d: %w", path, rec.Index, err)
					}
					if !gzipped {
						p.loc[rec.Index] = [2]int64{offset, int64(len(line))}
					}
				}
			}
			offset += int64(len(line))
			if complete {
				appendAt = offset
			}
			if rerr == io.EOF {
				break
			}
		}
		if gzipped {
			appendAt = appendGzip
		}
		return p, appendAt, nil
	}
	return nil, 0, fmt.Errorf("campaign: partial %s has version %d, want %d or %d", path, header.Version, partialVersion, partialVersionWeighted)
}

// partialAppender appends shard records to a version-2 artifact.
type partialAppender struct {
	f      *os.File
	path   string
	offset int64
}

// createPartialFile writes a fresh artifact holding only the header,
// atomically via rename, and returns an appender positioned at its
// end.
func createPartialFile(path string, header partialHeader) (*partialAppender, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("campaign: partial dir: %w", err)
	}
	head, err := json.Marshal(header)
	if err != nil {
		return nil, fmt.Errorf("campaign: encode partial header: %w", err)
	}
	head = append(head, '\n')
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, head, 0o644); err != nil {
		return nil, fmt.Errorf("campaign: write partial: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return nil, fmt.Errorf("campaign: commit partial: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign: reopen partial: %w", err)
	}
	if _, err := f.Seek(int64(len(head)), io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("campaign: seek partial: %w", err)
	}
	return &partialAppender{f: f, path: path, offset: int64(len(head))}, nil
}

// openAppender opens an existing version-2 artifact for appending at
// the given offset, truncating any torn tail beyond it.
func openAppender(path string, at int64) (*partialAppender, error) {
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign: open partial: %w", err)
	}
	if err := f.Truncate(at); err != nil {
		f.Close()
		return nil, fmt.Errorf("campaign: truncate partial tail: %w", err)
	}
	if _, err := f.Seek(at, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("campaign: seek partial: %w", err)
	}
	return &partialAppender{f: f, path: path, offset: at}, nil
}

// append writes one shard record and returns its file location. On a
// failed (possibly partial) write it truncates the file back to the
// last good record, so the artifact stays parseable and resumable
// even after a transient I/O error, and a retried append lands at the
// right offset.
func (a *partialAppender) append(rec *shardRecord) ([2]int64, error) {
	line, err := json.Marshal(rec)
	if err != nil {
		return [2]int64{}, fmt.Errorf("campaign: encode shard %d: %w", rec.Index, err)
	}
	line = append(line, '\n')
	if _, err := a.f.Write(line); err != nil {
		a.f.Truncate(a.offset)
		a.f.Seek(a.offset, io.SeekStart)
		return [2]int64{}, fmt.Errorf("campaign: append shard %d: %w", rec.Index, err)
	}
	loc := [2]int64{a.offset, int64(len(line))}
	a.offset += int64(len(line))
	return loc, nil
}

func (a *partialAppender) close() error {
	if a.f == nil {
		return nil
	}
	err := a.f.Close()
	a.f = nil
	return err
}
