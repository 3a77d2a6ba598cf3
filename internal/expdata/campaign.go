package expdata

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/campaign"
	"repro/internal/textplot"
)

// scenario runs a list of experiments as one campaign: one trial per
// experiment, so the engine shards independent experiments across the
// worker pool and the registry inherits checkpointing for free.
type scenario struct {
	name string
	exps []Experiment
}

// Scenario adapts the experiment list to the campaign engine. The
// name identifies the campaign in results and checkpoints.
func Scenario(name string, exps []Experiment) (campaign.Scenario, error) {
	if len(exps) == 0 {
		return nil, fmt.Errorf("expdata: no experiments")
	}
	if name == "" {
		ids := make([]string, len(exps))
		for i, e := range exps {
			ids[i] = e.ID
		}
		name = "experiments:" + strings.Join(ids, ",")
	}
	return &scenario{name: name, exps: exps}, nil
}

// Name implements campaign.Scenario.
func (s *scenario) Name() string { return s.name }

// Trials implements campaign.Scenario.
func (s *scenario) Trials() int { return len(s.exps) }

// NewWorker implements campaign.Scenario. Experiments share no
// mutable state, so the worker is just a view of the list.
func (s *scenario) NewWorker() (campaign.Worker, error) { return expWorker{s}, nil }

type expWorker struct{ scn *scenario }

// Trial runs experiment i and flattens its result into the
// accumulator: every series point becomes a sample tagged with the
// experiment's trial index, every note a campaign note.
func (w expWorker) Trial(i int, acc *campaign.Acc) error {
	e := w.scn.exps[i]
	res, err := e.Run()
	if err != nil {
		return fmt.Errorf("%s: %w", e.ID, err)
	}
	for _, s := range res.Series {
		for p := range s.X {
			acc.Sample(i, s.Label, s.X[p], s.Y[p])
		}
	}
	for _, note := range res.Notes {
		acc.Note(i, "%s", note)
	}
	return nil
}

// ResultsFromCampaign reassembles each experiment's Result from the
// campaign output: samples are grouped by trial index (= experiment
// position) and series label in order of first appearance, so a
// reassembled result is identical to a direct Run.
func ResultsFromCampaign(exps []Experiment, cres *campaign.Result) ([]*Result, error) {
	if cres.Trials != len(exps) {
		return nil, fmt.Errorf("expdata: campaign ran %d trials for %d experiments", cres.Trials, len(exps))
	}
	out := make([]*Result, len(exps))
	for i, e := range exps {
		out[i] = &Result{XLabel: e.XLabel, YLabel: e.YLabel, LogY: e.LogY}
	}
	seriesIdx := make(map[int]map[string]int) // trial -> label -> series position
	for _, s := range cres.Samples {
		if s.Trial < 0 || s.Trial >= len(exps) {
			return nil, fmt.Errorf("expdata: sample for unknown trial %d", s.Trial)
		}
		res := out[s.Trial]
		byLabel := seriesIdx[s.Trial]
		if byLabel == nil {
			byLabel = make(map[string]int)
			seriesIdx[s.Trial] = byLabel
		}
		idx, ok := byLabel[s.Series]
		if !ok {
			idx = len(res.Series)
			byLabel[s.Series] = idx
			res.Series = append(res.Series, textplot.Series{Label: s.Series})
		}
		res.Series[idx].X = append(res.Series[idx].X, s.X)
		res.Series[idx].Y = append(res.Series[idx].Y, s.Y)
	}
	for _, n := range cres.Notes {
		if n.Trial < 0 || n.Trial >= len(exps) {
			return nil, fmt.Errorf("expdata: note for unknown trial %d", n.Trial)
		}
		out[n.Trial].Notes = append(out[n.Trial].Notes, n.Text)
	}
	return out, nil
}

// CampaignCSVStream writes the campaign CSV schema (one block of
// counter rows followed by one row per sample) incrementally. It
// implements campaign.Sink, so a streaming merge can feed it sample
// by sample without ever materializing the sample list in memory —
// the bounded-memory output path for million-sample campaigns. The
// bytes produced are identical to WriteCampaignCSV's for the same
// result (WriteCampaignCSV is itself built on this writer), and to
// encoding/csv's: a sample row is appended by hand only when no field
// of it needs quoting.
type CampaignCSVStream struct {
	bw *bufio.Writer
	// cw writes the header, the counter block and every row with a
	// field it would quote. csv.NewWriter reuses a *bufio.Writer of at
	// least its default size, so cw writes through bw in row order.
	cw  *csv.Writer
	row []byte // scratch for a hand-appended row
}

// NewCampaignCSVStream wraps a writer; call Start, then Sample per
// sample in trial order, then Flush.
func NewCampaignCSVStream(w io.Writer) *CampaignCSVStream {
	bw := bufio.NewWriter(w)
	return &CampaignCSVStream{bw: bw, cw: csv.NewWriter(bw)}
}

// Start implements campaign.Sink: it writes the header and the
// counter block from the merged result (whose counters and trial
// bookkeeping are final before any sample is streamed). The result's
// Samples field is ignored — samples arrive through Sample.
func (s *CampaignCSVStream) Start(cres *campaign.Result) error {
	if err := s.cw.Write([]string{"kind", "name", "trial", "x", "y"}); err != nil {
		return err
	}
	for _, name := range cres.CounterNames() {
		if err := s.cw.Write([]string{"counter", name, "", "", strconv.FormatInt(cres.Counters[name], 10)}); err != nil {
			return err
		}
	}
	return nil
}

// Sample implements campaign.Sink.
func (s *CampaignCSVStream) Sample(sm campaign.Sample) error {
	if !csvBare(sm.Series) {
		return s.cw.Write([]string{
			"sample", sm.Series, strconv.Itoa(sm.Trial),
			strconv.FormatFloat(sm.X, 'g', -1, 64),
			strconv.FormatFloat(sm.Y, 'g', -1, 64),
		})
	}
	b := append(s.row[:0], "sample,"...)
	b = append(b, sm.Series...)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(sm.Trial), 10)
	b = append(b, ',')
	b = strconv.AppendFloat(b, sm.X, 'g', -1, 64)
	b = append(b, ',')
	b = strconv.AppendFloat(b, sm.Y, 'g', -1, 64)
	s.row = append(b, '\n')
	_, err := s.bw.Write(s.row)
	return err
}

// csvBare reports whether encoding/csv writes field unquoted for
// certain: bytes 0x21-0x7E other than '"', ',' and '\' never need
// quotes (a leading space, a line break or a lone `\.` may).
func csvBare(field string) bool {
	for i := 0; i < len(field); i++ {
		if c := field[i]; c < 0x21 || c > 0x7e || c == '"' || c == ',' || c == '\\' {
			return false
		}
	}
	return true
}

// Note implements campaign.Sink; notes are not part of the campaign
// CSV schema.
func (s *CampaignCSVStream) Note(campaign.Note) error { return nil }

// Flush drains the buffered rows and reports any deferred write
// error.
func (s *CampaignCSVStream) Flush() error {
	return s.bw.Flush()
}

// WriteCampaignCSV emits a raw campaign result as CSV: one block of
// counter rows followed by one row per sample.
func WriteCampaignCSV(w io.Writer, cres *campaign.Result) error {
	s := NewCampaignCSVStream(w)
	if err := s.Start(cres); err != nil {
		return err
	}
	for _, sm := range cres.Samples {
		if err := s.Sample(sm); err != nil {
			return err
		}
	}
	return s.Flush()
}
