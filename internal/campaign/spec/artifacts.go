package spec

import (
	"bytes"
	"path/filepath"

	"repro/internal/campaign"
	"repro/internal/expdata"
)

// WriteArtifacts stores the result under the entry's sanitized
// artifact path below dir: <path>.json (the raw engine result,
// indented) and <path>.csv (counters and samples), each written
// atomically, so a crash mid-write or a concurrent reader never sees
// a truncated artifact. Matrix cells land in a subdirectory named
// after the matrix entry. This is the single artifact-writing path —
// the cmd/campaign run/merge flows and the fabric registry's per-job
// server-side merge all produce their result trees through it, which
// is what makes a job's artifact root byte-identical to a
// single-process run of the same spec.
func (b *Built) WriteArtifacts(dir string, cres *campaign.Result) error {
	base := filepath.Join(dir, filepath.FromSlash(b.Entry.ArtifactPath()))
	if err := WriteResultJSON(base+".json", cres); err != nil {
		return err
	}
	var csv bytes.Buffer
	if err := expdata.WriteCampaignCSV(&csv, cres); err != nil {
		return err
	}
	return expdata.WriteFileAtomic(base+".csv", csv.Bytes(), 0o644)
}

// WriteResultJSON writes one campaign result as an indented JSON
// document, atomically (tmp + rename), so a crash mid-write — or a
// concurrent reader watching the results directory — never sees a
// truncated artifact. The bytes are json.MarshalIndent(cres, "", "  ")
// plus a newline, written by campaign.AppendResultJSON.
func WriteResultJSON(path string, cres *campaign.Result) error {
	data, err := campaign.AppendResultJSON(nil, cres)
	if err != nil {
		return err
	}
	return expdata.WriteFileAtomic(path, append(data, '\n'), 0o644)
}
