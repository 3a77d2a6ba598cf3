package spec

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/campaign"
)

// PartialPath returns the partial-result artifact path of this
// entry's slice of a partitioned campaign under dir: the entry's
// sanitized artifact path plus a ".part<i>of<N>" suffix, so the
// partials of one scenario glob together and different scenarios
// (including matrix cells) never collide.
func (e Entry) PartialPath(dir string, part campaign.Partition) string {
	return filepath.Join(dir, filepath.FromSlash(e.ArtifactPath())+fmt.Sprintf(".part%dof%d", part.Index, part.Count))
}

// PartialFiles lists every partition's artifact of the entry under
// dir: files named <artifact>.part<...> in the artifact's directory.
// A directory listing with a literal prefix match (not a glob) keeps
// scenario names containing glob metacharacters working, and
// leftover ".tmp" files from an interrupted artifact creation are
// never picked up. A missing artifact directory lists as empty — for
// callers like the fabric coordinator the distinction between "no
// partials yet" and "directory not created yet" is meaningless.
func (e Entry) PartialFiles(dir string) ([]string, error) {
	base := filepath.Join(dir, filepath.FromSlash(e.ArtifactPath()))
	entries, err := os.ReadDir(filepath.Dir(base))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	prefix := filepath.Base(base) + ".part"
	var paths []string
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasPrefix(name, prefix) || strings.HasSuffix(name, ".tmp") {
			continue
		}
		paths = append(paths, filepath.Join(filepath.Dir(base), name))
	}
	sort.Strings(paths)
	return paths, nil
}

// RunPartition executes only the given slice of the entry's campaign,
// writing (or resuming) the self-describing partial artifact under
// dir; the slices merge later with MergePartials. The partial
// artifact is the partition's checkpoint, so the entry's own
// Checkpoint path is not used here (one file per process, no
// collisions). Early stopping is decided at merge time — a
// partitioned executor deliberately over-runs a would-be stopping
// point (see campaign.ExecConfig.Stop).
func (b *Built) RunPartition(f *File, part campaign.Partition, dir string) (*campaign.Partial, error) {
	cfg := b.EngineConfig(f)
	plan, err := campaign.NewPlan(b.Scenario, cfg.ShardSize, part)
	if err != nil {
		return nil, fmt.Errorf("spec: %s: %w", b.Entry.Name, err)
	}
	plan.ParamsDigest = cfg.ParamsDigest
	partial, err := campaign.Execute(b.Scenario, plan, campaign.ExecConfig{
		Workers:  cfg.Workers,
		Artifact: b.Entry.PartialPath(dir, part),
		Stop:     cfg.Stop,
	})
	if err != nil {
		return nil, fmt.Errorf("spec: %s: %w", b.Entry.Name, err)
	}
	return partial, nil
}

// MergePartials opens every partial artifact of the entry under dir
// and folds them into the Result a single-process run would produce
// (bit-identically — the campaign engine's determinism law), applying
// the entry's early-stop rule on the contiguous prefix. A non-nil
// sink streams samples and notes instead of materializing them (the
// bounded-memory path for million-sample campaigns).
func (b *Built) MergePartials(f *File, dir string, sink campaign.Sink) (*campaign.Result, error) {
	paths, err := b.Entry.PartialFiles(dir)
	if err != nil {
		return nil, fmt.Errorf("spec: %s: %w", b.Entry.Name, err)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("spec: %s: no partial artifacts named %s.part* under %s",
			b.Entry.Name, b.Entry.ArtifactPath(), dir)
	}
	partials := make([]*campaign.Partial, 0, len(paths))
	defer func() {
		for _, p := range partials {
			p.Close()
		}
	}()
	for _, path := range paths {
		p, err := campaign.OpenPartial(path)
		if err != nil {
			return nil, fmt.Errorf("spec: %s: %w", b.Entry.Name, err)
		}
		partials = append(partials, p)
	}
	cfg := b.EngineConfig(f)
	cres, err := campaign.Merge(partials, campaign.MergeConfig{Stop: cfg.Stop, Sink: sink, ParamsDigest: cfg.ParamsDigest})
	if err != nil {
		return nil, fmt.Errorf("spec: %s: %w", b.Entry.Name, err)
	}
	return cres, nil
}
