// Shard-artifact file handling for the merge coordinator and the
// orchestrator: globbing a shard set off disk without tripping over the
// debris of crashed writers, and loading each artifact with its seal
// verified and every failure named after the offending path.
package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"dita/internal/atomicio"
)

// GlobArtifacts expands a shard-artifact glob into the real artifact
// paths (sorted) and, separately, any leftover temp files the pattern
// matched — the half-written debris of a writer that died before its
// atomic rename. Temp files are never loaded; callers surface them as
// warnings so an operator knows a worker crashed, but a merge over the
// surviving real artifacts proceeds (and completeness validation still
// catches any shard the crash actually lost).
func GlobArtifacts(pattern string) (paths, tmps []string, err error) {
	matches, err := filepath.Glob(pattern)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: artifact glob %q: %w", pattern, err)
	}
	for _, m := range matches {
		if strings.HasSuffix(m, atomicio.TempSuffix) {
			tmps = append(tmps, m)
			continue
		}
		paths = append(paths, m)
	}
	sort.Strings(paths)
	sort.Strings(tmps)
	return paths, tmps, nil
}

// LoadShardFile reads one artifact off disk, verifying its seal and
// shard spec. Every error names the offending path, so a
// failed merge over dozens of artifacts points straight at the bad one.
func LoadShardFile(path string) (*ShardResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err // *PathError already names the path
	}
	sr, err := decodeShardResult(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sr, nil
}

// LoadShardSet loads every artifact of a shard set, failing on the
// first unreadable or corrupted one.
func LoadShardSet(paths []string) ([]*ShardResult, error) {
	out := make([]*ShardResult, 0, len(paths))
	for _, path := range paths {
		sr, err := LoadShardFile(path)
		if err != nil {
			return nil, err
		}
		out = append(out, sr)
	}
	return out, nil
}
