package opt

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"ascendperf/internal/hw"
	"ascendperf/internal/kernels"
)

// TestEpisodeV1FileIsCleanMiss plants the episode an episodes/v1 build
// stored for add_relu on the training chip, under its v1 key and file
// name. A search must run cold: a miss that counts no error, never a
// warm start from the old file.
func TestEpisodeV1FileIsCleanMiss(t *testing.T) {
	// The episodes/v1 key embedded the v1 schema and the sim-cache/v1
	// fingerprint of the baseline program.
	const baseV1 = "d75edc7684c0cd72f00dcc4747a839aaf06e6a8fbdecdaa08843501d2f9c7d09"
	chip := hw.TrainingChip()
	k := kernels.NewAddReLU()
	store, err := NewEpisodeStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, ok := newSearcher(New(chip), k).episodeKey(SearchConfig{Episodes: store})
	if !ok {
		t.Fatal("no episode key")
	}
	// The fingerprint encoding changed, so the key must carry the bumped
	// schema, not only a different baseline digest.
	if !strings.HasPrefix(key, "ascendperf/episodes/v2|") {
		t.Fatalf("episode key %q does not carry the episodes/v2 schema", key)
	}
	base, err := k.Build(chip, k.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	v1Key := strings.Replace(key, episodeSchema, "ascendperf/episodes/v1", 1)
	v1Key = strings.Replace(v1Key, "base="+base.Fingerprint(), "base="+baseV1, 1)
	if v1Key == key || !strings.Contains(v1Key, baseV1) {
		t.Fatalf("could not derive the v1 key from %q", key)
	}
	data, err := json.Marshal(Episode{Schema: "ascendperf/episodes/v1", Key: v1Key, Kernel: k.Name(), BestNS: 1, BaselineNS: 1, RawBestNS: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.path(v1Key), data, 0o644); err != nil {
		t.Fatal(err)
	}

	res, err := New(chip).Search(k, SearchConfig{Episodes: store})
	if err != nil {
		t.Fatal(err)
	}
	if res.WarmStart {
		t.Error("search warm-started from an episodes/v1 file")
	}
	if st := store.Stats(); st.Hits != 0 || st.Misses != 1 || st.Errors != 0 {
		t.Errorf("episode store stats = %+v, want 0 hits, 1 miss, 0 errors", st)
	}
}
