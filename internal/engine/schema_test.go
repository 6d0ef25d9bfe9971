package engine

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"ascendperf/internal/hw"
	"ascendperf/internal/kernels"
	"ascendperf/internal/sim"
)

// addReLUTrainingV1 is the program fingerprint of add_relu's baseline
// on the training chip under the sim-cache/v1 encoding (fixed-width
// integers), the digest v1 cache keys were built from.
const addReLUTrainingV1 = "d75edc7684c0cd72f00dcc4747a839aaf06e6a8fbdecdaa08843501d2f9c7d09"

// TestDiskCacheV1EntryIsCleanMiss plants the entry a sim-cache/v1 build
// stored for a program, under the key and file name it used, holding a
// wrong profile. The current build must simulate instead: a miss that
// counts no error and never reads the old entry.
func TestDiskCacheV1EntryIsCleanMiss(t *testing.T) {
	dir := t.TempDir()
	defer SetDiskCacheDir("")
	if err := SetDiskCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	if diskSchema != "ascendperf/sim-cache/v2" {
		t.Fatalf("disk schema %q: the fingerprint encoding changed with sim-cache/v2", diskSchema)
	}
	d := DefaultDiskCache()
	chip := hw.TrainingChip()
	k := kernels.NewAddReLU()
	prog, err := k.Build(chip, k.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.RunOpts(chip, prog, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	chipFP, ok := chipFingerprint(chip)
	if !ok {
		t.Fatal("chip fingerprint failed")
	}
	v1Key := chipFP + "|" + addReLUTrainingV1 + "|--"
	if key, _ := cacheKey(chip, prog, sim.Options{}); key == v1Key || !strings.HasPrefix(key, chipFP+"|") {
		t.Fatalf("current key %q does not differ from the v1 key in the program fingerprint", key)
	}
	stale := *want
	stale.TotalTime *= 2
	data, err := json.Marshal(diskEntry{Schema: "ascendperf/sim-cache/v1", Key: v1Key, Profile: fromProfile(&stale)})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(d.path(v1Key), data, 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := NewCache(16).Simulate(chip, prog, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("simulation with a v1 entry on disk = %+v, want %+v", got, want)
	}
	if st := d.Stats(); st.Hits != 0 || st.Misses != 1 || st.Errors != 0 {
		t.Errorf("disk stats = %+v, want 0 hits, 1 miss, 0 errors", st)
	}
}
