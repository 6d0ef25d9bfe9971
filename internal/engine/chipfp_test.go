package engine

import (
	"testing"

	"ascendperf/internal/hw"
)

// TestChipFingerprintMemoPastBound mints more chips than the memo holds,
// as graph runs do with per-core chips: a chip first seen afterwards
// must still be memoized, and the memo must stay within its bound.
func TestChipFingerprintMemoPastBound(t *testing.T) {
	base := hw.TrainingChip()
	for i := 0; i <= maxChipFPs; i++ {
		c := *base
		if _, ok := chipFingerprint(&c); !ok {
			t.Fatal("chip fingerprint failed")
		}
		if n := chipFPs.Len(); n > maxChipFPs {
			t.Fatalf("memo holds %d chips, bound %d", n, maxChipFPs)
		}
	}
	fresh := *base
	want, ok := chipFingerprint(&fresh)
	if !ok {
		t.Fatal("chip fingerprint failed")
	}
	if got, hit := chipFPs.Load(&fresh); !hit || got != want {
		t.Errorf("second lookup of a fresh chip: hit %v, fingerprint %q; want a hit on %q", hit, got, want)
	}
}
