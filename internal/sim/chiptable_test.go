package sim

import (
	"testing"

	"ascendperf/internal/hw"
)

// TestChipTableMemoPastBound mints more chips than the table memo holds:
// a chip first seen afterwards must still get a memoized table, and the
// memo must stay within its bound.
func TestChipTableMemoPastBound(t *testing.T) {
	base := hw.TrainingChip()
	for i := 0; i <= maxChipTabs; i++ {
		c := *base
		tableOf(&c)
		if n := chipTabs.Len(); n > maxChipTabs {
			t.Fatalf("memo holds %d chips, bound %d", n, maxChipTabs)
		}
	}
	fresh := *base
	first := tableOf(&fresh)
	if got := tableOf(&fresh); got != first {
		t.Error("second lookup of a fresh chip compiled a new table")
	}
}
