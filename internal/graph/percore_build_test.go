package graph

import (
	"sort"
	"testing"

	"ascendperf/internal/hw"
	"ascendperf/internal/kernels"
	"ascendperf/internal/model"
	"ascendperf/internal/multicore"
)

// TestPerCoreChipBuildsBaseProgram pins the invariant durations relies
// on to build each operator once: a kernel built for a contended
// per-core chip is the very program built for the base chip, because
// builders read only buffer sizes and PerCoreChip changes only GM link
// bandwidth. It fails the day a builder starts reading a path spec. It
// also pins that the build's own validation covers every per-core chip,
// so the simulator does not walk the program again at any occupancy.
func TestPerCoreChipBuildsBaseProgram(t *testing.T) {
	reg := kernels.Registry()
	names := make([]string, 0, len(reg))
	for name := range reg {
		names = append(names, name)
	}
	sort.Strings(names)
	ks := make([]kernels.Kernel, 0, len(names))
	for _, name := range names {
		ks = append(ks, reg[name])
	}
	for _, m := range model.Extended() {
		for _, inst := range m.Ops {
			ks = append(ks, inst.Kernel)
		}
	}
	for _, chip := range []*hw.Chip{hw.TrainingChip(), hw.InferenceChip(), hw.TPUStyleChip()} {
		for _, k := range ks {
			base, err := k.Build(chip, k.Baseline())
			if err != nil {
				t.Fatalf("%s on %s: %v", k.Name(), chip.Name, err)
			}
			want := base.Fingerprint()
			for o := 2; o <= 8; o++ {
				per, err := k.Build(multicore.PerCoreChip(chip, o), k.Baseline())
				if err != nil {
					t.Fatalf("%s on %s at occupancy %d: %v", k.Name(), chip.Name, o, err)
				}
				if got := per.Fingerprint(); got != want {
					t.Errorf("%s on %s at occupancy %d: program %s differs from the base chip's %s",
						k.Name(), chip.Name, o, got, want)
				}
				if !base.Validated(multicore.PerCoreChip(chip, o)) {
					t.Errorf("%s on %s: the build's validation does not cover occupancy %d, so every per-core simulation re-validates",
						k.Name(), chip.Name, o)
				}
			}
		}
	}
}
