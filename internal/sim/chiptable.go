package sim

import "ascendperf/internal/hw"

// chipTable is a dense, array-indexed compilation of a chip's lookup
// maps (Paths, Compute) plus the tick images of its fixed costs. The
// scheduler's setup pass touches two or three chip properties per
// instruction; on the hot batch paths (sweep, tune, optimizer,
// ascendcheck) those map lookups dominate setup, so they are compiled
// once per chip into arrays and the per-instruction work becomes pure
// indexing.
type chipTable struct {
	// pathEng[src][dst] is the scheduling MTE of the path, or -1 when
	// the path is illegal; pathBW its bandwidth in B/ns.
	pathEng [hw.NumLevels][hw.NumLevels]int8
	pathBW  [hw.NumLevels][hw.NumLevels]float64
	// peak[unit][prec] is the peak rate in op/ns, 0 when unsupported.
	peak [numUnits][numPrec]float64
	// syncTick is ToTicks(SyncCost).
	syncTick int64
}

// numUnits and numPrec bound the dense peak table. Indices outside
// these bounds (a future unit or precision) fall back to the chip maps.
const (
	numUnits = 3
	numPrec  = 5
)

func buildChipTable(chip *hw.Chip) *chipTable {
	t := &chipTable{syncTick: ToTicks(chip.SyncCost)}
	for s := range t.pathEng {
		for d := range t.pathEng[s] {
			t.pathEng[s][d] = -1
		}
	}
	for p, spec := range chip.Paths {
		if p.Src >= 0 && int(p.Src) < hw.NumLevels && p.Dst >= 0 && int(p.Dst) < hw.NumLevels {
			t.pathEng[p.Src][p.Dst] = int8(spec.Engine)
			t.pathBW[p.Src][p.Dst] = spec.Bandwidth
		}
	}
	for up, spec := range chip.Compute {
		if up.Unit >= 0 && int(up.Unit) < numUnits && up.Prec >= 0 && int(up.Prec) < numPrec {
			t.peak[up.Unit][up.Prec] = spec.Peak
		}
	}
	return t
}

// chipTabs caches compiled tables keyed by chip pointer. hw.Chip is
// documented immutable after construction, the same contract the engine
// package's chip-fingerprint memo already relies on. The bound caps the
// cache for workloads that synthesize many chip variants (ERT fitting,
// per-core chips on every graph run); when full it starts over.
var chipTabs = hw.NewChipMemo[*chipTable](maxChipTabs)

const maxChipTabs = 4096

func tableOf(chip *hw.Chip) *chipTable {
	if t, ok := chipTabs.Load(chip); ok {
		return t
	}
	t := buildChipTable(chip)
	chipTabs.Store(chip, t)
	return t
}
