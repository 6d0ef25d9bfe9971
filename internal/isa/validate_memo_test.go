package isa_test

import (
	"strings"
	"sync"
	"testing"

	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
	"ascendperf/internal/kernels"
	"ascendperf/internal/multicore"
)

// validated returns everyFieldProgram after one successful Validate on
// chip, failing the test if the verdict was not memoized.
func validated(t *testing.T, chip *hw.Chip) *isa.Program {
	t.Helper()
	p := everyFieldProgram()
	if p.Validated(chip) {
		t.Fatal("fresh program reports a memoized validation")
	}
	if err := p.Validate(chip); err != nil {
		t.Fatal(err)
	}
	if !p.Validated(chip) {
		t.Fatal("successful Validate was not memoized")
	}
	return p
}

func TestValidateMemoAllocFree(t *testing.T) {
	chip := hw.TrainingChip()
	p := validated(t, chip)
	if n := testing.AllocsPerRun(100, func() {
		if err := p.Validate(chip); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("memoized Validate allocates %v times per call, want 0", n)
	}
}

// TestValidateMemoCoversPerCoreChips pins what lets the simulator skip
// re-validating graph operators: per-core chips change only GM
// bandwidth, which validation does not read.
func TestValidateMemoCoversPerCoreChips(t *testing.T) {
	chip := hw.TrainingChip()
	p := validated(t, chip)
	for k := 2; k <= 8; k++ {
		if !p.Validated(multicore.PerCoreChip(chip, k)) {
			t.Errorf("validation on %s does not cover its %d-core chip", chip.Name, k)
		}
	}
}

// TestValidateMemoRechecksLegality checks that a cached success never
// answers for a chip that would reject the program, and that the
// rejection leaves the memo for the original chip in place.
func TestValidateMemoRechecksLegality(t *testing.T) {
	chip := hw.TrainingChip()
	p := validated(t, chip)

	noPath := hw.TrainingChip()
	delete(noPath.Paths, hw.PathUBToGM)
	smallUB := hw.TrainingChip()
	smallUB.BufferSize[hw.UB] = 16384 // the vadd writes UB[16384:20480)
	for _, c := range []struct {
		name string
		chip *hw.Chip
		want string
	}{
		{"missing path", noPath, "illegal path UB->GM"},
		{"smaller buffer", smallUB, "exceeds UB capacity 16384"},
	} {
		err := p.Validate(c.chip)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate after a cached success = %v, want an error containing %q", c.name, err, c.want)
		}
		if p.Validated(c.chip) {
			t.Errorf("%s: failed verdict memoized", c.name)
		}
	}
	if !p.Validated(chip) {
		t.Error("a failed Validate on another chip dropped the memo")
	}
}

func TestValidateMemoInvalidatedByAppend(t *testing.T) {
	chip := hw.TrainingChip()
	p := validated(t, chip)
	p.Append(isa.Transfer(hw.Path{Src: hw.L0C, Dst: hw.GM}, 0, 0, 64))
	if p.Validated(chip) {
		t.Fatal("memo survived Append")
	}
	if err := p.Validate(chip); err == nil {
		t.Fatal("illegal appended transfer accepted")
	}
}

func TestValidateFailureNotMemoized(t *testing.T) {
	chip := hw.TrainingChip()
	p := &isa.Program{Name: "unmatched-wait"}
	p.Append(isa.WaitFlag(hw.CompMTEGM, hw.CompVector, 0))
	for i := 0; i < 2; i++ {
		if err := p.Validate(chip); err == nil {
			t.Fatalf("call %d: unmatched wait_flag accepted", i)
		}
		if p.Validated(chip) {
			t.Fatalf("call %d: failed verdict memoized", i)
		}
	}
}

// TestValidateMemoSkipsNonDenseChip checks that a chip with an entry
// outside the dense tables is validated in full on every call: its
// tables would not capture every verdict the chip can give.
func TestValidateMemoSkipsNonDenseChip(t *testing.T) {
	chip := hw.TrainingChip()
	chip.BufferSize[hw.Level(hw.NumLevels)] = 1 << 20
	p := everyFieldProgram()
	if err := p.Validate(chip); err != nil {
		t.Fatal(err)
	}
	if p.Validated(chip) {
		t.Error("verdict on a chip outside the dense bounds was memoized")
	}
}

// TestValidateConcurrent races validations of one program on accepting
// and rejecting chips; run it under -race.
func TestValidateConcurrent(t *testing.T) {
	chip := hw.TrainingChip()
	reject := hw.TrainingChip()
	delete(reject.Paths, hw.PathUBToGM)
	chips := []*hw.Chip{chip, multicore.PerCoreChip(chip, 2), multicore.PerCoreChip(chip, 4), reject}
	p := everyFieldProgram()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c := chips[(g+i)%len(chips)]
				err := p.Validate(c)
				if (c == reject) != (err != nil) {
					t.Errorf("Validate on %s = %v", c.Name, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if !p.Validated(chip) {
		t.Error("no successful verdict memoized")
	}
}

// BenchmarkValidate measures the full validation walk. Each iteration
// validates a fresh Program header over the same instructions, so the
// per-program verdict memo never answers and every call walks the
// program.
func BenchmarkValidate(b *testing.B) {
	for _, k := range []kernels.Kernel{kernels.NewDepthwise(), kernels.NewConv2D()} {
		b.Run(k.Name(), func(b *testing.B) {
			chip := hw.TrainingChip()
			base, err := k.Build(chip, k.Baseline())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := &isa.Program{Name: base.Name, Instrs: base.Instrs}
				if err := p.Validate(chip); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
