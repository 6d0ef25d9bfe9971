package kernels

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
)

func TestBuilderAllocBump(t *testing.T) {
	chip := hw.TrainingChip()
	b := NewBuilder(chip, "alloc")
	r1 := b.Alloc(hw.UB, 1024)
	r2 := b.Alloc(hw.UB, 2048)
	if r1.Off != 0 || r1.Size != 1024 {
		t.Errorf("first alloc = %v", r1)
	}
	if r2.Off != 1024 || r2.Size != 2048 {
		t.Errorf("second alloc = %v", r2)
	}
	if b.Used(hw.UB) != 3072 {
		t.Errorf("used = %d", b.Used(hw.UB))
	}
}

func TestBuilderFreeLIFO(t *testing.T) {
	chip := hw.TrainingChip()
	b := NewBuilder(chip, "free")
	r1 := b.Alloc(hw.UB, 1024)
	r2 := b.Alloc(hw.UB, 2048)
	b.Free(r2)
	if b.Used(hw.UB) != 1024 {
		t.Errorf("used after LIFO free = %d, want 1024", b.Used(hw.UB))
	}
	// Freeing a non-top region is a no-op.
	r3 := b.Alloc(hw.UB, 512)
	b.Free(r1)
	if b.Used(hw.UB) != 1024+512 {
		t.Errorf("used after non-top free = %d", b.Used(hw.UB))
	}
	_ = r3
}

func TestBuilderAllocOverflow(t *testing.T) {
	chip := hw.TrainingChip()
	b := NewBuilder(chip, "overflow")
	b.Alloc(hw.L0A, chip.BufferSize[hw.L0A])
	b.Alloc(hw.L0A, 1)
	if _, err := b.Program(); err == nil {
		t.Fatal("expected overflow error")
	} else if !strings.Contains(err.Error(), "exhausted") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestBuilderAllocNonPositive(t *testing.T) {
	chip := hw.TrainingChip()
	b := NewBuilder(chip, "bad-size")
	b.Alloc(hw.UB, 0)
	if _, err := b.Program(); err == nil {
		t.Fatal("expected error for zero-size alloc")
	}
}

func TestBuilderCopyValidation(t *testing.T) {
	chip := hw.TrainingChip()

	// Mismatched level.
	b := NewBuilder(chip, "bad-level")
	src := isa.Region{Level: hw.L1, Off: 0, Size: 100}
	dst := isa.Region{Level: hw.UB, Off: 0, Size: 100}
	b.Copy(hw.PathGMToUB, src, dst, "")
	if _, err := b.Program(); err == nil {
		t.Error("expected error for level mismatch")
	}

	// Mismatched size.
	b2 := NewBuilder(chip, "bad-size")
	b2.Copy(hw.PathGMToUB,
		isa.Region{Level: hw.GM, Off: 0, Size: 100},
		isa.Region{Level: hw.UB, Off: 0, Size: 200}, "")
	if _, err := b2.Program(); err == nil {
		t.Error("expected error for size mismatch")
	}
}

func TestBuilderComputeValidation(t *testing.T) {
	chip := hw.TrainingChip()
	b := NewBuilder(chip, "bad-ops")
	b.Compute(hw.Vector, hw.FP16, 0, 1, nil, nil, "")
	if _, err := b.Program(); err == nil {
		t.Error("expected error for zero ops")
	}
}

func TestBuilderFirstErrorWins(t *testing.T) {
	chip := hw.TrainingChip()
	b := NewBuilder(chip, "multi-err")
	b.Alloc(hw.UB, -1)
	b.Compute(hw.Vector, hw.FP16, 0, 1, nil, nil, "")
	_, err := b.Program()
	if err == nil || !strings.Contains(err.Error(), "allocation") {
		t.Errorf("first error should win, got: %v", err)
	}
}

func TestBuilderStageSync(t *testing.T) {
	chip := hw.TrainingChip()

	fine := NewBuilder(chip, "fine")
	fine.StageSync(hw.CompCube, hw.CompVector, true)
	p1, err := fine.Program()
	if err != nil {
		t.Fatal(err)
	}
	s1 := p1.Stat()
	if s1.Syncs != 2 || s1.Barriers != 0 {
		t.Errorf("minimal sync: %+v", s1)
	}

	coarse := NewBuilder(chip, "coarse")
	coarse.StageSync(hw.CompCube, hw.CompVector, false)
	p2, err := coarse.Program()
	if err != nil {
		t.Fatal(err)
	}
	s2 := p2.Stat()
	if s2.Barriers != 1 || s2.Syncs != 0 {
		t.Errorf("coarse sync: %+v", s2)
	}
}

func TestBuilderNewEventUnique(t *testing.T) {
	chip := hw.TrainingChip()
	b := NewBuilder(chip, "events")
	e1 := b.NewEvent(hw.CompMTEGM, hw.CompVector)
	e2 := b.NewEvent(hw.CompMTEGM, hw.CompVector)
	e3 := b.NewEvent(hw.CompVector, hw.CompMTEUB)
	if e1 == e2 {
		t.Error("events on the same pair must be unique")
	}
	if e3 != 0 {
		t.Error("events are counted per component pair")
	}
}

func TestBuilderScalarWork(t *testing.T) {
	chip := hw.TrainingChip()
	b := NewBuilder(chip, "scalar")
	b.ScalarWork(5, 4)
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 5 {
		t.Errorf("scalar work emitted %d instructions, want 5", p.Len())
	}
	for i := range p.Instrs {
		if p.Instrs[i].Unit != hw.Scalar || p.Instrs[i].Ops != 4 {
			t.Errorf("instr %d: %+v", i, p.Instrs[i])
		}
	}
}

// presetChips are the three chip presets the builder tests cover.
func presetChips() []*hw.Chip {
	return []*hw.Chip{hw.TrainingChip(), hw.InferenceChip(), hw.TPUStyleChip()}
}

// TestBuilderProgramExactSize: a built program owns an instruction slice
// of exactly its length, with no spare capacity left over from the
// scratch buffer it was emitted into.
func TestBuilderProgramExactSize(t *testing.T) {
	for _, chip := range presetChips() {
		for name, k := range Registry() {
			p := buildBaseline(t, chip, k)
			if cap(p.Instrs) != len(p.Instrs) {
				t.Errorf("%s on %s: cap %d, len %d", name, chip.Name, cap(p.Instrs), len(p.Instrs))
			}
		}
	}
}

func buildBaseline(t *testing.T, chip *hw.Chip, k Kernel) *isa.Program {
	t.Helper()
	p, err := k.Build(chip, k.Baseline())
	if err != nil {
		t.Fatalf("%s on %s: %v", k.Name(), chip.Name, err)
	}
	return p
}

// TestBuilderPoolNoAliasing builds A, then B, then A again: the two A
// programs must be identical and the first one untouched by the later
// builds that reuse the pooled scratch.
func TestBuilderPoolNoAliasing(t *testing.T) {
	chip := hw.TrainingChip()
	a, b := NewConv2D(), NewDepthwise()
	a1 := buildBaseline(t, chip, a)
	fp1 := a1.Fingerprint()
	buildBaseline(t, chip, b)
	a2 := buildBaseline(t, chip, a)
	if got := a2.Fingerprint(); got != fp1 {
		t.Errorf("rebuilt %s: fingerprint %s, first build %s", a.Name(), got, fp1)
	}
	// A copy carries no memo, so this rehashes a1's instructions as they
	// are now.
	if got := (&isa.Program{Name: a1.Name, Instrs: a1.Instrs}).Fingerprint(); got != fp1 {
		t.Errorf("first %s build changed after later builds: %s, was %s", a.Name(), got, fp1)
	}
	if &a1.Instrs[0] == &a2.Instrs[0] {
		t.Error("two builds share one instruction array")
	}
}

// TestBuilderFailedBuildLeavesNoTrace: a build that fails after emitting
// instructions, followed by a good build, gives the same program as a
// good build made before it.
func TestBuilderFailedBuildLeavesNoTrace(t *testing.T) {
	chip := hw.TrainingChip()
	k := NewAddReLU()
	want := buildBaseline(t, chip, k)

	bad := NewBuilder(chip, "failing")
	bad.ScalarWork(3*want.Len(), 7)
	bad.Alloc(hw.UB, chip.BufferSize[hw.UB]+1)
	if _, err := bad.Program(); err == nil || !strings.Contains(err.Error(), "exhausted") {
		t.Fatalf("want a buffer exhaustion error, got %v", err)
	}
	got := buildBaseline(t, chip, k)
	if got.Fingerprint() != want.Fingerprint() {
		t.Error("build after a failed build differs from a build before it")
	}
}

// TestBuilderReleaseClearsScratch: Program zeroes every slot of the
// scratch stream before the buffer goes back to the pool, on success and
// on error, so the pool pins no labels or regions.
func TestBuilderReleaseClearsScratch(t *testing.T) {
	chip := hw.TrainingChip()
	for _, fail := range []bool{false, true} {
		b := NewBuilder(chip, "release")
		ub := b.Alloc(hw.UB, 256)
		b.Copy(hw.PathGMToUB, isa.Region{Level: hw.GM, Size: 256}, ub, "load")
		b.Compute(hw.Vector, hw.FP16, 128, 1, []isa.Region{ub}, []isa.Region{ub}, "relu")
		if fail {
			b.Alloc(hw.UB, chip.BufferSize[hw.UB]+1)
		}
		s := b.instrs[:cap(b.instrs)]
		if _, err := b.Program(); (err != nil) != fail {
			t.Fatalf("failing build %v: Program returned %v", fail, err)
		}
		for i, in := range s {
			if !reflect.ValueOf(in).IsZero() {
				t.Fatalf("failing build %v: scratch slot %d still holds %+v", fail, i, in)
			}
		}
	}
}

func TestBuilderProgramTwice(t *testing.T) {
	b := NewBuilder(hw.TrainingChip(), "twice")
	b.ScalarWork(2, 1)
	if _, err := b.Program(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Program(); err == nil {
		t.Error("second Program call succeeded")
	}
}

// TestBuilderConcurrentBuilds: builds racing through the shared scratch
// pool give the serial fingerprints. Run with -race.
func TestBuilderConcurrentBuilds(t *testing.T) {
	type job struct {
		chip *hw.Chip
		k    Kernel
	}
	var jobs []job
	want := map[string]string{}
	for _, chip := range presetChips() {
		for _, k := range Registry() {
			jobs = append(jobs, job{chip, k})
			want[chip.Name+"/"+k.Name()] = buildBaseline(t, chip, k).Fingerprint()
		}
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range jobs {
				j := jobs[(i+w*len(jobs)/workers)%len(jobs)]
				p, err := j.k.Build(j.chip, j.k.Baseline())
				if err != nil {
					t.Errorf("%s on %s: %v", j.k.Name(), j.chip.Name, err)
					continue
				}
				if got, key := p.Fingerprint(), j.chip.Name+"/"+j.k.Name(); got != want[key] {
					t.Errorf("%s: concurrent fingerprint %s, serial %s", key, got, want[key])
				}
			}
		}(w)
	}
	wg.Wait()
}

var benchProg *isa.Program

// BenchmarkBuild measures one baseline build, whose allocations are the
// exact-size program plus its regions once the scratch pool is warm.
func BenchmarkBuild(b *testing.B) {
	chip := hw.TrainingChip()
	for _, k := range []Kernel{NewConv2D(), NewDepthwise()} {
		b.Run(k.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, err := k.Build(chip, k.Baseline())
				if err != nil {
					b.Fatal(err)
				}
				benchProg = p
			}
		})
	}
}
