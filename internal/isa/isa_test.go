package isa

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"ascendperf/internal/hw"
)

func TestRegionOverlaps(t *testing.T) {
	a := Region{hw.UB, 0, 100}
	cases := []struct {
		b    Region
		want bool
	}{
		{Region{hw.UB, 50, 100}, true},
		{Region{hw.UB, 100, 10}, false},  // adjacent, not overlapping
		{Region{hw.UB, 99, 1}, true},     // last byte
		{Region{hw.GM, 0, 100}, false},   // different level
		{Region{hw.UB, 10, 0}, false},    // zero size
		{Region{hw.UB, -50, 60}, true},   // partial from below
		{Region{hw.UB, 0, 100}, true},    // identical
		{Region{hw.UB, 200, 100}, false}, // disjoint
	}
	for _, c := range cases {
		if got := a.Overlaps(c.b); got != c.want {
			t.Errorf("%v.Overlaps(%v) = %v, want %v", a, c.b, got, c.want)
		}
		if got := c.b.Overlaps(a); got != c.want {
			t.Errorf("overlap not symmetric for %v, %v", a, c.b)
		}
	}
}

// Property: overlap is symmetric and irreflexive only for empty regions.
func TestRegionOverlapProperties(t *testing.T) {
	f := func(o1, o2 int16, s1, s2 uint8) bool {
		a := Region{hw.UB, int64(o1), int64(s1)}
		b := Region{hw.UB, int64(o2), int64(s2)}
		if a.Overlaps(b) != b.Overlaps(a) {
			return false
		}
		if s1 > 0 && !a.Overlaps(a) {
			return false // non-empty region overlaps itself
		}
		if s1 == 0 && a.Overlaps(a) {
			return false // empty region overlaps nothing
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConstructors(t *testing.T) {
	c := Compute(hw.Vector, hw.FP16, 1024)
	if c.Kind != KindCompute || c.Ops != 1024 || c.EffRepeat() != 1 {
		t.Errorf("Compute constructor: %+v", c)
	}
	cr := ComputeRepeat(hw.Vector, hw.FP16, 1024, 8)
	if cr.EffRepeat() != 8 {
		t.Errorf("repeat = %d, want 8", cr.EffRepeat())
	}
	zero := Instr{Kind: KindCompute}
	if zero.EffRepeat() != 1 {
		t.Error("zero repeat must be treated as 1")
	}

	tr := Transfer(hw.PathGMToUB, 100, 200, 50)
	if tr.Kind != KindTransfer || tr.Bytes != 50 {
		t.Errorf("Transfer constructor: %+v", tr)
	}
	if len(tr.Reads) != 1 || tr.Reads[0] != (Region{hw.GM, 100, 50}) {
		t.Errorf("transfer reads: %v", tr.Reads)
	}
	if len(tr.Writes) != 1 || tr.Writes[0] != (Region{hw.UB, 200, 50}) {
		t.Errorf("transfer writes: %v", tr.Writes)
	}

	sf := SetFlag(hw.CompMTEGM, hw.CompVector, 3)
	wf := WaitFlag(hw.CompMTEGM, hw.CompVector, 3)
	if sf.Kind != KindSetFlag || wf.Kind != KindWaitFlag {
		t.Error("flag constructors")
	}
}

func TestComponentRouting(t *testing.T) {
	chip := hw.TrainingChip()
	cases := []struct {
		in   Instr
		want hw.Component
	}{
		{Compute(hw.Cube, hw.FP16, 1), hw.CompCube},
		{Compute(hw.Vector, hw.FP32, 1), hw.CompVector},
		{Compute(hw.Scalar, hw.INT32, 1), hw.CompScalar},
		{Transfer(hw.PathGMToUB, 0, 0, 1), hw.CompMTEGM},
		{Transfer(hw.PathL1ToL0A, 0, 0, 1), hw.CompMTEL1},
		{Transfer(hw.PathUBToGM, 0, 0, 1), hw.CompMTEUB},
		{SetFlag(hw.CompMTEGM, hw.CompVector, 0), hw.CompMTEGM},
		{WaitFlag(hw.CompMTEGM, hw.CompVector, 0), hw.CompVector},
		{BarrierAllInstr(), hw.CompScalar},
		{BarrierPipeInstr(hw.CompVector), hw.CompVector},
	}
	for _, c := range cases {
		got, ok := c.in.Component(chip)
		if !ok || got != c.want {
			t.Errorf("%s routed to %s (ok=%v), want %s", c.in.String(), got, ok, c.want)
		}
	}
	bad := Transfer(hw.Path{Src: hw.L0C, Dst: hw.GM}, 0, 0, 1)
	if _, ok := bad.Component(chip); ok {
		t.Error("illegal path should not route")
	}
}

func TestDisassembly(t *testing.T) {
	p := &Program{Name: "demo"}
	p.Append(
		Compute(hw.Cube, hw.FP16, 4096),
		Transfer(hw.PathGMToL1, 0, 0, 1024),
		SetFlag(hw.CompMTEGM, hw.CompCube, 1),
		WaitFlag(hw.CompMTEGM, hw.CompCube, 1),
		BarrierAllInstr(),
		BarrierPipeInstr(hw.CompVector),
	)
	p.Instrs[0].Label = "mad"
	d := p.Disassemble()
	for _, want := range []string{
		"program demo (6 instructions)",
		"Cube.FP16 ops=4096 repeat=1 ; mad",
		"copy GM->L1 bytes=1024",
		"set_flag MTE-GM->Cube ev=1",
		"wait_flag MTE-GM->Cube ev=1",
		"pipe_barrier(PIPE_ALL)",
		"pipe_barrier(Vector)",
	} {
		if !strings.Contains(d, want) {
			t.Errorf("disassembly missing %q:\n%s", want, d)
		}
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindCompute: "compute", KindTransfer: "transfer",
		KindSetFlag: "set_flag", KindWaitFlag: "wait_flag", KindBarrier: "pipe_barrier",
	} {
		if k.String() != want {
			t.Errorf("Kind %d = %q, want %q", int(k), k.String(), want)
		}
	}
	if Kind(42).String() != "Kind(42)" {
		t.Error("unknown kind formatting")
	}
}

func TestValidateAcceptsLegalProgram(t *testing.T) {
	chip := hw.TrainingChip()
	p := &Program{Name: "legal"}
	p.Append(
		Transfer(hw.PathGMToUB, 0, 0, 4096),
		SetFlag(hw.CompMTEGM, hw.CompVector, 0),
		WaitFlag(hw.CompMTEGM, hw.CompVector, 0),
		Compute(hw.Vector, hw.FP16, 2048),
		Transfer(hw.PathUBToGM, 0, 4096, 4096),
		BarrierAllInstr(),
	)
	if err := p.Validate(chip); err != nil {
		t.Fatalf("legal program rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	chip := hw.TrainingChip()
	cases := []struct {
		name string
		in   Instr
	}{
		{"unsupported precision", Compute(hw.Cube, hw.FP64, 10)},
		{"non-positive ops", Compute(hw.Vector, hw.FP16, 0)},
		{"illegal path", Transfer(hw.Path{Src: hw.L0C, Dst: hw.GM}, 0, 0, 10)},
		{"non-positive bytes", Transfer(hw.PathGMToUB, 0, 0, 0)},
		{"self flag", SetFlag(hw.CompVector, hw.CompVector, 0)},
		{"oversized region", Transfer(hw.PathGMToUB, 0, 1<<30, 4096)},
		{"negative offset", Transfer(hw.PathGMToUB, -4, 0, 4096)},
	}
	for _, c := range cases {
		p := &Program{Name: c.name, Instrs: []Instr{c.in}}
		if err := p.Validate(chip); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestValidateUnmatchedWait(t *testing.T) {
	chip := hw.TrainingChip()
	p := &Program{Name: "orphan-wait"}
	p.Append(WaitFlag(hw.CompMTEGM, hw.CompVector, 7))
	if err := p.Validate(chip); err == nil {
		t.Fatal("expected error for wait without set")
	}
	p2 := &Program{Name: "matched"}
	p2.Append(
		SetFlag(hw.CompMTEGM, hw.CompVector, 7),
		WaitFlag(hw.CompMTEGM, hw.CompVector, 7),
	)
	if err := p2.Validate(chip); err != nil {
		t.Fatalf("matched flags rejected: %v", err)
	}
}

// TestValidateOddFlagKeys: flag accounting holds for keys no builder
// emits: negative and huge event ids and out-of-range components.
func TestValidateOddFlagKeys(t *testing.T) {
	chip := hw.TrainingChip()
	keys := []struct {
		name     string
		from, to hw.Component
		ev       int
	}{
		{"negative event", hw.CompMTEGM, hw.CompVector, -1},
		{"huge event", hw.CompMTEGM, hw.CompVector, math.MaxInt},
		{"component past the range", hw.Component(hw.NumComponents + 3), hw.CompVector, 0},
		{"negative component", hw.CompCube, hw.Component(-2), 0},
	}
	for _, k := range keys {
		filler := Compute(hw.Scalar, hw.INT32, 1)
		matched := &Program{Name: "matched", Instrs: []Instr{SetFlag(k.from, k.to, k.ev), filler, WaitFlag(k.from, k.to, k.ev)}}
		if err := matched.Validate(chip); err != nil {
			t.Errorf("%s: matched flags rejected: %v", k.name, err)
		}
		orphan := &Program{Name: "orphan", Instrs: []Instr{filler, filler, WaitFlag(k.from, k.to, k.ev)}}
		want := fmt.Sprintf("isa: orphan: 1 wait_flag but only 0 set_flag for %s->%s ev=%d", k.from, k.to, k.ev)
		if err := orphan.Validate(chip); err == nil || err.Error() != want {
			t.Errorf("%s: got %v, want %q", k.name, err, want)
		}
	}
}

// TestValidateUnmatchedOrder: with several unmatched keys, Validate
// names the same one every time, the first in (from, to, event) order.
func TestValidateUnmatchedOrder(t *testing.T) {
	chip := hw.TrainingChip()
	cases := []struct {
		instrs []Instr
		want   string
	}{
		{
			[]Instr{
				WaitFlag(hw.CompVector, hw.CompCube, 1),
				WaitFlag(hw.CompCube, hw.CompVector, -3),
				WaitFlag(hw.CompCube, hw.CompVector, 2),
				WaitFlag(hw.CompCube, hw.CompVector, 0),
			},
			fmt.Sprintf("for %s->%s ev=-3", hw.CompCube, hw.CompVector),
		},
		{
			[]Instr{
				WaitFlag(hw.CompCube, hw.Component(7), math.MaxInt),
				WaitFlag(hw.CompCube, hw.CompVector, -3),
				WaitFlag(hw.CompCube, hw.CompVector, -5),
				WaitFlag(hw.CompMTEGM, hw.CompVector, -9),
			},
			fmt.Sprintf("for %s->%s ev=-5", hw.CompCube, hw.CompVector),
		},
	}
	for i, c := range cases {
		p := &Program{Name: "orphans", Instrs: c.instrs}
		for rep := 0; rep < 20; rep++ {
			if err := p.Validate(chip); err == nil || !strings.HasSuffix(err.Error(), c.want) {
				t.Fatalf("case %d: got %v, want an error ending %q", i, err, c.want)
			}
		}
	}
}

func TestStats(t *testing.T) {
	p := &Program{Name: "stats"}
	p.Append(
		Compute(hw.Vector, hw.FP16, 100),
		Compute(hw.Vector, hw.FP16, 200),
		Transfer(hw.PathGMToUB, 0, 0, 1000),
		SetFlag(hw.CompMTEGM, hw.CompVector, 0),
		WaitFlag(hw.CompMTEGM, hw.CompVector, 0),
		BarrierAllInstr(),
	)
	s := p.Stat()
	if s.Total != 6 || s.Computes != 2 || s.Transfers != 1 || s.Syncs != 2 || s.Barriers != 1 {
		t.Errorf("stats counts wrong: %+v", s)
	}
	if s.Ops != 300 || s.Bytes != 1000 {
		t.Errorf("stats sums wrong: %+v", s)
	}
}

func TestProgramIntensity(t *testing.T) {
	p := &Program{Name: "ai"}
	p.Append(
		Compute(hw.Cube, hw.FP16, 8000),
		Transfer(hw.PathGMToL1, 0, 0, 1000),    // GM byte
		Transfer(hw.PathL1ToL0A, 0, 0, 1000),   // on-chip: excluded
		Transfer(hw.PathUBToGM, 0, 4096, 1000), // GM byte
	)
	if got := p.Intensity(); got != 4 {
		t.Errorf("intensity = %v, want 4", got)
	}
	empty := &Program{Name: "none"}
	empty.Append(Compute(hw.Vector, hw.FP16, 10))
	if empty.Intensity() != 0 {
		t.Error("no GM traffic must give zero intensity")
	}
}
