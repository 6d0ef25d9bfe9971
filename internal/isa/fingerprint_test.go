package isa_test

import (
	"testing"

	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
	"ascendperf/internal/kernels"
)

// Golden digests. Fingerprint keys the engine's memory and disk caches
// (sim-cache/v1) and the search's episode files, so a change to its
// encoding or hashing silently orphans every persisted entry; these
// values must only move together with a deliberate format bump.
const (
	goldenAddReLUTraining = "d75edc7684c0cd72f00dcc4747a839aaf06e6a8fbdecdaa08843501d2f9c7d09"
	goldenEveryField      = "6e5a55823ddd907fc1a10282d498918b0105afccf34161fba79e8751da26ceb7"
)

func TestFingerprintGoldenAddReLU(t *testing.T) {
	k := kernels.NewAddReLU()
	prog, err := k.Build(hw.TrainingChip(), k.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	if got := prog.Fingerprint(); got != goldenAddReLUTraining {
		t.Errorf("add_relu baseline on training: fingerprint %s, want %s", got, goldenAddReLUTraining)
	}
}

// everyFieldProgram sets every field Fingerprint encodes, including
// labels, multi-region reads and writes, flags and both barrier scopes.
func everyFieldProgram() *isa.Program {
	p := &isa.Program{Name: "golden/every-field"}
	mov := isa.Transfer(hw.Path{Src: hw.GM, Dst: hw.UB}, 64, 128, 4096)
	mov.Label = "load x"
	add := isa.ComputeRepeat(hw.Vector, hw.FP16, 2048, 8)
	add.Label = "vadd"
	add.Reads = []isa.Region{{Level: hw.UB, Off: 128, Size: 4096}, {Level: hw.UB, Off: 8192, Size: 256}}
	add.Writes = []isa.Region{{Level: hw.UB, Off: 16384, Size: 4096}}
	p.Append(
		mov,
		isa.SetFlag(hw.CompMTEGM, hw.CompVector, 3),
		isa.WaitFlag(hw.CompMTEGM, hw.CompVector, 3),
		add,
		isa.BarrierPipeInstr(hw.CompVector),
		isa.Compute(hw.Scalar, hw.INT32, 7),
		isa.Transfer(hw.Path{Src: hw.UB, Dst: hw.GM}, 16384, 1<<20, 4096),
		isa.BarrierAllInstr(),
	)
	return p
}

func TestFingerprintGoldenEveryField(t *testing.T) {
	if got := everyFieldProgram().Fingerprint(); got != goldenEveryField {
		t.Errorf("every-field program: fingerprint %s, want %s", got, goldenEveryField)
	}
}

// TestFingerprintTracksAppend checks the memo: appending to a program
// after fingerprinting it yields the digest of the longer program.
func TestFingerprintTracksAppend(t *testing.T) {
	p := everyFieldProgram()
	short := p.Fingerprint()
	p.Append(isa.Compute(hw.Scalar, hw.INT32, 1))
	long := p.Fingerprint()
	if long == short {
		t.Fatal("fingerprint unchanged after Append")
	}
	fresh := everyFieldProgram()
	fresh.Append(isa.Compute(hw.Scalar, hw.INT32, 1))
	if got := fresh.Fingerprint(); got != long {
		t.Errorf("appended program %s, freshly built equal program %s", long, got)
	}
}

func BenchmarkFingerprint(b *testing.B) {
	k := kernels.NewConv2D()
	chip := hw.TrainingChip()
	base, err := k.Build(chip, k.Baseline())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// A copy carries no memo, so every iteration hashes.
		p := &isa.Program{Name: base.Name, Instrs: base.Instrs}
		_ = p.Fingerprint()
	}
}
