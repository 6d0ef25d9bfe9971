package isa_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
	"ascendperf/internal/kernels"
)

// Golden digests. Fingerprint keys the engine's memory and disk caches
// (sim-cache/v2) and the search's episode files (episodes/v2), so a
// change to its encoding or hashing silently orphans every persisted
// entry; these values must only move together with a deliberate format
// bump of both schemas.
const (
	goldenAddReLUTraining = "f808903939c45bf43fde7c563ca22f6753cd5225ae6c5be774d446c31ca08c9e"
	goldenEveryField      = "9ec5a43a071894adfcfb2cc580f164e2aded61490f07e37456aa3b35d32446ee"
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

// field is one integer cell of a program's encoding, bound to a
// program it reads and writes.
type field struct {
	name string
	get  func() int64
	set  func(int64)
}

// intFields lists every integer field Fingerprint encodes, instruction
// by instruction, region by region.
func intFields(p *isa.Program) []field {
	var fs []field
	add := func(name string, get func() int64, set func(int64)) {
		fs = append(fs, field{name, get, set})
	}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		at := func(f string) string { return fmt.Sprintf("[%d].%s", i, f) }
		add(at("Kind"), func() int64 { return int64(in.Kind) }, func(v int64) { in.Kind = isa.Kind(v) })
		add(at("Unit"), func() int64 { return int64(in.Unit) }, func(v int64) { in.Unit = hw.Unit(v) })
		add(at("Prec"), func() int64 { return int64(in.Prec) }, func(v int64) { in.Prec = hw.Precision(v) })
		add(at("Ops"), func() int64 { return in.Ops }, func(v int64) { in.Ops = v })
		add(at("Repeat"), func() int64 { return int64(in.Repeat) }, func(v int64) { in.Repeat = int(v) })
		add(at("Path.Src"), func() int64 { return int64(in.Path.Src) }, func(v int64) { in.Path.Src = hw.Level(v) })
		add(at("Path.Dst"), func() int64 { return int64(in.Path.Dst) }, func(v int64) { in.Path.Dst = hw.Level(v) })
		add(at("Bytes"), func() int64 { return in.Bytes }, func(v int64) { in.Bytes = v })
		add(at("From"), func() int64 { return int64(in.From) }, func(v int64) { in.From = hw.Component(v) })
		add(at("To"), func() int64 { return int64(in.To) }, func(v int64) { in.To = hw.Component(v) })
		add(at("EventID"), func() int64 { return int64(in.EventID) }, func(v int64) { in.EventID = int(v) })
		add(at("Scope"), func() int64 { return int64(in.Scope) }, func(v int64) { in.Scope = isa.BarrierScope(v) })
		add(at("Pipe"), func() int64 { return int64(in.Pipe) }, func(v int64) { in.Pipe = hw.Component(v) })
		for _, rs := range []struct {
			name string
			rs   []isa.Region
		}{{"Reads", in.Reads}, {"Writes", in.Writes}} {
			for j := range rs.rs {
				r := &rs.rs[j]
				rat := func(f string) string { return at(fmt.Sprintf("%s[%d].%s", rs.name, j, f)) }
				add(rat("Level"), func() int64 { return int64(r.Level) }, func(v int64) { r.Level = hw.Level(v) })
				add(rat("Off"), func() int64 { return r.Off }, func(v int64) { r.Off = v })
				add(rat("Size"), func() int64 { return r.Size }, func(v int64) { r.Size = v })
			}
		}
	}
	return fs
}

// TestFingerprintFieldInjective changes one field of everyFieldProgram
// at a time to values at the edges of the varint encoding and checks
// that every variant hashes apart from the original and from each
// other.
func TestFingerprintFieldInjective(t *testing.T) {
	base := everyFieldProgram().Fingerprint()
	seen := map[string]string{base: "original"}
	n := len(intFields(everyFieldProgram()))
	for fi := 0; fi < n; fi++ {
		for _, v := range []int64{0, 1, -1, 1 << 40, -1 << 40, math.MinInt64} {
			p := everyFieldProgram()
			f := intFields(p)[fi]
			if f.get() == v {
				continue
			}
			f.set(v)
			if f.get() != v {
				continue // v does not fit the field's type on this platform
			}
			name := fmt.Sprintf("%s=%d", f.name, v)
			fp := p.Fingerprint()
			if prev, dup := seen[fp]; dup {
				t.Errorf("%s hashes like %s", name, prev)
			}
			seen[fp] = name
		}
	}
	if len(seen) < 2*n {
		t.Fatalf("only %d distinct variants over %d fields", len(seen), n)
	}
}

// TestFingerprintLabelsAreDelimited builds two programs whose encodings
// would be byte-identical without the labels' length prefixes: in one,
// a label swallows the bytes of the fields that follow it in the other.
// The length prefixes must keep them apart.
func TestFingerprintLabelsAreDelimited(t *testing.T) {
	varints := func(vs ...int64) string {
		var b []byte
		for _, v := range vs {
			b = binary.AppendVarint(b, v)
		}
		return string(b)
	}
	regions := func(rs []isa.Region) string {
		s := varints(int64(len(rs)))
		for _, r := range rs {
			s += varints(int64(r.Level), r.Off, r.Size)
		}
		return s
	}
	// tail is the encoding of the fields after an instruction's label.
	tail := func(in isa.Instr) string {
		return varints(int64(in.Unit), int64(in.Prec), in.Ops, int64(in.Repeat),
			int64(in.Path.Src), int64(in.Path.Dst), in.Bytes) +
			regions(in.Reads) + regions(in.Writes) +
			varints(int64(in.From), int64(in.To), int64(in.EventID), int64(in.Scope), int64(in.Pipe))
	}
	unprefixed := func(p *isa.Program) string {
		s := p.Name + varints(int64(len(p.Instrs)))
		for _, in := range p.Instrs {
			s += varints(int64(in.Kind)) + in.Label + tail(in)
		}
		return s
	}

	a := isa.Compute(hw.Vector, hw.FP16, 2048)
	a.Label = "vadd"
	b := isa.Transfer(hw.Path{Src: hw.GM, Dst: hw.UB}, 0, 128, 4096)
	c := isa.ComputeRepeat(hw.Vector, hw.FP16, 4096, 8)
	// p: a, then b whose label holds c's fields and b's kind.
	p := &isa.Program{Name: "delimited"}
	bl := b
	bl.Label = tail(c) + varints(int64(b.Kind))
	p.Append(a, bl)
	// q: c, whose label holds a's label, a's fields and b's kind, then b
	// unlabelled.
	q := &isa.Program{Name: "delimited"}
	cl := c
	cl.Label = a.Label + tail(a) + varints(int64(b.Kind))
	q.Append(cl, b)

	if unprefixed(p) != unprefixed(q) {
		t.Fatal("construction broken: the unprefixed encodings differ")
	}
	if p.Fingerprint() == q.Fingerprint() {
		t.Error("programs that differ only in where labels end share a fingerprint")
	}
}

// sameProgram reports whether two programs are field-for-field equal,
// treating nil and empty region lists alike (both encode as length 0).
func sameProgram(a, b *isa.Program) bool {
	norm := func(rs []isa.Region) []isa.Region {
		if len(rs) == 0 {
			return nil
		}
		return rs
	}
	return a.Name == b.Name && slices.EqualFunc(a.Instrs, b.Instrs, func(x, y isa.Instr) bool {
		x.Reads, x.Writes = norm(x.Reads), norm(x.Writes)
		y.Reads, y.Writes = norm(y.Reads), norm(y.Writes)
		return reflect.DeepEqual(x, y)
	})
}

// FuzzFingerprint parses two programs and checks that their digests are
// equal exactly when the programs are field-for-field equal.
func FuzzFingerprint(f *testing.F) {
	every := everyFieldProgram().Disassemble()
	f.Add(every, every)
	f.Add(every, strings.Replace(every, "; vadd", "; vad", 1))
	f.Add("copy GM->UB bytes=1024\n", "copy GM->UB bytes=1024 ; \n")
	f.Add("Vector.FP16 ops=100 repeat=1\n", "  Vector.FP16   ops=100 repeat=1\n")
	f.Add("set_flag MTE-GM->Vector ev=1\n", "set_flag MTE-GM->Vector ev=-1\n")
	f.Fuzz(func(t *testing.T, a, b string) {
		pa, err := isa.Parse("fuzz", strings.NewReader(a))
		if err != nil {
			return
		}
		pb, err := isa.Parse("fuzz", strings.NewReader(b))
		if err != nil {
			return
		}
		same, equalFP := sameProgram(pa, pb), pa.Fingerprint() == pb.Fingerprint()
		if same != equalFP {
			t.Fatalf("field-equal %v but fingerprints equal %v\n--- a:\n%s--- b:\n%s",
				same, equalFP, pa.Disassemble(), pb.Disassemble())
		}
	})
}
