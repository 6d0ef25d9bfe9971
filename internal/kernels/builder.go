package kernels

import (
	"fmt"
	"sync"

	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
)

// maxPooledInstrs caps the capacity of a scratch buffer that goes back
// to the pool (about 11 MB of instructions); a larger one is left to
// the garbage collector so one outsized build does not stay resident.
const maxPooledInstrs = 1 << 16

// scratchPool holds instruction buffers for builders between builds.
var scratchPool = sync.Pool{New: func() any { return new([]isa.Instr) }}

// Builder assembles an isa.Program with bump-pointer buffer allocation
// and automatic flag-event management. Errors (e.g. buffer exhaustion)
// are accumulated and surfaced by Program().
//
// Instructions are emitted into a scratch buffer taken from a pool
// shared by all builders, so a build does not grow its stream by
// repeated doubling. Program copies the stream into an exact-size
// slice that the returned program owns, clears the scratch and hands
// it back to the pool, on success and on error alike. The builder
// owns the scratch only until then: Program ends the build, and a
// builder must not be used after it.
type Builder struct {
	chip    *hw.Chip
	name    string
	scratch *[]isa.Instr // pooled; nil once Program has run
	instrs  []isa.Instr  // the stream so far, backed by *scratch
	next    map[hw.Level]int64
	ev      map[[2]hw.Component]int
	err     error
}

// NewBuilder returns a builder for a program with the given name.
func NewBuilder(chip *hw.Chip, name string) *Builder {
	scratch := scratchPool.Get().(*[]isa.Instr)
	return &Builder{
		chip:    chip,
		name:    name,
		scratch: scratch,
		instrs:  (*scratch)[:0],
		next:    map[hw.Level]int64{},
		ev:      map[[2]hw.Component]int{},
	}
}

// fail records the first error.
func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("kernels: %s: %s", b.name, fmt.Sprintf(format, args...))
	}
}

// emit appends one instruction to the stream.
func (b *Builder) emit(in isa.Instr) {
	b.instrs = append(b.instrs, in)
}

// Alloc bump-allocates size bytes in the given buffer level.
func (b *Builder) Alloc(level hw.Level, size int64) isa.Region {
	off := b.next[level]
	if size <= 0 {
		b.fail("allocation of %d bytes in %s", size, level)
		return isa.Region{Level: level}
	}
	if cap, ok := b.chip.BufferSize[level]; !ok || off+size > cap {
		b.fail("buffer %s exhausted: %d + %d > %d", level, off, size, b.chip.BufferSize[level])
		return isa.Region{Level: level}
	}
	b.next[level] = off + size
	return isa.Region{Level: level, Off: off, Size: size}
}

// Free returns the bump pointer of the level to the start of region r if
// r is the most recent allocation. It lets loops reuse scratch space.
func (b *Builder) Free(r isa.Region) {
	if b.next[r.Level] == r.End() {
		b.next[r.Level] = r.Off
	}
}

// Copy emits a transfer of size bytes from src to dst regions. The
// regions' levels must match the path endpoints.
func (b *Builder) Copy(path hw.Path, src, dst isa.Region, label string) {
	if src.Level != path.Src || dst.Level != path.Dst {
		b.fail("copy %s with regions %s -> %s", path, src, dst)
		return
	}
	if src.Size != dst.Size || src.Size <= 0 {
		b.fail("copy %s with mismatched sizes %d -> %d", path, src.Size, dst.Size)
		return
	}
	b.emit(isa.Instr{
		Kind:   isa.KindTransfer,
		Path:   path,
		Bytes:  src.Size,
		Reads:  []isa.Region{src},
		Writes: []isa.Region{dst},
		Label:  label,
	})
}

// Compute emits a compute instruction with explicit memory effects.
func (b *Builder) Compute(u hw.Unit, p hw.Precision, ops int64, repeat int, reads, writes []isa.Region, label string) {
	if ops <= 0 {
		b.fail("compute with %d ops", ops)
		return
	}
	b.emit(isa.Instr{
		Kind:   isa.KindCompute,
		Unit:   u,
		Prec:   p,
		Ops:    ops,
		Repeat: repeat,
		Reads:  reads,
		Writes: writes,
		Label:  label,
	})
}

// ScalarWork emits n scalar bookkeeping instructions (address
// computation, loop control), each performing ops INT32 operations.
func (b *Builder) ScalarWork(n int, ops int64) {
	for i := 0; i < n; i++ {
		b.emit(isa.Compute(hw.Scalar, hw.INT32, ops))
	}
}

// NewEvent reserves a fresh flag-event id between two components.
func (b *Builder) NewEvent(from, to hw.Component) int {
	k := [2]hw.Component{from, to}
	id := b.ev[k]
	b.ev[k] = id + 1
	return id
}

// Set emits a set_flag.
func (b *Builder) Set(from, to hw.Component, event int) {
	b.emit(isa.SetFlag(from, to, event))
}

// Wait emits a wait_flag.
func (b *Builder) Wait(from, to hw.Component, event int) {
	b.emit(isa.WaitFlag(from, to, event))
}

// Barrier emits pipe_barrier(PIPE_ALL).
func (b *Builder) Barrier() {
	b.emit(isa.BarrierAllInstr())
}

// StageSync separates two pipeline stages. With minimalSync it emits a
// fine-grained set/wait pair on a fresh event; otherwise it emits a full
// pipe_barrier(PIPE_ALL), the over-synchronization RUS removes.
func (b *Builder) StageSync(from, to hw.Component, minimalSync bool) {
	if minimalSync {
		ev := b.NewEvent(from, to)
		b.Set(from, to, ev)
		b.Wait(from, to, ev)
	} else {
		b.Barrier()
	}
}

// Program finalizes the build: it returns the validated program, or
// the first error the build recorded. It releases the builder's
// scratch buffer, so it may be called only once.
func (b *Builder) Program() (*isa.Program, error) {
	if b.scratch == nil {
		return nil, fmt.Errorf("kernels: %s: Program called twice", b.name)
	}
	defer b.release()
	if b.err != nil {
		return nil, b.err
	}
	prog := &isa.Program{Name: b.name, Instrs: make([]isa.Instr, len(b.instrs))}
	copy(prog.Instrs, b.instrs)
	if err := prog.Validate(b.chip); err != nil {
		return nil, err
	}
	return prog, nil
}

// release zeroes the scratch buffer, so the pool pins no labels or
// regions of the finished program, and returns it to the pool unless it
// outgrew maxPooledInstrs.
func (b *Builder) release() {
	clear(b.instrs)
	if cap(b.instrs) <= maxPooledInstrs {
		*b.scratch = b.instrs[:0]
		scratchPool.Put(b.scratch)
	}
	b.scratch, b.instrs = nil, nil
}

// Used returns the bytes currently allocated in the level.
func (b *Builder) Used(level hw.Level) int64 { return b.next[level] }
