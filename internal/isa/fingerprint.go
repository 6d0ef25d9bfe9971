package isa

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// fpChunk is the encoded size at which Fingerprint flushes its buffer
// into the hash; fpSlack leaves room for one more instruction (at most
// 10 bytes per varint field) so a typical flush never regrows the
// buffer.
const (
	fpChunk = 16 << 10
	fpSlack = 512
)

// Fingerprint returns a stable hex digest of the program: its name and
// the full field content of every instruction in order. Two programs
// with equal fingerprints simulate identically on the same chip, which
// is what makes simulation results memoizable (engine package). The
// encoding is length-prefixed and field-ordered, so it is injective up
// to hash collisions. Integers are zig-zag varints (binary.AppendVarint):
// each is self-delimiting, so the field sequence still decodes uniquely,
// and the small values that dominate programs (kinds, units, levels,
// event ids) take one byte instead of eight: the baseline kernels
// encode in a sixth to an eighth of the fixed-width bytes, so SHA-256
// has that much less to consume.
//
// The digest is memoized per Program: repeated calls on an unmodified
// program return the stored string without rehashing (the memoized
// lookup path of the engine's simulation cache calls this once per
// lookup, and the hash itself dominated the hit path before the memo).
// Appending invalidates the memo via the instruction count.
func (p *Program) Fingerprint() string {
	if m := p.fp.Load(); m != nil && m.n == len(p.Instrs) {
		return m.fp
	}
	// The encoding is appended to one buffer and hashed in large writes;
	// per-field writes into the hash cost more than the hashing itself.
	h := sha256.New()
	buf := make([]byte, 0, fpChunk+fpSlack)
	num := func(v int64) {
		buf = binary.AppendVarint(buf, v)
	}
	str := func(s string) {
		num(int64(len(s)))
		buf = append(buf, s...)
	}
	regions := func(rs []Region) {
		num(int64(len(rs)))
		for _, r := range rs {
			num(int64(r.Level))
			num(r.Off)
			num(r.Size)
		}
	}
	str(p.Name)
	num(int64(len(p.Instrs)))
	for i := range p.Instrs {
		in := &p.Instrs[i]
		num(int64(in.Kind))
		str(in.Label)
		num(int64(in.Unit))
		num(int64(in.Prec))
		num(in.Ops)
		num(int64(in.Repeat))
		num(int64(in.Path.Src))
		num(int64(in.Path.Dst))
		num(in.Bytes)
		regions(in.Reads)
		regions(in.Writes)
		num(int64(in.From))
		num(int64(in.To))
		num(int64(in.EventID))
		num(int64(in.Scope))
		num(int64(in.Pipe))
		if len(buf) >= fpChunk {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	fp := hex.EncodeToString(h.Sum(nil))
	p.fp.Store(&fpMemo{n: len(p.Instrs), fp: fp})
	return fp
}
