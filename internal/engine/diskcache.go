package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
	"ascendperf/internal/profile"
)

// DiskCache persists simulation results across process runs: one JSON
// file per (chip, program, sim options) fingerprint key under a cache
// directory. Successive CLI invocations (ascendbench, ascendopt,
// ascendcheck pointed at the same -cachedir, or any tool run with
// ASCENDPERF_CACHE_DIR set) then warm-start instead of re-simulating.
//
// The simulator is a pure function of its fingerprinted inputs and the
// stored float64 fields survive a JSON round trip bit-exactly (Go
// marshals floats in shortest-round-trip form), so a disk hit is
// byte-identical to a fresh simulation. Entries record their full key;
// a load whose recorded key mismatches (hash collision, truncated or
// foreign file) is treated as a miss, never served. Writes go to a
// temp file in the cache directory and are renamed into place, so
// concurrent processes sharing a directory see only complete entries.
// I/O errors are never fatal: a failed load is a miss, a failed store
// is dropped (and counted).
type DiskCache struct {
	dir    string
	hits   atomic.Uint64
	misses atomic.Uint64
	writes atomic.Uint64
	errors atomic.Uint64
}

// DiskCacheStats is an observability snapshot of a disk cache.
type DiskCacheStats struct {
	// Dir is the cache directory ("" when no disk cache is configured).
	Dir string
	// Hits and Misses count lookups; Writes counts entries persisted;
	// Errors counts dropped stores and unreadable entries.
	Hits, Misses, Writes, Errors uint64
}

// NewDiskCache opens (creating if needed) a disk cache rooted at dir.
func NewDiskCache(dir string) (*DiskCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("engine: disk cache: %w", err)
	}
	return &DiskCache{dir: dir}, nil
}

// Stats returns a snapshot of the disk cache counters.
func (d *DiskCache) Stats() DiskCacheStats {
	return DiskCacheStats{
		Dir:    d.dir,
		Hits:   d.hits.Load(),
		Misses: d.misses.Load(),
		Writes: d.writes.Load(),
		Errors: d.errors.Load(),
	}
}

// path maps a cache key to its file: keys embed full fingerprints and
// are unbounded, so the filename is the hex SHA-256 of the key.
func (d *DiskCache) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(d.dir, hex.EncodeToString(sum[:])+".json")
}

// diskEntry is the on-disk record. Profile maps are keyed by structs
// (hw.Path, hw.UnitPrec), which encoding/json cannot use as object
// keys, so the entry flattens them into arrays.
type diskEntry struct {
	Schema  string      `json:"schema"`
	Key     string      `json:"key"`
	Profile diskProfile `json:"profile"`
}

const diskSchema = "ascendperf/sim-cache/v2"

type diskProfile struct {
	Name       string     `json:"name"`
	TotalTime  float64    `json:"total_time_ns"`
	Busy       []float64  `json:"busy_ns"`
	InstrCount []int      `json:"instr_count"`
	Paths      []diskPath `json:"paths,omitempty"`
	Precs      []diskPrec `json:"precs,omitempty"`
	Spans      []diskSpan `json:"spans,omitempty"`
	HasSpans   bool       `json:"has_spans"`
}

// diskPath and diskPrec flatten one map key's entries; the presence
// flags record which of the paired maps held the key, so a zero value
// and an absent key round-trip distinguishably.
type diskPath struct {
	Src      int     `json:"src"`
	Dst      int     `json:"dst"`
	Bytes    int64   `json:"bytes"`
	Busy     float64 `json:"busy_ns"`
	HasBytes bool    `json:"has_bytes"`
	HasBusy  bool    `json:"has_busy"`
}

type diskPrec struct {
	Unit    int     `json:"unit"`
	Prec    int     `json:"prec"`
	Ops     int64   `json:"ops"`
	Busy    float64 `json:"busy_ns"`
	HasOps  bool    `json:"has_ops"`
	HasBusy bool    `json:"has_busy"`
}

type diskSpan struct {
	Comp  int     `json:"comp"`
	Kind  int     `json:"kind"`
	Index int     `json:"index"`
	Start float64 `json:"start_ns"`
	End   float64 `json:"end_ns"`
	Label string  `json:"label,omitempty"`
}

// load returns the cached profile for key, or nil on any miss
// (absent, unreadable, schema or key mismatch).
func (d *DiskCache) load(key string) *profile.Profile {
	data, err := os.ReadFile(d.path(key))
	if err != nil {
		d.misses.Add(1)
		return nil
	}
	var e diskEntry
	if err := json.Unmarshal(data, &e); err != nil ||
		e.Schema != diskSchema || e.Key != key {
		d.misses.Add(1)
		d.errors.Add(1)
		return nil
	}
	d.hits.Add(1)
	return e.Profile.toProfile()
}

// store persists prof under key; failures are counted and dropped.
func (d *DiskCache) store(key string, prof *profile.Profile) {
	e := diskEntry{Schema: diskSchema, Key: key, Profile: fromProfile(prof)}
	data, err := json.Marshal(e)
	if err != nil {
		d.errors.Add(1)
		return
	}
	tmp, err := os.CreateTemp(d.dir, "tmp-*.json")
	if err != nil {
		d.errors.Add(1)
		return
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		d.errors.Add(1)
		return
	}
	if err := os.Rename(tmp.Name(), d.path(key)); err != nil {
		os.Remove(tmp.Name())
		d.errors.Add(1)
		return
	}
	d.writes.Add(1)
}

func fromProfile(p *profile.Profile) diskProfile {
	dp := diskProfile{
		Name:       p.Name,
		TotalTime:  p.TotalTime,
		Busy:       append([]float64(nil), p.Busy[:]...),
		InstrCount: append([]int(nil), p.InstrCount[:]...),
		HasSpans:   p.HasSpans(),
	}
	// Paths and precisions merge the byte/op and busy maps; iterate the
	// union so an entry present in only one map still round-trips.
	for path := range p.PathBytes {
		busy, hasBusy := p.PathBusy[path]
		dp.Paths = append(dp.Paths, diskPath{
			Src: int(path.Src), Dst: int(path.Dst),
			Bytes: p.PathBytes[path], Busy: busy,
			HasBytes: true, HasBusy: hasBusy,
		})
	}
	for path, busy := range p.PathBusy {
		if _, ok := p.PathBytes[path]; !ok {
			dp.Paths = append(dp.Paths, diskPath{
				Src: int(path.Src), Dst: int(path.Dst),
				Busy: busy, HasBusy: true,
			})
		}
	}
	for up := range p.PrecOps {
		busy, hasBusy := p.PrecBusy[up]
		dp.Precs = append(dp.Precs, diskPrec{
			Unit: int(up.Unit), Prec: int(up.Prec),
			Ops: p.PrecOps[up], Busy: busy,
			HasOps: true, HasBusy: hasBusy,
		})
	}
	for up, busy := range p.PrecBusy {
		if _, ok := p.PrecOps[up]; !ok {
			dp.Precs = append(dp.Precs, diskPrec{
				Unit: int(up.Unit), Prec: int(up.Prec),
				Busy: busy, HasBusy: true,
			})
		}
	}
	for s := range p.Spans() {
		dp.Spans = append(dp.Spans, diskSpan{
			Comp: int(s.Comp), Kind: int(s.Kind), Index: s.Index,
			Start: s.Start, End: s.End, Label: s.Label,
		})
	}
	return dp
}

func (dp diskProfile) toProfile() *profile.Profile {
	p := profile.New(dp.Name)
	p.TotalTime = dp.TotalTime
	copy(p.Busy[:], dp.Busy)
	copy(p.InstrCount[:], dp.InstrCount)
	for _, e := range dp.Paths {
		path := hw.Path{Src: hw.Level(e.Src), Dst: hw.Level(e.Dst)}
		if e.HasBytes {
			p.PathBytes[path] = e.Bytes
		}
		if e.HasBusy {
			p.PathBusy[path] = e.Busy
		}
	}
	for _, e := range dp.Precs {
		up := hw.UnitPrec{Unit: hw.Unit(e.Unit), Prec: hw.Precision(e.Prec)}
		if e.HasOps {
			p.PrecOps[up] = e.Ops
		}
		if e.HasBusy {
			p.PrecBusy[up] = e.Busy
		}
	}
	if dp.HasSpans {
		// Normalize: a KeepSpans profile has a non-nil (possibly empty)
		// timeline, and downstream consumers key off that.
		q := &profile.SpanSeq{}
		q.Grow(len(dp.Spans))
		p.Timeline = q
		for _, s := range dp.Spans {
			q.Append(profile.Span{
				Comp: hw.Component(s.Comp), Kind: isa.Kind(s.Kind),
				Index: s.Index, Start: s.Start, End: s.End, Label: s.Label,
			})
		}
	}
	return p
}

// diskCache is the process-wide disk cache, nil when not configured.
var diskCache atomic.Pointer[DiskCache]

func init() {
	if dir := os.Getenv("ASCENDPERF_CACHE_DIR"); dir != "" {
		if d, err := NewDiskCache(dir); err == nil {
			diskCache.Store(d)
		}
	}
}

// SetDiskCacheDir configures the process-wide disk cache directory used
// by Simulate; dir == "" disables it. Command line tools wire their
// -cachedir flag here; the ASCENDPERF_CACHE_DIR environment variable
// provides the same default at process start.
func SetDiskCacheDir(dir string) error {
	if dir == "" {
		diskCache.Store(nil)
		return nil
	}
	d, err := NewDiskCache(dir)
	if err != nil {
		return err
	}
	diskCache.Store(d)
	return nil
}

// DefaultDiskCache returns the process-wide disk cache, or nil when no
// directory is configured.
func DefaultDiskCache() *DiskCache {
	return diskCache.Load()
}

// SwapDiskCache replaces the process-wide disk cache with d (nil
// disables) and returns the previous one. Benchmarks that must time raw
// simulation use it to bracket their measurement passes and restore the
// configured cache afterwards.
func SwapDiskCache(d *DiskCache) *DiskCache {
	return diskCache.Swap(d)
}
