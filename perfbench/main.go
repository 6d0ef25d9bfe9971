// Command perfbench is the repository's benchmark: three seeded
// workloads that drive the stack end to end and, in a separate traced
// run, split the time by layer.
//
//	bash perfbench/run.sh --workload offline-synth --seed 1 --seconds 25 --trace 0
//
// It runs from the repository root, builds nothing itself (run.sh does)
// and writes only under .bench_build/. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"},
// with the end-to-end metrics untraced and the per-layer metrics traced.
// NOTES.md records the workloads, the metric definitions and the
// findings.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// maxProcs caps GOMAXPROCS so figures taken on larger hosts stay
// comparable with the 2-core reference host.
const maxProcs = 2

// tailP is the tail percentile tail_ms reports. Every workload has well
// over ten samples beyond it; p99 sits among the rare misses and
// collisions with them, and on a shared 2-core host swings more from run
// to run than any bound worth having (NOTES.md).
const tailP = 0.9

// setupRepeats is how many times a workload builds its set-up state;
// setup_s is the median.
const setupRepeats = 21

// env is what a workload run receives.
type env struct {
	seed    int64
	measure time.Duration
	tr      *tracer // nil when untraced
	tmp     string  // private scratch directory inside the checkout
	log     io.Writer
}

// outcome is what a workload run measured.
type outcome struct {
	attempted, failed int
	// setup holds one duration per set-up repeat.
	setup []time.Duration
	// throughput and warm are work items per second on the cold and
	// warm paths.
	throughput, warm float64
	// p50 and tail are the per-item latency figures, ms.
	p50, tail  float64
	peakHeapMB float64
	// layers holds the per-layer metrics of a traced run.
	layers map[string]float64
	// digest is the hash over the workload's checked outputs.
	digest string
	notes  []string
}

// workload is one benchmark workload; BENCHMARK.json says why each was
// chosen.
type workload struct {
	name string
	run  func(e *env) (*outcome, error)
}

var workloads = []workload{
	{"offline-synth", runOffline},
	{"tune-search", runTune},
	{"serve-zipf", runServe},
}

// metricSpec declares one reported metric.
type metricSpec struct {
	name, unit string
}

// endToEnd are the untraced metrics every workload reports.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
	{"throughput_per_s", "1/s"},
	{"warm_throughput_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
}

// perLayer are the traced metrics; a workload that does not drive a
// layer reports 0 for it.
var perLayer = []metricSpec{
	{"sim.instr_per_s", "1/s"},
	{"sim.instrs", "count/op"},
	{"sim.events", "count/op"},
	{"engine.sim_ms", "ms/op"},
	{"engine.hit_rate", "ratio"},
	{"engine.evictions", "count/op"},
	{"kernels.build_ms", "ms/op"},
	{"core.analyze_ms", "ms/op"},
	{"critpath.ms", "ms/op"},
	{"model.self_ms", "ms/op"},
	{"opt.optimize_ms", "ms/op"},
	{"opt.dedup_hits", "count/op"},
	{"graph.run_ms", "ms/op"},
	{"graph.overlap", "ratio"},
	{"opt.exact_sims", "count/op"},
	{"opt.warm_exact_sims", "count/op"},
	{"opt.search_ms", "ms/op"},
	{"opt.episode_load_ms", "ms/op"},
	{"surrogate.accept_rate", "ratio"},
	{"surrogate.predict_ns", "ns"},
	{"cluster.canonical_us", "us"},
	{"cluster.router_self_us", "us"},
	{"cluster.dedup_share", "ratio"},
	{"cluster.stats_overcount", "ratio"},
	{"serve.shard_us.resp_hit", "us"},
	{"serve.shard_us.l2_hit", "us"},
	{"serve.shard_us.miss", "us"},
	{"serve.resp_hit_rate", "ratio"},
	{"serve.l2_hit_rate", "ratio"},
	{"serve.coalesced_share", "ratio"},
	{"serve.shed", "count"},
	{"serve.max_qps_slo", "1/s"},
	{"serve.p50_ms.low", "ms"},
	{"serve.p99_ms.low", "ms"},
	{"serve.p50_ms.high", "ms"},
	{"serve.p99_ms.high", "ms"},
	{"l2.get_us", "us"},
	{"l2.put_us", "us"},
	{"client.residual_us", "us"},
	{"client.late_p99_ms", "ms"},
	{"go.gc_pause_ms", "ms"},
	{"go.alloc_kb_per_op", "KB/op"},
	{"trace.overhead_ms", "ms/op"},
	{"unaccounted_ms", "ms/op"},
}

// zeroLayers returns every per-layer metric at 0, for a workload to
// fill in the layers it drives.
func zeroLayers() map[string]float64 {
	l := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		l[m.name] = 0
	}
	return l
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run: offline-synth, tune-search or serve-zipf")
	seed := fl.Int64("seed", 1, "input seed")
	seconds := fl.Int("seconds", 20, "measured seconds")
	trace := fl.Int("trace", 0, "1 for the traced per-layer run")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	if err := checkRoot(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), maxProcs))

	tmp, err := os.MkdirTemp(scratchRoot(), w.name+"-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	e := &env{seed: *seed, measure: time.Duration(*seconds) * time.Second, tmp: tmp, log: stderr}
	if *trace == 1 {
		e.tr = newTracer()
	}
	steal0, _ := readSteal()
	out, err := w.run(e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	res, err := report(e, out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	rec := record{Host: hostInfo(*seed, steal0), Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Digest: out.digest, Result: res, Notes: out.notes}
	if e.tr != nil {
		path := filepath.Join(scratchRoot(), fmt.Sprintf("trace-%s-%d.json", w.name, *seed))
		if err := e.tr.write(path); err != nil {
			fmt.Fprintln(stderr, "perfbench: write trace:", err)
			return 1
		}
		rec.TraceFile = path
	}
	printHuman(stdout, rec)
	line, _ := json.Marshal(rec)
	fmt.Fprintf(stdout, "record %s\n", line)
	line, _ = json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// report turns an outcome into the contract line.
func report(e *env, out *outcome) (result, error) {
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	if out.attempted < 1 {
		return res, errors.New("no work attempted")
	}
	if e.tr != nil {
		for _, m := range perLayer {
			v, ok := out.layers[m.name]
			if !ok {
				return res, fmt.Errorf("layer metric %s not measured", m.name)
			}
			res.Metrics[m.name] = metricValue{v, m.unit}
		}
		return res, nil
	}
	setup := make([]float64, len(out.setup))
	for i, d := range out.setup {
		setup[i] = d.Seconds()
	}
	vals := map[string]float64{
		"setup_s":               median(setup),
		"peak_heap_mb":          out.peakHeapMB,
		"throughput_per_s":      out.throughput,
		"warm_throughput_per_s": out.warm,
		"p50_ms":                out.p50,
		"tail_ms":               out.tail,
	}
	for _, m := range endToEnd {
		if vals[m.name] <= 0 {
			return res, fmt.Errorf("metric %s is %v; every end-to-end metric must be positive", m.name, vals[m.name])
		}
		res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
	}
	return res, nil
}

// latencies sets p50 and tail from per-item latency samples.
func (o *outcome) latencies(lat []float64) error {
	var err error
	if o.p50, err = percentile(lat, 0.5); err != nil {
		return err
	}
	if o.tail, err = percentile(lat, tailP); err != nil {
		return err
	}
	o.notes = append(o.notes, fmt.Sprintf("tail_ms is p%g of %d samples", 100*tailP, len(lat)))
	return nil
}

// record is the full result line: host, inputs, digest and notes.
type record struct {
	Host      host     `json:"host"`
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   int      `json:"seconds"`
	Trace     bool     `json:"trace"`
	Digest    string   `json:"digest"`
	Result    result   `json:"result"`
	Notes     []string `json:"notes,omitempty"`
	TraceFile string   `json:"trace_file,omitempty"`
}

type host struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	Seed       int64  `json:"seed"`
	// StealShare is the share of CPU time the hypervisor gave to other
	// guests during the run (-1 where /proc/stat is unreadable): a run
	// with a high share measured a busy host, not the code.
	StealShare float64 `json:"steal_share"`
}

func hostInfo(seed int64, steal0 [2]uint64) host {
	h := host{
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		SourceHash: sourceHash(),
		Seed:       seed,
		StealShare: -1,
	}
	if steal1, ok := readSteal(); ok && steal0[1] > 0 && steal1[1] > steal0[1] {
		h.StealShare = float64(steal1[0]-steal0[0]) / float64(steal1[1]-steal0[1])
	}
	return h
}

// readSteal returns the host's cumulative steal and total CPU ticks.
func readSteal() ([2]uint64, bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return [2]uint64{}, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return [2]uint64{}, false
	}
	var steal, total uint64
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return [2]uint64{}, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return [2]uint64{steal, total}, true
}

// commit names the source revision: the VCS stamp when the binary has
// one, else git, else "unknown" (a plain source export has neither;
// source_sha256 still identifies the tree).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if _, err := os.Stat(".git"); err != nil {
		return "unknown" // not a checkout of its own; git would search the parents
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// sourceHash hashes every Go source and go.mod under the repository
// root, in path order, skipping the build directory.
func sourceHash() string {
	h := sha256.New()
	var paths []string
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (p == ".bench_build" || p == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || filepath.Base(p) == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checkRoot refuses to run outside a repository checkout.
func checkRoot() error {
	for _, f := range []string{"go.mod", "MODEL_surrogate.json", "internal/sim/sim.go"} {
		if _, err := os.Stat(f); err != nil {
			return fmt.Errorf("not at the repository root (%s missing)", f)
		}
	}
	return nil
}

// scratchRoot is the benchmark's writable area inside the checkout.
func scratchRoot() string {
	dir := filepath.Join(".bench_build", "perfbench")
	os.MkdirAll(dir, 0o755)
	return dir
}

func printHuman(w io.Writer, rec record) {
	h := rec.Host
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d trace=%v\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace)
	fmt.Fprintf(w, "host: cores=%d gomaxprocs=%d go=%s commit=%s source=%s steal=%.3f\n", h.Cores, h.GOMAXPROCS, h.GoVersion, h.Commit, h.SourceHash, h.StealShare)
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d digest=%s\n", rec.Result.Correct, rec.Result.Attempted, rec.Result.Failed, rec.Digest)
	names := make([]string, 0, len(rec.Result.Metrics))
	for n := range rec.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Result.Metrics[n]
		fmt.Fprintf(w, "  %-26s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range rec.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}
