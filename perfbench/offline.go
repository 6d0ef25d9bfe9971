package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"sort"
	"time"

	"ascendperf/internal/core"
	"ascendperf/internal/critpath"
	"ascendperf/internal/engine"
	"ascendperf/internal/graph"
	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
	"ascendperf/internal/kernels"
	"ascendperf/internal/model"
	"ascendperf/internal/opt"
	"ascendperf/internal/sim"
)

const (
	// offlineSuite is the number of synthetic models generated per run,
	// more than one run analyses, so the cold loop never revisits one.
	offlineSuite = 3000
	// offlineTopN is how many operator types OptimizeTop optimizes.
	offlineTopN = 3
	// offlineCores is the graph schedule's core count.
	offlineCores = 4
	// offlineWarmShare is the share of the measured time given to the
	// warm phase.
	offlineWarmShare = 0.2
	// offlineDigestN is how many leading models the run digest covers:
	// every run reaches them, so digests compare across runs.
	offlineDigestN = 20
	// offlineRecheck is how many leading models are re-run with the
	// engine cache off after measuring; their results must not change.
	offlineRecheck = 3
)

// presets are the chips every workload rotates through.
func presets() []*hw.Chip {
	return []*hw.Chip{hw.TrainingChip(), hw.InferenceChip(), hw.TPUStyleChip()}
}

// offlineSuiteFor generates the run's synthetic models from the seed.
func offlineSuiteFor(seed int64, n int) []*model.Model {
	g := &model.Generator{Rng: rand.New(rand.NewSource(seed))}
	return g.GenerateSuite("synth", n)
}

type offlineState struct {
	chips   []*hw.Chip
	runners []*model.Runner
	suite   []*model.Model
}

func offlineSetup(seed int64) *offlineState {
	st := &offlineState{chips: presets(), suite: offlineSuiteFor(seed, offlineSuite)}
	for _, c := range st.chips {
		st.runners = append(st.runners, model.NewRunner(c))
	}
	return st
}

// offlineResult is one model's checked output.
type offlineResult struct {
	run   *model.RunResult
	sched *graph.Schedule
}

// digestInto hashes every simulated makespan and bottleneck cause of the
// model run and the graph schedule's makespans.
func (r offlineResult) digestInto(h hash.Hash) {
	fmt.Fprintf(h, "%s|%s\n", r.run.Model.Name, r.run.Chip)
	for _, o := range r.run.Ops {
		fmt.Fprintf(h, "%s %d %x %x %s %s %v\n", o.Name, o.Count,
			math.Float64bits(o.BaselineTime), math.Float64bits(o.OptimizedTime),
			o.BaselineCause, o.OptimizedCause, o.Applied)
	}
	s := r.sched
	fmt.Fprintf(h, "graph %x %x %x %d %v\n", math.Float64bits(s.MakespanNS), math.Float64bits(s.SerialNS),
		math.Float64bits(s.TransferNS), s.CrossCoreEdges, s.SerialFallback)
}

func (r offlineResult) digest() string {
	h := sha256.New()
	r.digestInto(h)
	return hex.EncodeToString(h.Sum(nil))
}

// analyse is the program's own path for one model: OptimizeTop, then the
// multi-core graph schedule.
func (st *offlineState) analyse(ci int, m *model.Model) (offlineResult, error) {
	res, err := st.runners[ci].OptimizeTop(m, offlineTopN)
	if err != nil {
		return offlineResult{}, err
	}
	sched, err := graph.Run(st.chips[ci], m, graph.Options{Cores: offlineCores})
	if err != nil {
		return offlineResult{}, err
	}
	return offlineResult{res, sched}, nil
}

// offlineTrace accumulates what the traced steps measure besides spans.
type offlineTrace struct {
	simNS     time.Duration // time inside the baseline engine.Simulate calls
	simInstrs uint64        // instructions those calls simulated
	overlap   float64       // summed graph overlap efficiency
	models    int
}

// analyseTraced walks the layers OptimizeTop drives one public call at
// a time, in its order, with a span around each: baseline build,
// engine simulation, classification and the critical-path proxy per
// operator, then the optimizer on the top operators. OptimizeTop itself
// then runs over warm caches, so its span is the model layer's own
// work; the graph schedule follows. Results are those of analyse.
func (st *offlineState) analyseTraced(tr *tracer, acc *offlineTrace, ci int, m *model.Model) (offlineResult, error) {
	chip := st.chips[ci]
	root := tr.begin("step", -1)
	defer tr.end(root)
	th := st.runners[ci].Thresholds
	weights := make([]float64, len(m.Ops))
	for i, inst := range m.Ops {
		var prog *isa.Program
		if err := tr.do("kernels", root, func() (err error) {
			prog, err = kernels.BuildCached(chip, inst.Kernel, inst.Kernel.Baseline())
			return err
		}); err != nil {
			return offlineResult{}, err
		}
		before := sim.ReadCounters().Starts
		t0 := time.Now()
		sid := tr.begin("engine", root)
		prof, err := engine.Simulate(chip, prog, sim.Options{})
		tr.end(sid)
		acc.simNS += time.Since(t0)
		acc.simInstrs += sim.ReadCounters().Starts - before
		if err != nil {
			return offlineResult{}, err
		}
		tr.do("core", root, func() error { core.Analyze(prof, chip, th); return nil })
		tr.do("critpath", root, func() error { critpath.Proxy(chip, prog); return nil })
		weights[i] = prof.TotalTime * float64(inst.Count)
	}
	order := make([]int, len(m.Ops))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return weights[order[a]] > weights[order[b]] })
	if err := tr.do("opt", root, func() error {
		o := opt.New(chip)
		o.Thresholds = th
		for _, i := range order[:min(offlineTopN, len(order))] {
			if _, err := o.Optimize(m.Ops[i].Kernel); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return offlineResult{}, err
	}
	var res offlineResult
	var err error
	if err := tr.do("model", root, func() error {
		res.run, err = st.runners[ci].OptimizeTop(m, offlineTopN)
		return err
	}); err != nil {
		return offlineResult{}, err
	}
	if err := tr.do("graph", root, func() error {
		res.sched, err = graph.Run(chip, m, graph.Options{Cores: offlineCores})
		return err
	}); err != nil {
		return offlineResult{}, err
	}
	acc.overlap += res.sched.OverlapEfficiency()
	acc.models++
	return res, nil
}

// runOffline measures offline-synth: a cold closed loop over new
// models, then a warm loop analysing them again from the first.
func runOffline(e *env) (*outcome, error) {
	out := &outcome{}
	var st *offlineState
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		st = offlineSetup(e.seed)
		out.setup = append(out.setup, time.Since(t0))
	}
	settle()
	eng0, dedup0 := engine.Stats(), dedupHits()
	rt0, _ := readRuntime()
	heap := watchHeap()

	h := sha256.New()
	var (
		acc           offlineTrace
		plain, traced []float64
		digests       []string
	)
	coldBudget := time.Duration(float64(e.measure) * (1 - offlineWarmShare))
	start := time.Now()
	n := 0
	for ; time.Since(start) < coldBudget; n++ {
		if n == len(st.suite) {
			return nil, fmt.Errorf("suite of %d models exhausted", n)
		}
		ci, m := n%len(st.chips), st.suite[n]
		traceIt := e.tr != nil && n%2 == 1
		t0 := time.Now()
		var r offlineResult
		var err error
		if traceIt {
			r, err = st.analyseTraced(e.tr, &acc, ci, m)
		} else {
			r, err = st.analyse(ci, m)
		}
		d := ms(time.Since(t0))
		out.attempted++
		if err != nil {
			out.failed++
			digests = append(digests, "")
			fmt.Fprintf(e.log, "offline-synth: %s: %v\n", m.Name, err)
			continue
		}
		if traceIt {
			traced = append(traced, d)
		} else {
			plain = append(plain, d)
		}
		digests = append(digests, r.digest())
		if n < offlineDigestN {
			r.digestInto(h)
		}
	}
	coldWall := time.Since(start)
	eng1, dedup1 := engine.Stats(), dedupHits()
	rt1, _ := readRuntime()
	if n < offlineDigestN {
		return nil, fmt.Errorf("only %d models analysed; the digest needs %d", n, offlineDigestN)
	}
	if err := out.latencies(plain); err != nil {
		return nil, err
	}
	out.throughput = float64(n) / coldWall.Seconds()

	// Warm: analyse the same models again from the first, as a re-run
	// of the batch would; every result must equal its cold one.
	warmStart := time.Now()
	w := 0
	for ; time.Since(warmStart) < e.measure-coldBudget; w++ {
		i := w % n
		r, err := st.analyse(i%len(st.chips), st.suite[i])
		out.attempted++
		if err != nil || r.digest() != digests[i] {
			out.failed++
			fmt.Fprintf(e.log, "offline-synth: warm revisit of %s differs from its cold result (err %v)\n", st.suite[i].Name, err)
		}
	}
	out.warm = float64(w) / time.Since(warmStart).Seconds()
	out.peakHeapMB = heap.Stop()

	// The cached pipeline must agree with an uncached one.
	engine.SetCacheCapacity(0)
	for i := 0; i < offlineRecheck; i++ {
		r, err := st.analyse(i%len(st.chips), st.suite[i])
		out.attempted++
		if err != nil || r.digest() != digests[i] {
			out.failed++
			fmt.Fprintf(e.log, "offline-synth: uncached re-run of %s differs (err %v)\n", st.suite[i].Name, err)
		}
	}
	engine.SetCacheCapacity(engine.DefaultCacheCapacity)
	out.digest = hex.EncodeToString(h.Sum(nil))
	out.notes = append(out.notes, fmt.Sprintf("cold %d models in %.2fs, warm re-run of %d", n, coldWall.Seconds(), w))
	if e.tr == nil {
		return out, nil
	}

	// Per-layer figures: self times per traced model, counters per model.
	l := zeroLayers()
	self := e.tr.self()
	tn := float64(len(traced))
	perModel := func(layer string) float64 { return ms(self[layer]) / tn }
	l["sim.instr_per_s"] = float64(acc.simInstrs) / acc.simNS.Seconds()
	l["sim.instrs"] = float64(eng1.Sched.Starts-eng0.Sched.Starts) / float64(n)
	l["sim.events"] = float64(eng1.Sched.Events-eng0.Sched.Events) / float64(n)
	l["engine.sim_ms"] = perModel("engine")
	hits, misses := eng1.Cache.Hits-eng0.Cache.Hits, eng1.Cache.Misses-eng0.Cache.Misses
	l["engine.hit_rate"] = float64(hits) / float64(hits+misses)
	l["engine.evictions"] = float64(eng1.Cache.Evictions-eng0.Cache.Evictions) / float64(n)
	l["kernels.build_ms"] = perModel("kernels")
	l["core.analyze_ms"] = perModel("core")
	l["critpath.ms"] = perModel("critpath")
	l["model.self_ms"] = perModel("model")
	l["opt.optimize_ms"] = perModel("opt")
	l["opt.dedup_hits"] = float64(dedup1-dedup0) / float64(n)
	l["graph.run_ms"] = perModel("graph")
	l["graph.overlap"] = acc.overlap / float64(acc.models)
	l["go.gc_pause_ms"], l["go.alloc_kb_per_op"] = goDelta(rt0, rt1, n)
	l["trace.overhead_ms"] = mean(traced) - mean(plain)
	parts := fmt.Sprintf("reconcile: traced model %.3fms =", mean(traced))
	var layerSum float64
	for _, layer := range []string{"kernels", "engine", "core", "critpath", "opt", "model", "graph"} {
		layerSum += perModel(layer)
		parts += fmt.Sprintf(" %s %.3f +", layer, perModel(layer))
	}
	l["unaccounted_ms"] = mean(traced) - layerSum
	out.notes = append(out.notes, fmt.Sprintf("%s unaccounted %.3f; untraced model %.3fms", parts, l["unaccounted_ms"], mean(plain)))
	out.layers = l
	return out, nil
}

// dedupHits reads the optimizer's structural-dedup hit counter.
func dedupHits() uint64 {
	h, _ := opt.DedupCounters()
	return h
}
