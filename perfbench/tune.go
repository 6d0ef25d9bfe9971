package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"time"

	"ascendperf/internal/critpath"
	"ascendperf/internal/engine"
	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
	"ascendperf/internal/kernels"
	"ascendperf/internal/opt"
	"ascendperf/internal/sim"
	"ascendperf/internal/surrogate"
)

// tuneWarmShare is the share of the measured time given to the final
// warm phase: warm passes back to back over the last cycle's episodes.
// One warm pass is two orders of magnitude shorter than a cold one, so
// the warm passes inside the cycles alone would time too little.
const tuneWarmShare = 0.2

// surrogatePath is the committed surrogate model tune-search installs.
const surrogatePath = "MODEL_surrogate.json"

type tuneState struct {
	model *surrogate.Model
	chips []*hw.Chip
	names []string // tunable registry kernels, in name order
	order []tunePair
}

// tunePair is one search: a chip and a kernel, by index.
type tunePair struct{ chip, kernel int }

// tuneOrder is the seeded order the searches of a pass run in. The
// winners do not depend on it; which results the engine cache holds
// when each search starts does.
func tuneOrder(seed int64, chips, kernels int) []tunePair {
	var out []tunePair
	for c := 0; c < chips; c++ {
		for k := 0; k < kernels; k++ {
			out = append(out, tunePair{c, k})
		}
	}
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func tuneSetup(seed int64) (*tuneState, error) {
	m, err := surrogate.LoadModel(surrogatePath)
	if err != nil {
		return nil, err
	}
	st := &tuneState{model: m, chips: presets()}
	for name, k := range kernels.Registry() {
		if _, ok := k.(kernels.Tunable); ok {
			st.names = append(st.names, name)
		}
	}
	sort.Strings(st.names)
	st.order = tuneOrder(seed, len(st.chips), len(st.names))
	return st, nil
}

// tuneCycle is one cold pass and one warm pass over every tunable kernel
// on every chip.
type tuneCycle struct {
	cold, warm       []float64 // per-search latencies, ms
	coldWall         time.Duration
	warmWall         time.Duration
	coldStats        engine.SearchStats
	warmStats        engine.SearchStats
	cacheHits, cache uint64 // engine cache hits and lookups
	report           []byte // the cold pass's search reports, one per chip
	winners          [][]*opt.SearchResult
	cfg              opt.SearchConfig // holds the cycle's episode store
	reg              map[string]kernels.Kernel
}

// pass runs every search of one pass in the seeded order, each under a
// span of layer, and returns the results by chip and kernel.
func (st *tuneState) pass(tr *tracer, layer string, cfg opt.SearchConfig, reg map[string]kernels.Kernel, lat *[]float64) ([][]*opt.SearchResult, time.Duration, engine.SearchStats, error) {
	s0 := engine.ReadSearchStats()
	out := make([][]*opt.SearchResult, len(st.chips))
	for ci := range out {
		out[ci] = make([]*opt.SearchResult, len(st.names))
	}
	start := time.Now()
	for _, p := range st.order {
		chip, name := st.chips[p.chip], st.names[p.kernel]
		t0 := time.Now()
		var res *opt.SearchResult
		err := tr.do(layer, -1, func() (err error) {
			res, err = opt.New(chip).Search(reg[name], cfg)
			return err
		})
		*lat = append(*lat, ms(time.Since(t0)))
		if err != nil {
			return nil, 0, engine.SearchStats{}, fmt.Errorf("search %s on %s: %w", name, chip.Name, err)
		}
		out[p.chip][p.kernel] = res
	}
	return out, time.Since(start), searchDelta(s0, engine.ReadSearchStats()), nil
}

// checkWarm requires every warm result to be a warm start with the cold
// winner.
func (st *tuneState) checkWarm(cold, warm [][]*opt.SearchResult) error {
	for ci := range warm {
		for k := range warm[ci] {
			if cr, wr := cold[ci][k], warm[ci][k]; !wr.WarmStart || !sameWinner(cr, wr) {
				return fmt.Errorf("%s on %s: warm winner %+v differs from cold %+v", cr.Kernel, st.chips[ci].Name, *wr, *cr)
			}
		}
	}
	return nil
}

// cycle runs one cold and one warm pass from empty engine caches, a
// fresh predictor and an empty episode store.
func (st *tuneState) cycle(e *env, idx int, traced bool) (*tuneCycle, error) {
	engine.SetCacheCapacity(engine.DefaultCacheCapacity)
	engine.SetPredictor(surrogate.NewPredictor(st.model, ""))
	store, err := opt.NewEpisodeStore(filepath.Join(e.tmp, fmt.Sprintf("episodes-%d", idx)))
	if err != nil {
		return nil, err
	}
	// Fresh kernel values: no build memo carries over between cycles.
	c := &tuneCycle{cfg: opt.SearchConfig{Episodes: store}, reg: kernels.Registry()}
	tr := e.tr
	if !traced {
		tr = nil
	}
	if c.winners, c.coldWall, c.coldStats, err = st.pass(tr, "opt", c.cfg, c.reg, &c.cold); err != nil {
		return nil, err
	}
	warm, warmWall, stats, err := st.pass(tr, "opt.warm", c.cfg, c.reg, &c.warm)
	if err != nil {
		return nil, err
	}
	c.warmWall, c.warmStats = warmWall, stats
	if err := st.checkWarm(c.winners, warm); err != nil {
		return nil, err
	}
	h := sha256.New()
	for ci, chip := range st.chips {
		b, err := json.Marshal(opt.NewSearchReport(chip.Name, c.cfg, c.winners[ci]))
		if err != nil {
			return nil, err
		}
		h.Write(b)
	}
	c.report = h.Sum(nil)
	if cs := engine.DefaultCache(); cs != nil {
		s := cs.Stats()
		c.cacheHits, c.cache = s.Hits, s.Hits+s.Misses
	}
	return c, nil
}

// sameWinner compares the tuned outcome of two searches of one kernel.
func sameWinner(a, b *opt.SearchResult) bool {
	return a.Kernel == b.Kernel && a.BaselineNS == b.BaselineNS && a.RawBestNS == b.RawBestNS &&
		a.BestNS == b.BestNS && a.TileSize == b.TileSize &&
		reflect.DeepEqual(a.Strategies, b.Strategies) && reflect.DeepEqual(a.Passes, b.Passes)
}

func searchDelta(a, b engine.SearchStats) engine.SearchStats {
	return engine.SearchStats{
		Searches:        b.Searches - a.Searches,
		ExactSims:       b.ExactSims - a.ExactSims,
		SurrogateScored: b.SurrogateScored - a.SurrogateScored,
		ProxyScored:     b.ProxyScored - a.ProxyScored,
		WarmHits:        b.WarmHits - a.WarmHits,
	}
}

// probe times the layers under the search one public call at a time on
// the baseline program of every tunable kernel and chip: build, exact
// simulation, surrogate prediction from a fresh predictor (so feature
// extraction is included, as on a search's first look at a program)
// and the critical-path proxy.
func (st *tuneState) probe(tr *tracer) (instrPerS, predictNS float64, err error) {
	engine.SetPredictor(surrogate.NewPredictor(st.model, ""))
	reg := kernels.Registry()
	var instrs uint64
	var simT, predT time.Duration
	var calls int
	for _, chip := range st.chips {
		for _, name := range st.names {
			k := reg[name]
			var prog *isa.Program
			if err := tr.do("kernels", -1, func() (err error) {
				prog, err = k.Build(chip, k.Baseline())
				return err
			}); err != nil {
				return 0, 0, err
			}
			before := sim.ReadCounters().Starts
			t0 := time.Now()
			if err := tr.do("sim", -1, func() error {
				_, err := sim.RunOpts(chip, prog, sim.Options{})
				return err
			}); err != nil {
				return 0, 0, err
			}
			simT += time.Since(t0)
			instrs += sim.ReadCounters().Starts - before
			t0 = time.Now()
			tr.do("surrogate", -1, func() error { engine.PredictOnly(chip, prog); return nil })
			predT += time.Since(t0)
			calls++
			tr.do("critpath", -1, func() error { critpath.Proxy(chip, prog); return nil })
		}
	}
	return float64(instrs) / simT.Seconds(), float64(predT.Nanoseconds()) / float64(calls), nil
}

// runTune measures tune-search: cycles of a cold and a warm pass until
// the measured time is used. Odd cycles are traced in a traced run.
func runTune(e *env) (*outcome, error) {
	out := &outcome{}
	var st *tuneState
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if st, err = tuneSetup(e.seed); err != nil {
			return nil, err
		}
		out.setup = append(out.setup, time.Since(t0))
	}
	settle()
	sched0 := sim.ReadCounters()
	rt0, _ := readRuntime()
	heap := watchHeap()

	var (
		cycles                []*tuneCycle
		coldWall              time.Duration
		coldN, warmN          int
		coldSt, warmSt        engine.SearchStats
		hits, lookups         uint64
		coldLat               []float64
		tracedCold, plainCold []float64
		tracedWarm            int
	)
	coldBudget := time.Duration(float64(e.measure) * (1 - tuneWarmShare))
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < coldBudget; i++ {
		traced := e.tr != nil && i%2 == 1
		c, err := st.cycle(e, i, traced)
		if err != nil {
			return nil, err
		}
		if len(cycles) > 0 && string(c.report) != string(cycles[0].report) {
			return nil, fmt.Errorf("cycle %d search reports differ from cycle 0", i)
		}
		if len(cycles) > 0 {
			// Only the last cycle's episodes serve the warm phase.
			if err := os.RemoveAll(cycles[len(cycles)-1].cfg.Episodes.Dir()); err != nil {
				return nil, err
			}
		}
		cycles = append(cycles, c)
		coldWall += c.coldWall
		coldN += len(c.cold)
		warmN += len(c.warm)
		coldSt = addSearch(coldSt, c.coldStats)
		warmSt = addSearch(warmSt, c.warmStats)
		hits, lookups = hits+c.cacheHits, lookups+c.cache
		coldLat = append(coldLat, c.cold...)
		if traced {
			tracedCold = append(tracedCold, c.cold...)
			tracedWarm += len(c.warm)
		} else if i > 0 {
			// Cycle 0 also pays the process's lazy start-up; traced
			// cycles are odd, so it has no traced counterpart.
			plainCold = append(plainCold, c.cold...)
		}
	}

	// Warm phase: passes back to back over the last cycle's episodes.
	last := cycles[len(cycles)-1]
	settle()
	var warmLat []float64
	warmStart := time.Now()
	for time.Since(warmStart) < e.measure-coldBudget {
		warm, _, stats, err := st.pass(nil, "", last.cfg, last.reg, &warmLat)
		if err != nil {
			return nil, err
		}
		if err := st.checkWarm(last.winners, warm); err != nil {
			return nil, err
		}
		warmSt = addSearch(warmSt, stats)
	}
	warmWall := time.Since(warmStart)
	sched1 := sim.ReadCounters()
	rt1, _ := readRuntime()
	out.peakHeapMB = heap.Stop()
	out.attempted, out.failed = coldN+warmN+len(warmLat), 0
	if err := out.latencies(coldLat); err != nil {
		return nil, err
	}
	out.throughput = float64(coldN) / coldWall.Seconds()
	out.warm = float64(len(warmLat)) / warmWall.Seconds()
	out.digest = hex.EncodeToString(cycles[0].report)
	out.notes = append(out.notes, fmt.Sprintf("%d cycles of %d searches (%d kernels x %d chips), cold %.2fs; warm phase %d searches in %.2fs",
		len(cycles), len(cycles[0].cold), len(st.names), len(st.chips), coldWall.Seconds(), len(warmLat), warmWall.Seconds()))
	if e.tr == nil {
		return out, nil
	}

	l := zeroLayers()
	probeStart := time.Now()
	instrPerS, predictNS, err := st.probe(e.tr)
	if err != nil {
		return nil, err
	}
	probeWall := time.Since(probeStart)
	self := e.tr.self()
	probes := float64(len(st.names) * len(st.chips))
	l["sim.instr_per_s"] = instrPerS
	l["sim.instrs"] = float64(sched1.Starts-sched0.Starts) / float64(out.attempted)
	l["sim.events"] = float64(sched1.Events-sched0.Events) / float64(out.attempted)
	l["engine.hit_rate"] = float64(hits) / float64(lookups)
	l["kernels.build_ms"] = ms(self["kernels"]) / probes
	l["critpath.ms"] = ms(self["critpath"]) / probes
	l["opt.exact_sims"] = float64(coldSt.ExactSims) / float64(coldSt.Searches)
	l["opt.warm_exact_sims"] = float64(warmSt.ExactSims) / float64(warmSt.Searches)
	l["opt.search_ms"] = mean(tracedCold)
	l["opt.episode_load_ms"] = ms(self["opt.warm"]) / float64(tracedWarm)
	l["surrogate.accept_rate"] = float64(coldSt.SurrogateScored) / float64(coldSt.SurrogateScored+coldSt.ProxyScored)
	l["surrogate.predict_ns"] = predictNS
	l["go.gc_pause_ms"], l["go.alloc_kb_per_op"] = goDelta(rt0, rt1, out.attempted)
	l["trace.overhead_ms"] = mean(tracedCold) - mean(plainCold)
	// Everything in the traced cycles and the probe runs inside a span;
	// what is left is the benchmark's own loop and checks.
	var spanned time.Duration
	for _, d := range self {
		spanned += d
	}
	tracedWall := time.Duration(0)
	for i, c := range cycles {
		if i%2 == 1 {
			tracedWall += c.coldWall + c.warmWall
		}
	}
	l["unaccounted_ms"] = ms(tracedWall+probeWall-spanned) / float64(len(tracedCold)+tracedWarm+int(probes))
	out.notes = append(out.notes, fmt.Sprintf("reconcile: traced cold search %.3fms = opt %.3f + unaccounted; warm search %.3fms; probe per program: kernels %.3f sim %.3f surrogate %.3f critpath %.3f; unaccounted %.4fms per call",
		mean(tracedCold), ms(self["opt"])/float64(len(tracedCold)), l["opt.episode_load_ms"],
		l["kernels.build_ms"], ms(self["sim"])/probes, ms(self["surrogate"])/probes, l["critpath.ms"], l["unaccounted_ms"]))
	out.layers = l
	return out, nil
}

func addSearch(a, b engine.SearchStats) engine.SearchStats {
	a.Searches += b.Searches
	a.ExactSims += b.ExactSims
	a.SurrogateScored += b.SurrogateScored
	a.ProxyScored += b.ProxyScored
	a.WarmHits += b.WarmHits
	return a
}
