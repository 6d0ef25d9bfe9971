package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ascendperf/internal/cluster"
	"ascendperf/internal/engine"
	"ascendperf/internal/kernels"
	"ascendperf/internal/model"
	"ascendperf/internal/serve"
)

const (
	// serveShards is the number of ascendd shards behind the router.
	serveShards = 2
	// serveConns caps the client's connections at the reference host's
	// 2 cores; a smaller GOMAXPROCS lowers it to that.
	serveConns = 2
	// serveZipfS is the popularity skew over the population.
	serveZipfS = 1.1
	// serveMissShare is the share of requests that are never-repeated
	// inline synthetic workloads: they miss every cache tier.
	serveMissShare = 0.005
	// serveLimitMS is the p99 latency limit max_qps_slo is judged by,
	// fixed from seed measurements on the reference host (NOTES.md).
	serveLimitMS = 50
	// serveLateMedianMS bounds the generator's median lateness. Single
	// shots run late by timer granularity and by waiting for a processor
	// while the stack computes misses; that is counted, because latency
	// runs from the due time. A median beyond this bound means the
	// generator itself fell behind its schedule and the rung is invalid.
	serveLateMedianMS = 2
	// serveTraceFlip is how often a traced run toggles the layer wrappers,
	// so traced and untraced requests interleave in time.
	serveTraceFlip = 100 * time.Millisecond
)

// Phase shape, as shares of the measured seconds: a closed loop over
// cached responses only, a closed loop over the full mix, the low open-
// loop rung; the rest is split over the rising rungs so that each draws
// the same number of requests. At 25 seconds every rung gets over a
// thousand, enough for a p99 with ten samples beyond it. The closed
// loops get five seconds and more: at their rates the collector runs
// about once a second over the pinned heap, and a short loop would
// report how many of those cycles it happened to catch.
const (
	serveWarmShare  = 0.2
	serveMixedShare = 0.25
	serveLowShare   = 0.4
	serveHighRung   = 1 // index into serveRates of the reported "high" rate
)

var serveRates = []float64{300, 1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000}

// entry is one request of the population.
type entry struct {
	path string
	body []byte
	key  string
}

func marshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request structs always marshal
	}
	return b
}

// servePopulation builds the repeated-request population in a fixed
// order: roofline and simulate for every registry operator × chip ×
// optimized × hazards, model for every extended workload × chip × top_n
// 0–3, graph for the same × cores 1–8, and three traces. A fixed
// shuffle mixes the endpoints over the popularity ranks.
func servePopulation() ([]entry, error) {
	chips := []string{"training", "inference", "tpu"}
	var out []entry
	add := func(path string, body []byte) error {
		key, err := serve.CanonicalKey(strings.TrimPrefix(path, "/v1/"), body)
		if err != nil {
			return fmt.Errorf("%s %s: %w", path, body, err)
		}
		out = append(out, entry{path, body, key})
		return nil
	}
	var ops []string
	for n := range kernels.Registry() {
		ops = append(ops, n)
	}
	sort.Strings(ops)
	for _, c := range chips {
		for _, op := range ops {
			for _, optimized := range []bool{false, true} {
				for _, noHaz := range []bool{false, true} {
					req := serve.SimulateRequest{Chip: c, Op: op, Optimized: optimized, DisableHazards: noHaz}
					for _, p := range []string{"/v1/roofline", "/v1/simulate"} {
						if err := add(p, marshal(req)); err != nil {
							return nil, err
						}
					}
				}
			}
		}
		for _, m := range model.Extended() {
			for top := 0; top <= 3; top++ {
				if err := add("/v1/model", marshal(serve.ModelRequest{Chip: c, Model: m.Name, TopN: top})); err != nil {
					return nil, err
				}
			}
			for cores := 1; cores <= 8; cores++ {
				if err := add("/v1/graph", marshal(serve.GraphRequest{Chip: c, Model: m.Name, Cores: cores})); err != nil {
					return nil, err
				}
			}
		}
	}
	for _, op := range []string{"add_relu", "mul", "gelu"} {
		if err := add("/v1/trace", marshal(serve.SimulateRequest{Chip: "training", Op: op})); err != nil {
			return nil, err
		}
	}
	r := rand.New(rand.NewSource(1)) // fixed: the run seed drives draws, not ranks
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// missOps is the inventory of the inline synthetic workloads. Only the
// shape scales are drawn, from a narrow range, so every miss costs about
// the same and the low-rate p99, which falls among the misses, does not
// swing with which operators a seed happened to draw.
var missOps = []struct {
	op    string
	count int
}{{"matmul", 4}, {"add_relu", 8}, {"softmax", 4}, {"layernorm", 4}}

// shot is one scheduled request.
type shot struct {
	at   time.Duration // offset from the rung start
	path string
	body []byte
	key  string
	miss bool
}

// requestSeq draws the seeded request sequence: Zipf ranks over the
// population, a fixed share of unique inline workloads, and Poisson
// arrival gaps.
type requestSeq struct {
	pop  []entry
	z    *cluster.Zipf
	rng  *rand.Rand
	seed int64
	n    int
}

func newRequestSeq(pop []entry, seed int64) (*requestSeq, error) {
	z, err := cluster.NewZipf(len(pop), serveZipfS, uint64(seed))
	if err != nil {
		return nil, err
	}
	return &requestSeq{pop: pop, z: z, rng: rand.New(rand.NewSource(seed)), seed: seed}, nil
}

// next draws one request; misses are never-repeated inline graph
// workloads when allowMiss.
func (q *requestSeq) next(allowMiss bool) shot {
	q.n++
	if allowMiss && q.rng.Float64() < serveMissShare {
		type op struct {
			Op    string  `json:"op"`
			Count int     `json:"count"`
			Scale float64 `json:"scale"`
		}
		w := struct {
			Name string `json:"name"`
			Ops  []op   `json:"ops"`
		}{Name: fmt.Sprintf("miss-%d-%d", q.seed, q.n)}
		for _, m := range missOps {
			w.Ops = append(w.Ops, op{m.op, m.count, 0.9 + 0.2*q.rng.Float64()})
		}
		body := marshal(serve.GraphRequest{Chip: []string{"training", "inference", "tpu"}[q.rng.Intn(3)], Workload: marshal(w)})
		return shot{path: "/v1/graph", body: body, miss: true}
	}
	e := q.pop[q.z.Next()]
	return shot{path: e.path, body: e.body, key: e.key}
}

// schedule draws a rung: Poisson arrivals at rate per second for dur.
func (q *requestSeq) schedule(rate float64, dur time.Duration) []shot {
	var out []shot
	var t time.Duration
	for {
		t += time.Duration(q.rng.ExpFloat64() / rate * float64(time.Second))
		if t >= dur {
			return out
		}
		s := q.next(true)
		s.at = t
		out = append(out, s)
	}
}

// bodyCheck requires every 200 body for a canonical key to hash equal to
// the first one seen for it.
type bodyCheck struct {
	mu    sync.Mutex
	first map[string][32]byte
}

func (c *bodyCheck) verify(key string, body []byte) bool {
	sum := sha256.Sum256(body)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.first == nil {
		c.first = map[string][32]byte{}
	}
	prev, ok := c.first[key]
	if !ok {
		c.first[key] = sum
		return true
	}
	return prev == sum
}

// digest hashes the first body of every key, in key order.
func (c *bodyCheck) digest() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, len(c.first))
	for k := range c.first {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		sum := c.first[k]
		h.Write([]byte(k))
		h.Write(sum[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// layerClock accumulates the wrapper timings of a traced run.
type layerClock struct {
	mu  sync.Mutex
	sum map[string]time.Duration
	n   map[string]int
}

func (c *layerClock) add(layer string, d time.Duration) {
	c.mu.Lock()
	if c.sum == nil {
		c.sum, c.n = map[string]time.Duration{}, map[string]int{}
	}
	c.sum[layer] += d
	c.n[layer]++
	c.mu.Unlock()
}

// meanUS is the mean of a layer's samples in microseconds (0 if none).
func (c *layerClock) meanUS(layer string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n[layer] == 0 {
		return 0
	}
	return us(c.sum[layer]) / float64(c.n[layer])
}

func (c *layerClock) count(layer string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n[layer]
}

// stack is the system under test: a router over shards sharing an L2
// tier, every piece on a loopback listener in this process, plus the
// benchmark's timing wrappers around each layer boundary.
type stack struct {
	l2      *httptest.Server
	servers []*serve.Server
	shards  []*httptest.Server
	router  *cluster.Router
	front   *httptest.Server
	client  *http.Client
	conns   int // client connections, one caller each

	tracing atomic.Bool
	clock   layerClock
	tr      *tracer
}

// timedL2 is serve.L2Cache over cluster.L2Client, timed when tracing.
type timedL2 struct {
	c *cluster.L2Client
	s *stack
}

func (t timedL2) Get(key string) ([]byte, bool) {
	if !t.s.tracing.Load() {
		return t.c.Get(key)
	}
	t0 := time.Now()
	b, ok := t.c.Get(key)
	t.s.record("l2.get", t0)
	return b, ok
}

func (t timedL2) Put(key string, body []byte) {
	if !t.s.tracing.Load() {
		t.c.Put(key, body)
		return
	}
	t0 := time.Now()
	t.c.Put(key, body)
	t.s.record("l2.put", t0)
}

func (s *stack) record(layer string, t0 time.Time) {
	d := time.Since(t0)
	s.clock.add(layer, d)
	s.tr.add(layer, t0, d)
}

// wrapShard times a shard's analysis handler and classifies the request
// by the cache headers the shard set.
func (s *stack) wrapShard(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.tracing.Load() || !strings.HasPrefix(r.URL.Path, "/v1/") {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		class := "serve.miss"
		switch hd := w.Header(); {
		case hd.Get("X-Ascendd-Cache") == "hit":
			class = "serve.resp_hit"
		case hd.Get("X-Ascendd-Coalesced") != "":
			class = "serve.coalesced"
		case hd.Get("X-Ascendd-L2") == "hit":
			class = "serve.l2_hit"
		}
		s.record(class, t0)
		s.clock.add("serve", time.Since(t0))
	})
}

// wrapRouter times the router's handler.
func (s *stack) wrapRouter(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.tracing.Load() || !strings.HasPrefix(r.URL.Path, "/v1/") {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		s.record("cluster", t0)
	})
}

func newStack(dir string, tr *tracer) (*stack, error) {
	cache, err := cluster.NewCacheServer(dir, 0)
	if err != nil {
		return nil, err
	}
	s := &stack{tr: tr, l2: httptest.NewServer(cache), conns: min(serveConns, runtime.GOMAXPROCS(0))}
	l2 := timedL2{c: cluster.NewL2Client(s.l2.URL, 0), s: s}
	var urls []string
	for i := 0; i < serveShards; i++ {
		srv := serve.New(serve.Config{L2: l2})
		s.servers = append(s.servers, srv)
		ts := httptest.NewServer(s.wrapShard(srv))
		s.shards = append(s.shards, ts)
		urls = append(urls, ts.URL)
	}
	if s.router, err = cluster.NewRouter(cluster.RouterConfig{Backends: urls}); err != nil {
		s.Close()
		return nil, err
	}
	s.router.Start()
	s.front = httptest.NewServer(s.wrapRouter(s.router.Handler()))
	s.client = &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     s.conns,
			MaxIdleConnsPerHost: s.conns,
		},
	}
	return s, nil
}

// Close stops every server and the router's probers and waits for them.
func (s *stack) Close() {
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	if s.front != nil {
		s.front.Close()
	}
	if s.router != nil {
		s.router.Stop()
	}
	for _, ts := range s.shards {
		ts.Close()
	}
	if s.l2 != nil {
		s.l2.Close()
	}
}

// post sends one request through the router and reads the whole body.
func (s *stack) post(path string, body []byte) (int, []byte, error) {
	resp, err := s.client.Post(s.front.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// rung is what one open-loop rate step measured.
type rung struct {
	rate       float64
	lat        []float64 // ms from when each request was due
	send       []float64 // ms from when it was sent
	late       []float64 // ms the generator emitted each request late
	traced     []float64 // ms from due, requests sent while tracing
	plain      []float64 // ms from due, requests sent while not tracing
	failed     int
	drain      time.Duration // last completion after the last due time
	canonical  time.Duration // serve.CanonicalKey over every body, traced
	canonicals int
}

// p99 (or any percentile) of a rung, refusing thin samples.
func (r *rung) pct(p float64) (float64, error) { return percentile(r.lat, p) }

// lateErr flags a rung whose generator fell behind its own schedule.
func (r *rung) lateErr() error {
	p, err := percentile(r.late, 0.5)
	if err != nil {
		return err
	}
	if p > serveLateMedianMS {
		return fmt.Errorf("generator fell behind its schedule at %.0f/s: median lateness %.2fms > %dms", r.rate, p, serveLateMedianMS)
	}
	return nil
}

// fire runs an open-loop schedule from start with one worker per
// connection.
// Every request is timed from its due time; the generator goroutine
// only sleeps and enqueues, so its own lateness is measured apart.
func (s *stack) fire(shots []shot, start time.Time, check *bodyCheck, rate float64) *rung {
	r := &rung{rate: rate, late: make([]float64, len(shots))}
	jobs := make(chan int, len(shots)) // sized to the rung: the generator never blocks
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		lastDone time.Time
	)
	for w := 0; w < s.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				sh := &shots[i]
				traced := s.tracing.Load()
				t0 := time.Now()
				status, body, err := s.post(sh.path, sh.body)
				t1 := time.Now()
				due := start.Add(sh.at)
				ok := err == nil && status == http.StatusOK && (sh.miss || check.verify(sh.key, body))
				var canon time.Duration
				if traced && ok {
					c0 := time.Now()
					serve.CanonicalKey(strings.TrimPrefix(sh.path, "/v1/"), sh.body)
					canon = time.Since(c0)
					s.clock.add("client", t1.Sub(t0))
				}
				mu.Lock()
				if !ok {
					r.failed++
				} else {
					l := ms(t1.Sub(due))
					r.lat = append(r.lat, l)
					r.send = append(r.send, ms(t1.Sub(t0)))
					if traced {
						r.traced = append(r.traced, l)
						r.canonical += canon
						r.canonicals++
					} else {
						r.plain = append(r.plain, l)
					}
				}
				if t1.After(lastDone) {
					lastDone = t1
				}
				mu.Unlock()
			}
		}()
	}
	for i := range shots {
		due := start.Add(shots[i].at)
		waitUntil(due)
		r.late[i] = ms(time.Since(due))
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	if len(shots) > 0 {
		r.drain = lastDone.Sub(start.Add(shots[len(shots)-1].at))
	}
	return r
}

// warmup sends every population entry once from one caller per
// connection and returns how many failed.
func (s *stack) warmup(pop []entry, check *bodyCheck) int {
	var (
		next, bad atomic.Int64
		wg        sync.WaitGroup
	)
	for w := 0; w < s.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(pop)); i = next.Add(1) - 1 {
				e := pop[i]
				status, body, err := s.post(e.path, e.body)
				if err != nil || status != http.StatusOK || !check.verify(e.key, body) {
					bad.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return int(bad.Load())
}

// closedLoop sends requests back to back from one caller per connection
// for dur. It returns completed requests per second and each completed
// request's send-to-last-byte time in ms.
func (s *stack) closedLoop(next func() shot, dur time.Duration, check *bodyCheck) (rate float64, lat []float64, failed int) {
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < s.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				mu.Lock()
				sh := next()
				mu.Unlock()
				t0 := time.Now()
				status, body, err := s.post(sh.path, sh.body)
				d := ms(time.Since(t0))
				ok := err == nil && status == http.StatusOK && (sh.miss || check.verify(sh.key, body))
				mu.Lock()
				if ok {
					lat = append(lat, d)
				} else {
					failed++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return float64(len(lat)) / time.Since(start).Seconds(), lat, failed
}

// serveCounters sums the shards' serving counters (per-server values,
// so summing is exact) and the router's.
type serveCounters struct {
	requests, respHits, respMisses, l2Hits, l2Misses, followers, shed, deduped uint64
}

func (s *stack) counters() serveCounters {
	var c serveCounters
	for _, srv := range s.servers {
		st := srv.StatsSnapshot().Serve
		for _, n := range st.Requests {
			c.requests += n
		}
		c.respHits += st.RespCacheHits
		c.respMisses += st.RespCacheMisses
		c.l2Hits += st.L2Hits
		c.l2Misses += st.L2Misses
		c.followers += st.CoalesceFollowers
		for _, n := range st.Shed {
			c.shed += n
		}
	}
	c.deduped = s.router.Deduped()
	return c
}

// overcount is the router's aggregated simulation-run count over the
// true process count from one engine.Stats() read.
func (s *stack) overcount() (float64, error) {
	resp, err := s.client.Get(s.front.URL + "/v1/stats")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var agg serve.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&agg); err != nil {
		return 0, err
	}
	truth := engine.Stats().Sched.Runs
	if truth == 0 {
		return 0, fmt.Errorf("no simulations ran")
	}
	return float64(agg.Engine.SchedRuns) / float64(truth), nil
}

// runServe measures serve-zipf: warm the stack, measure closed-loop
// capacity over cached responses and over the full mix, then climb the
// open-loop rate ladder.
func runServe(e *env) (*outcome, error) {
	out := &outcome{}
	var (
		st  *stack
		pop []entry
	)
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			st.Close()
		}
		t0 := time.Now()
		var err error
		if pop, err = servePopulation(); err != nil {
			return nil, err
		}
		if st, err = newStack(filepath.Join(e.tmp, fmt.Sprintf("l2-%d", i)), e.tr); err != nil {
			return nil, err
		}
		out.setup = append(out.setup, time.Since(t0))
	}
	defer st.Close()
	seq, err := newRequestSeq(pop, e.seed)
	if err != nil {
		return nil, err
	}
	check := &bodyCheck{}

	// Warm-up, unmeasured: every population entry once, so the ladder
	// sees a serving steady state rather than process start.
	warmStart := time.Now()
	bad := st.warmup(pop, check)
	out.notes = append(out.notes, fmt.Sprintf("warm-up of %d entries took %.2fs", len(pop), time.Since(warmStart).Seconds()))
	out.attempted, out.failed = len(pop), bad
	settle()

	rt0, _ := readRuntime()
	c0 := st.counters()
	heap := watchHeap()
	stopFlip := make(chan struct{})
	flipDone := make(chan struct{})
	go func() {
		defer close(flipDone)
		if e.tr == nil {
			return
		}
		t := time.NewTicker(serveTraceFlip)
		defer t.Stop()
		for {
			select {
			case <-stopFlip:
				st.tracing.Store(false)
				return
			case <-t.C:
				st.tracing.Store(!st.tracing.Load())
			}
		}
	}()

	share := func(f float64) time.Duration { return time.Duration(f * float64(e.measure)) }
	warm, warmLat, wbad := st.closedLoop(func() shot { return seq.next(false) }, share(serveWarmShare), check)
	settle()
	mixed, mixedLat, mbad := st.closedLoop(func() shot { return seq.next(true) }, share(serveMixedShare), check)
	out.warm, out.throughput = warm, mixed
	out.attempted += len(warmLat) + wbad + len(mixedLat) + mbad
	out.failed += wbad + mbad
	if err := out.latencies(mixedLat); err != nil {
		return nil, err
	}

	lowDur := share(serveLowShare)
	var inv float64
	for _, r := range serveRates[1:] {
		inv += 1 / r
	}
	perRung := share(1-serveWarmShare-serveMixedShare-serveLowShare).Seconds() / inv // requests per rising rung
	var rungs []*rung
	for k, rate := range serveRates {
		d := time.Duration(perRung / rate * float64(time.Second))
		if k == 0 {
			d = lowDur
		}
		shots := seq.schedule(rate, d)
		settle()
		r := st.fire(shots, time.Now().Add(5*time.Millisecond), check, rate)
		out.attempted += len(shots)
		out.failed += r.failed
		if err := r.lateErr(); err != nil {
			return nil, err
		}
		rungs = append(rungs, r)
		p99, err := r.pct(0.99)
		if err != nil {
			return nil, fmt.Errorf("rung %.0f/s: %w", rate, err)
		}
		if k > serveHighRung && !meets(r, p99) {
			break
		}
	}
	close(stopFlip)
	<-flipDone
	rt1, _ := readRuntime()
	c1 := st.counters()
	out.peakHeapMB = heap.Stop()

	low := rungs[0]
	out.digest = check.digest()
	for _, r := range rungs {
		p50, _ := r.pct(0.5)
		p99, _ := r.pct(0.99)
		l50, _ := percentile(r.late, 0.5)
		l99, _ := percentile(r.late, 0.99)
		s50, _ := percentile(r.send, 0.5)
		out.notes = append(out.notes, fmt.Sprintf("rung %.0f/s: n=%d p50=%.3fms p99=%.3fms send50=%.3fms drain=%.1fms late50=%.3f late99=%.3f failed=%d",
			r.rate, len(r.lat), p50, p99, s50, ms(r.drain), l50, l99, r.failed))
	}
	if e.tr == nil {
		return out, nil
	}

	l := zeroLayers()
	high := rungs[serveHighRung]
	l["serve.max_qps_slo"] = maxQPS(rungs)
	l["serve.p50_ms.low"], _ = low.pct(0.5)
	l["serve.p99_ms.low"], _ = low.pct(0.99)
	l["serve.p50_ms.high"], _ = high.pct(0.5)
	l["serve.p99_ms.high"], _ = high.pct(0.99)
	var canon time.Duration
	var canons int
	var late, traced, plain []float64
	for _, r := range rungs {
		canon += r.canonical
		canons += r.canonicals
		late = append(late, r.late...)
		traced = append(traced, r.traced...)
		plain = append(plain, r.plain...)
	}
	l["cluster.canonical_us"] = us(canon) / float64(canons)
	// Mean times per request at each boundary: client (send to last
	// byte), router wrapper, shard wrapper, L2 client.
	cl := &st.clock
	clientUS, routerUS := cl.meanUS("client"), cl.meanUS("cluster")
	shardUS := cl.meanUS("serve") * float64(cl.count("serve")) / float64(max(cl.count("cluster"), 1))
	l["cluster.router_self_us"] = routerUS - shardUS
	l["client.residual_us"] = clientUS - routerUS
	l["serve.shard_us.resp_hit"] = cl.meanUS("serve.resp_hit")
	l["serve.shard_us.l2_hit"] = cl.meanUS("serve.l2_hit")
	l["serve.shard_us.miss"] = cl.meanUS("serve.miss")
	l["l2.get_us"] = cl.meanUS("l2.get")
	l["l2.put_us"] = cl.meanUS("l2.put")
	l["client.late_p99_ms"], _ = percentile(late, 0.99)
	reqs := float64(c1.requests - c0.requests)
	l["serve.resp_hit_rate"] = float64(c1.respHits-c0.respHits) / float64(c1.respHits-c0.respHits+c1.respMisses-c0.respMisses)
	l["serve.l2_hit_rate"] = float64(c1.l2Hits-c0.l2Hits) / float64(c1.l2Hits-c0.l2Hits+c1.l2Misses-c0.l2Misses)
	l["serve.coalesced_share"] = float64(c1.followers-c0.followers) / reqs
	l["serve.shed"] = float64(c1.shed - c0.shed)
	l["cluster.dedup_share"] = float64(c1.deduped-c0.deduped) / reqs
	if l["cluster.stats_overcount"], err = st.overcount(); err != nil {
		return nil, err
	}
	l["go.gc_pause_ms"], l["go.alloc_kb_per_op"] = goDelta(rt0, rt1, int(reqs))
	// Tracing overhead from the low rung, where no queue amplifies it.
	l["trace.overhead_ms"] = median(low.traced) - median(low.plain)
	// Every analysis request's send-to-last-byte time splits into the
	// router wrapper and what lies outside any wrapper: the HTTP client,
	// loopback and connection handling. That outside part is the
	// unaccounted residual.
	l["unaccounted_ms"] = l["client.residual_us"] / 1000
	out.notes = append(out.notes, fmt.Sprintf("reconcile: client send-to-last-byte %.1fus = unaccounted (client, loopback, conn) %.1f + router self %.1f + shard %.1f; shard by class: resp-hit %.1f, l2-hit %.1f, miss %.1f; l2 get %.1f put %.1f",
		clientUS, l["client.residual_us"], l["cluster.router_self_us"], shardUS,
		l["serve.shard_us.resp_hit"], l["serve.shard_us.l2_hit"], l["serve.shard_us.miss"], l["l2.get_us"], l["l2.put_us"]))
	out.layers = l
	return out, nil
}

// meets reports whether a rung held the latency limit without a growing
// backlog: p99 within the limit and the queue drained within it too.
func meets(r *rung, p99 float64) bool {
	return p99 <= serveLimitMS && ms(r.drain) <= serveLimitMS
}

// maxQPS is the highest rate meeting the limit, interpolated in log
// latency between the last rung that met it and the first that did not.
func maxQPS(rungs []*rung) float64 {
	best := 0.0
	for k, r := range rungs {
		p99, err := r.pct(0.99)
		if err != nil || !meets(r, p99) {
			if k == 0 || best == 0 {
				return best
			}
			prev := rungs[k-1]
			pp, _ := prev.pct(0.99)
			f := 0.5
			if p99 > serveLimitMS && pp < serveLimitMS {
				f = (math.Log(serveLimitMS) - math.Log(pp)) / (math.Log(p99) - math.Log(pp))
			}
			return prev.rate + f*(r.rate-prev.rate)
		}
		best = r.rate
	}
	return best
}
