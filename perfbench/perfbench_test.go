package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"ascendperf/internal/model"
)

// suiteText renders a synthetic suite down to every generated value.
func suiteText(ms []*model.Model) string {
	var b strings.Builder
	for _, m := range ms {
		fmt.Fprintf(&b, "%s %v\n", m.Name, m.OverheadFrac)
		for _, op := range m.Ops {
			fmt.Fprintf(&b, "  %d %+v\n", op.Count, op.Kernel)
		}
	}
	return b.String()
}

func TestSuiteFollowsSeed(t *testing.T) {
	a, b, c := suiteText(offlineSuiteFor(7, 20)), suiteText(offlineSuiteFor(7, 20)), suiteText(offlineSuiteFor(8, 20))
	if a != b {
		t.Fatal("same seed generated different synthetic suites")
	}
	if a == c {
		t.Fatal("different seeds generated the same synthetic suite")
	}
}

// testPopulation is a small fixed population for sequence tests.
func testPopulation() []entry {
	var pop []entry
	for i := 0; i < 50; i++ {
		pop = append(pop, entry{path: "/v1/roofline", body: []byte(fmt.Sprintf(`{"i":%d}`, i)), key: fmt.Sprint(i)})
	}
	return pop
}

func sequence(t *testing.T, seed int64) []shot {
	t.Helper()
	q, err := newRequestSeq(testPopulation(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return q.schedule(2000, time.Second)
}

func TestRequestSequenceFollowsSeed(t *testing.T) {
	a, b, c := sequence(t, 3), sequence(t, 3), sequence(t, 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed drew different request sequences")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds drew the same request sequence")
	}
	misses := 0
	for _, s := range a {
		if s.miss {
			misses++
		}
	}
	if misses == 0 || misses > len(a)/10 {
		t.Fatalf("%d of %d requests are inline misses; want about %.0f%%", misses, len(a), 100*serveMissShare)
	}
}

func TestTuneOrderFollowsSeed(t *testing.T) {
	a, b, c := tuneOrder(5, 3, 19), tuneOrder(5, 3, 19), tuneOrder(6, 3, 19)
	if !reflect.DeepEqual(a, b) || reflect.DeepEqual(a, c) {
		t.Fatal("search order does not follow the seed")
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(len(xs) - i) // 999 down to 1, unsorted on purpose
	}
	if _, err := percentile(xs, 0.99); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it; want a refusal")
	}
	xs = append(xs, 1000)
	p, err := percentile(xs, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if p != 990 {
		t.Fatalf("p99 of 1..1000 = %v, want 990", p)
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Fatal("median of 19 samples has 9 beyond it; want a refusal")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestNamesAreWellFormed(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %s", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("%s name %q used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.name)
	}
	for _, m := range endToEnd {
		check("metric", m.name)
	}
	for _, m := range perLayer {
		check("metric", m.name)
	}
}

// TestBenchmarkFileMatches holds BENCHMARK.json to the names the program
// reports.
func TestBenchmarkFileMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var gotW, wantW []string
	for i, w := range b.Workloads {
		gotW = append(gotW, w.Name)
		wantW = append(wantW, workloads[i%len(workloads)].name)
	}
	if !reflect.DeepEqual(gotW, wantW) || len(gotW) != len(workloads) {
		t.Errorf("BENCHMARK.json workloads %v, program has %d starting %v", gotW, len(workloads), wantW)
	}
	same := func(kind string, file []struct{ Name, Unit string }, prog []metricSpec) {
		if len(file) != len(prog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(file), len(prog))
			return
		}
		for i := range prog {
			if file[i].Name != prog[i].name || file[i].Unit != prog[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, program %s %s", kind, i, file[i].Name, file[i].Unit, prog[i].name, prog[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

// TestLateGeneratorIsInvalid runs an open-loop rung whose schedule
// started a second ago: every shot is emitted late, so the rung must be
// flagged.
func TestLateGeneratorIsInvalid(t *testing.T) {
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{}"))
	}))
	defer front.Close()
	s := &stack{front: front, client: front.Client(), conns: serveConns}
	shots := make([]shot, 200)
	for i := range shots {
		shots[i] = shot{at: time.Duration(i) * time.Millisecond, path: "/v1/roofline", miss: true}
	}
	r := s.fire(shots, time.Now().Add(-time.Second), &bodyCheck{}, 1000)
	if r.failed != 0 {
		t.Fatalf("%d requests failed", r.failed)
	}
	if err := r.lateErr(); err == nil {
		t.Fatal("a generator a second behind its schedule was not flagged")
	}
}

// TestTracingChangesNoResult analyses the same models with and without
// the traced layer-by-layer walk; every digest must agree.
func TestTracingChangesNoResult(t *testing.T) {
	st := offlineSetup(11)
	tr := newTracer()
	var acc offlineTrace
	for i, m := range st.suite[:2] {
		plain, err := st.analyse(i%len(st.chips), m)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := offlineSetup(11).analyseTraced(tr, &acc, i%len(st.chips), m)
		if err != nil {
			t.Fatal(err)
		}
		if plain.digest() != traced.digest() {
			t.Fatalf("%s: traced digest differs from untraced", m.Name)
		}
	}
	self := tr.self()
	for _, layer := range []string{"kernels", "engine", "core", "opt", "model", "graph"} {
		if self[layer] <= 0 {
			t.Errorf("layer %s recorded no self time", layer)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{Layer: "step", Start: 0, End: 10, Parent: -1},
		{Layer: "opt", Start: 1, End: 4, Parent: 0},
		{Layer: "graph", Start: 4, End: 9, Parent: 0},
	}}
	self := tr.self()
	if self["step"] != 2 || self["opt"] != 3 || self["graph"] != 5 {
		t.Fatalf("self times %v, want step 2 opt 3 graph 5", self)
	}
}

func TestMaxQPSInterpolates(t *testing.T) {
	mk := func(rate, p99 float64) *rung {
		r := &rung{rate: rate}
		for i := 0; i < 1000; i++ {
			r.lat = append(r.lat, 1)
		}
		for i := 0; i < 20; i++ {
			r.lat = append(r.lat, p99)
		}
		return r
	}
	got := maxQPS([]*rung{mk(100, 10), mk(200, 20), mk(300, 200)})
	if got <= 200 || got >= 300 {
		t.Fatalf("max rate %v, want between the last passing (200) and first failing (300) rung", got)
	}
	if got := maxQPS([]*rung{mk(100, 10), mk(200, 20)}); got != 200 {
		t.Fatalf("max rate %v with every rung passing, want the top rung 200", got)
	}
}
