package surrogate

import (
	"path/filepath"
	"sync"
	"testing"

	"ascendperf/internal/check"
	"ascendperf/internal/hw"
	"ascendperf/internal/profile"
	"ascendperf/internal/sim"
)

// exactProfile fakes an exact simulation result with the given
// makespan (the hammer only cares about the log append path).
func exactProfile(total float64) *profile.Profile {
	p := profile.New("exact")
	p.TotalTime = total
	return p
}

// TestPredictorHammer drives concurrent Predict / RecordExact calls
// (shared feature memo, shared training-log file) across goroutines.
// Only meaningful under -race, which ci.sh always runs.
func TestPredictorHammer(t *testing.T) {
	m := trainedModel(t)
	chip := hw.TrainingChip()
	cases := check.Corpus(map[string]*hw.Chip{"training": chip})
	if len(cases) > 64 {
		cases = cases[:64]
	}
	profs := make([]float64, len(cases))
	for i, c := range cases {
		p, err := sim.RunOpts(chip, c.Prog, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		profs[i] = p.TotalTime
	}
	logPath := filepath.Join(t.TempDir(), "train.jsonl")
	pr := NewPredictor(m, logPath)
	defer pr.Close()

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4*len(cases); i++ {
				c := cases[(w+i)%len(cases)]
				if prof, ok := pr.Predict(chip, c.Prog, sim.Options{}); ok {
					if !prof.Approx || prof.TotalTime <= 0 {
						t.Errorf("%s: bad approx profile", c.Name)
						return
					}
					// The served profile is the caller's to mutate;
					// scribble on it to catch aliasing with the memo.
					prof.TotalTime = -1
					prof.Busy[0] = -1
				}
				exact := exactProfile(profs[(w+i)%len(cases)])
				pr.RecordExact(chip, c.Prog, exact)
			}
		}(w)
	}
	wg.Wait()
	if err := pr.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTrainingLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	// Every worker records every case 4 times, but the log dedups by
	// (chip, program) fingerprint: exactly one line per unique case.
	if want := len(cases); len(got) != want {
		t.Fatalf("training log has %d samples, want %d (one per unique case)", len(got), want)
	}
}

// TestPredictorDeclinesOptions: non-default sim options must never be
// answered by the surrogate.
func TestPredictorDeclinesOptions(t *testing.T) {
	m := trainedModel(t)
	chip := hw.TrainingChip()
	c := check.Corpus(map[string]*hw.Chip{"training": chip})[0]
	pr := NewPredictor(m, "")
	if _, ok := pr.Predict(chip, c.Prog, sim.Options{KeepSpans: true}); ok {
		t.Fatal("predicted a span-keeping run")
	}
	if _, ok := pr.Predict(chip, c.Prog, sim.Options{DisableHazards: true}); ok {
		t.Fatal("predicted a hazard-disabled run")
	}
}

// TestPredictLatencyGuard guards the predictor hit path
// deterministically: Model.Predict must not allocate. The < 1µs
// latency bound is a wall-clock figure, so it lives in the
// BenchmarkSurrogatePredict gate of scripts/ci.sh, not here.
func TestPredictLatencyGuard(t *testing.T) {
	m := trainedModel(t)
	chip := hw.TrainingChip()
	c := check.Corpus(map[string]*hw.Chip{"training": chip})[0]
	f := Extract(chip, c.Prog)
	if _, ok := m.Predict(f); !ok {
		// Pick any accepted case; the first kernel is always in-range.
		t.Fatalf("%s: gate rejected a training case", c.Name)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		sinkNS, sinkOK = m.Predict(f)
	}); allocs != 0 {
		t.Fatalf("Model.Predict allocates %v times per call, want 0", allocs)
	}
}

var (
	sinkNS float64
	sinkOK bool
)

// BenchmarkSurrogatePredict pins the predictor hit path: confidence
// gate plus standardized dot product over a prepared feature vector.
func BenchmarkSurrogatePredict(b *testing.B) {
	m := trainedModel(b)
	chip := hw.TrainingChip()
	c := check.Corpus(map[string]*hw.Chip{"training": chip})[0]
	f := Extract(chip, c.Prog)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkNS, sinkOK = m.Predict(f)
	}
}

// BenchmarkSurrogatePredictEndToEnd measures the full predictor path
// for a warm program: memo lookup, gate, and approx-profile assembly.
func BenchmarkSurrogatePredictEndToEnd(b *testing.B) {
	m := trainedModel(b)
	chip := hw.TrainingChip()
	c := check.Corpus(map[string]*hw.Chip{"training": chip})[0]
	pr := NewPredictor(m, "")
	if _, ok := pr.Predict(chip, c.Prog, sim.Options{}); !ok {
		b.Fatalf("%s: gate rejected a training case", c.Name)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, _ := pr.Predict(chip, c.Prog, sim.Options{})
		if p != nil {
			sinkNS = p.TotalTime
		}
	}
}
