// Large-program scheduler benchmarks over the internal/check generator
// corpus. They live in package sim_test because internal/check imports
// internal/sim; the black-box package breaks the cycle.
//
// These are the benchmarks the performance methodology in EXPERIMENTS.md
// tracks: the generated programs mix transfers, compute, flag traffic
// and barriers in the same proportions the differential harness tests,
// so a scheduler-core regression shows here before it shows in the
// evaluation pipelines.
package sim_test

import (
	"math/rand"
	"testing"

	"ascendperf/internal/check"
	"ascendperf/internal/hw"
	"ascendperf/internal/sim"
)

// benchCorpus runs one generated program of n instructions per
// iteration, reusing the program across iterations: generation stays
// outside the measurement, and so does validation after the first
// iteration, because the program memoizes its successful Validate as it
// does in production. BenchmarkValidate (internal/isa) measures the
// validation walk itself.
func benchCorpus(b *testing.B, n int, opts sim.Options) {
	chip := hw.TrainingChip()
	prog := check.GenProgram(chip, rand.New(rand.NewSource(1)), n)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunOpts(chip, prog, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCorpus1k(b *testing.B)   { benchCorpus(b, 1_000, sim.Options{}) }
func BenchmarkCorpus10k(b *testing.B)  { benchCorpus(b, 10_000, sim.Options{}) }
func BenchmarkCorpus100k(b *testing.B) { benchCorpus(b, 100_000, sim.Options{}) }

// BenchmarkCorpus10kSpans includes span materialization, the
// configuration the differential harness and trace tooling run.
func BenchmarkCorpus10kSpans(b *testing.B) {
	benchCorpus(b, 10_000, sim.Options{KeepSpans: true})
}
