package kernels

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
)

// stubKernel is a cheap comparable kernel: id makes distinct build keys,
// builds counts Build calls, fail makes Build return an error.
type stubKernel struct {
	id     int
	fail   bool
	builds *atomic.Int64
}

func (s stubKernel) Name() string          { return "stub" }
func (s stubKernel) Baseline() Options     { return Options{} }
func (s stubKernel) Supported() []Strategy { return nil }
func (s stubKernel) Build(*hw.Chip, Options) (*isa.Program, error) {
	if s.builds != nil {
		s.builds.Add(1)
	}
	if s.fail {
		return nil, errors.New("stub: build failed")
	}
	return &isa.Program{Name: fmt.Sprintf("stub/%d", s.id)}, nil
}

// sliceKernel is not comparable, so it cannot key the memo.
type sliceKernel struct {
	stubKernel
	tags []int
}

// cacheLen returns the number of memoized programs.
func cacheLen() int {
	buildCache.mu.Lock()
	defer buildCache.mu.Unlock()
	return buildCache.order.Len()
}

// nextStubID hands every test fresh keys, so tests never see entries
// another test left behind.
var nextStubID atomic.Int64

func freshStub() stubKernel { return stubKernel{id: int(nextStubID.Add(1))} }

func mustBuild(t *testing.T, chip *hw.Chip, k Kernel) *isa.Program {
	t.Helper()
	p, err := BuildCached(chip, k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestBuildCachedEvictsLeastRecentlyUsed fills the memo past its bound
// around two keys: the one touched halfway through keeps its program,
// the untouched one is evicted and rebuilt into a new pointer.
func TestBuildCachedEvictsLeastRecentlyUsed(t *testing.T) {
	chip := hw.TrainingChip()
	touched, cold := freshStub(), freshStub()
	touchedProg := mustBuild(t, chip, touched)
	coldProg := mustBuild(t, chip, cold)
	if mustBuild(t, chip, cold) != coldProg {
		t.Fatal("repeat build of a resident key returned a new program")
	}
	for i := 0; i < maxBuildCache; i++ {
		if i == maxBuildCache/2 {
			if mustBuild(t, chip, touched) != touchedProg {
				t.Fatal("resident key rebuilt before the bound was reached")
			}
		}
		mustBuild(t, chip, freshStub())
		if n := cacheLen(); n > maxBuildCache {
			t.Fatalf("memo holds %d programs, bound %d", n, maxBuildCache)
		}
	}
	if cacheLen() != maxBuildCache {
		t.Errorf("memo holds %d programs after overfilling, want %d", cacheLen(), maxBuildCache)
	}
	if mustBuild(t, chip, touched) != touchedProg {
		t.Error("recently touched key lost its program")
	}
	if mustBuild(t, chip, cold) == coldProg {
		t.Error("least recently used key kept its program past the bound")
	}
}

// TestBuildCachedKeysByChip checks the chip pointer is part of the key.
func TestBuildCachedKeysByChip(t *testing.T) {
	k := freshStub()
	if mustBuild(t, hw.TrainingChip(), k) == mustBuild(t, hw.TrainingChip(), k) {
		t.Error("two chip objects shared one memoized program")
	}
}

// TestBuildCachedConcurrentShare runs many first callers of one key at
// once; every caller must get the same program. Run under -race.
func TestBuildCachedConcurrentShare(t *testing.T) {
	chip := hw.TrainingChip()
	k := freshStub()
	const callers = 16
	progs := make([]*isa.Program, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range progs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			p, err := BuildCached(chip, k, Options{})
			if err != nil {
				t.Error(err)
			}
			progs[i] = p
		}()
	}
	close(start)
	wg.Wait()
	for i, p := range progs {
		if p != progs[0] {
			t.Fatalf("caller %d got program %p, caller 0 got %p", i, p, progs[0])
		}
	}
}

// TestBuildCachedSkipsErrorsAndUncomparable checks that failed builds
// and non-comparable kernels are built on every call and never stored.
func TestBuildCachedSkipsErrorsAndUncomparable(t *testing.T) {
	chip := hw.TrainingChip()
	before := cacheLen()

	failing := freshStub()
	failing.fail = true
	failing.builds = new(atomic.Int64)
	for i := 0; i < 2; i++ {
		if _, err := BuildCached(chip, failing, Options{}); err == nil {
			t.Fatal("failing build returned no error")
		}
	}
	if got := failing.builds.Load(); got != 2 {
		t.Errorf("failing kernel built %d times over 2 calls, want 2 (errors must not be cached)", got)
	}

	uncomparable := sliceKernel{stubKernel: freshStub(), tags: []int{1}}
	uncomparable.builds = new(atomic.Int64)
	if mustBuild(t, chip, uncomparable) == mustBuild(t, chip, uncomparable) {
		t.Error("non-comparable kernel shared a memoized program")
	}
	if got := uncomparable.builds.Load(); got != 2 {
		t.Errorf("non-comparable kernel built %d times over 2 calls, want 2", got)
	}

	if after := cacheLen(); after != before {
		t.Errorf("memo grew from %d to %d on uncached builds", before, after)
	}
}
