package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a p99 from 200 samples is the second-largest value, not a percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of samples,
// which need not be sorted. It refuses when fewer than minBeyond samples
// lie above the chosen rank, so a tail figure is never read off a
// handful of outliers.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	if n == 0 || p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile p%g of %d samples: undefined", 100*p, n)
	}
	rank := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("percentile p%g of %d samples: only %d beyond it, need %d", 100*p, n, beyond, minBeyond)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the middle of xs (mean of the two middles for even counts);
// 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean is the arithmetic mean of xs; 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// runtimeSample is the Go runtime's cumulative allocation and GC pause
// state at one instant.
type runtimeSample struct {
	allocBytes uint64
	pauseNS    float64
}

var runtimeKeys = []string{"/gc/heap/allocs:bytes", "/gc/pauses:seconds", "/memory/classes/heap/objects:bytes"}

func readRuntime() (runtimeSample, uint64) {
	s := make([]metrics.Sample, len(runtimeKeys))
	for i, k := range runtimeKeys {
		s[i].Name = k
	}
	metrics.Read(s)
	var r runtimeSample
	r.allocBytes = s[0].Value.Uint64()
	// The pause histogram has no sum; bucket midpoints (lower bound for
	// the open-ended last bucket) estimate it to within a bucket width.
	h := s[1].Value.Float64Histogram()
	for i, c := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = 0
		}
		mid := lo
		if !math.IsInf(hi, 1) {
			mid = (lo + hi) / 2
		}
		r.pauseNS += float64(c) * mid * 1e9
	}
	return r, s[2].Value.Uint64()
}

// heapWatch samples live heap bytes every few milliseconds while a
// measured phase runs and keeps the peak.
type heapWatch struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			h.sample()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapWatch) sample() {
	_, live := readRuntime()
	h.mu.Lock()
	if live > h.peak {
		h.peak = live
	}
	h.mu.Unlock()
}

// Stop ends sampling and returns the peak in MiB.
func (h *heapWatch) Stop() float64 {
	close(h.stop)
	<-h.done
	h.sample()
	return float64(h.peak) / (1 << 20)
}

// goDelta reports the runtime layer over a phase: GC pause time and
// allocation per unit of work.
func goDelta(before, after runtimeSample, units int) (pauseMS, allocKBPerOp float64) {
	pauseMS = (after.pauseNS - before.pauseNS) / 1e6
	if units > 0 {
		allocKBPerOp = float64(after.allocBytes-before.allocBytes) / 1024 / float64(units)
	}
	return pauseMS, allocKBPerOp
}

// settle runs a full GC so each measured phase starts from the same heap
// state instead of inheriting the previous phase's garbage.
func settle() { runtime.GC() }
