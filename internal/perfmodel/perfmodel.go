// Package perfmodel provides history-based execution-time estimation for
// tasks, in the spirit of StarPU's calibrated performance models
// (Augonnet et al., Euro-Par 2009): per (kernel, architecture, footprint)
// buckets accumulating online mean and variance of observed execution
// times.
//
// Schedulers query δ(t, a) — the estimated execution time of task t on
// architecture a — through the Estimator interface. The History model
// answers from recorded samples and falls back to a static prior (the
// application cost model, standing in for offline calibration) until the
// first sample for a bucket arrives.
package perfmodel

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"multiprio/internal/platform"
)

// Key identifies a performance-model bucket: one kernel at one data
// footprint on one architecture.
type Key struct {
	Kind      string
	Arch      platform.ArchID
	Footprint uint64
}

// Estimator estimates task execution times per architecture.
type Estimator interface {
	// Estimate returns δ for the given bucket in seconds.
	// ok is false when the kernel has no implementation on arch
	// (callers treat the time as +Inf).
	Estimate(kind string, arch platform.ArchID, footprint uint64, prior func() (float64, bool)) (sec float64, ok bool)
}

// stats accumulates Welford online mean/variance.
type stats struct {
	n    int64
	mean float64
	m2   float64
}

func (s *stats) add(x float64) {
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

func (s *stats) variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// History is a thread-safe history-based performance model.
type History struct {
	mu      sync.RWMutex
	buckets map[Key]*stats
}

// NewHistory returns an empty history model.
func NewHistory() *History {
	return &History{buckets: make(map[Key]*stats)}
}

// Record feeds one observed execution time into the model. Times are
// normalized to the architecture reference unit (speed factor 1); the
// engine divides out per-unit speed factors before recording.
func (h *History) Record(kind string, arch platform.ArchID, footprint uint64, sec float64) {
	if sec <= 0 || math.IsNaN(sec) || math.IsInf(sec, 0) {
		return
	}
	k := Key{Kind: kind, Arch: arch, Footprint: footprint}
	h.mu.Lock()
	s := h.buckets[k]
	if s == nil {
		s = &stats{}
		h.buckets[k] = s
	}
	s.add(sec)
	h.mu.Unlock()
}

// Estimate implements Estimator. With no recorded samples it defers to
// prior (the static application cost model); with samples it returns the
// running mean.
func (h *History) Estimate(kind string, arch platform.ArchID, footprint uint64, prior func() (float64, bool)) (float64, bool) {
	k := Key{Kind: kind, Arch: arch, Footprint: footprint}
	h.mu.RLock()
	var n int64
	var mean float64
	if s := h.buckets[k]; s != nil {
		n, mean = s.n, s.mean
	}
	h.mu.RUnlock()
	if n > 0 {
		return mean, true
	}
	if prior == nil {
		return 0, false
	}
	return prior()
}

// Samples returns the number of recorded samples for a bucket.
func (h *History) Samples(kind string, arch platform.ArchID, footprint uint64) int64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if s := h.buckets[Key{Kind: kind, Arch: arch, Footprint: footprint}]; s != nil {
		return s.n
	}
	return 0
}

// Mean returns the recorded mean for a bucket, ok=false when empty.
func (h *History) Mean(kind string, arch platform.ArchID, footprint uint64) (float64, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if s := h.buckets[Key{Kind: kind, Arch: arch, Footprint: footprint}]; s != nil && s.n > 0 {
		return s.mean, true
	}
	return 0, false
}

// StdDev returns the sample standard deviation for a bucket.
func (h *History) StdDev(kind string, arch platform.ArchID, footprint uint64) float64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if s := h.buckets[Key{Kind: kind, Arch: arch, Footprint: footprint}]; s != nil {
		return math.Sqrt(s.variance())
	}
	return 0
}

// Reset clears all recorded samples.
func (h *History) Reset() {
	h.mu.Lock()
	h.buckets = make(map[Key]*stats)
	h.mu.Unlock()
}

// Dump renders the model contents sorted by kernel then architecture,
// for debugging and the trace tool.
func (h *History) Dump() string {
	h.mu.RLock()
	keys := make([]Key, 0, len(h.buckets))
	for k := range h.buckets {
		keys = append(keys, k)
	}
	h.mu.RUnlock()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Kind != keys[j].Kind {
			return keys[i].Kind < keys[j].Kind
		}
		if keys[i].Arch != keys[j].Arch {
			return keys[i].Arch < keys[j].Arch
		}
		return keys[i].Footprint < keys[j].Footprint
	})
	var b strings.Builder
	for _, k := range keys {
		h.mu.RLock()
		s := h.buckets[k]
		n, mean, sd := s.n, s.mean, math.Sqrt(s.variance())
		h.mu.RUnlock()
		fmt.Fprintf(&b, "%-12s arch=%d fp=%-12d n=%-6d mean=%.3e sd=%.3e\n",
			k.Kind, k.Arch, k.Footprint, n, mean, sd)
	}
	return b.String()
}

// Oracle is an Estimator that always answers from the prior, i.e. it
// assumes a perfectly calibrated offline model. Experiments use Oracle
// for determinism; History is exercised by the runtime tests and the
// threaded engine.
type Oracle struct{}

// Estimate implements Estimator.
func (Oracle) Estimate(kind string, arch platform.ArchID, footprint uint64, prior func() (float64, bool)) (float64, bool) {
	if prior == nil {
		return 0, false
	}
	return prior()
}
