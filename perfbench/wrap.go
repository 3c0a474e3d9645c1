package main

import (
	"math"
	"sync/atomic"
	"time"

	"multiprio/internal/perfmodel"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
)

// A clock read costs about as much as a Pop, so timing every call
// would multiply the traced run's time several times over. A seam
// counts every call and times one in 32, picked by the top five bits of
// the call number times the golden ratio: the picks are deterministic
// yet spread evenly over any periodic call pattern, so the per-call
// means stay unbiased.
const sampleShift = 64 - 5

// seam counts the calls through one wrapped method and times a sample
// of them. It is atomic because the threaded engine calls through every
// seam from all worker goroutines.
type seam struct {
	calls, timed, ns atomic.Int64
}

// do runs f as one call through the seam.
func (s *seam) do(f func()) {
	if n := uint64(s.calls.Add(1)); (n*0x9E3779B97F4A7C15)>>sampleShift != 0 {
		f()
		return
	}
	t0 := time.Now()
	f()
	s.ns.Add(int64(time.Since(t0)))
	s.timed.Add(1)
}

// clockFloor is what a timed call measures when the call itself takes
// no time: the part of a clock read inside the interval.
var clockFloor = measureClockFloor()

func measureClockFloor() float64 {
	xs := make([]float64, 10001)
	for i := range xs {
		t0 := time.Now()
		xs[i] = float64(time.Since(t0))
	}
	return quantile(xs, 0.5)
}

// meanNs is the mean duration of a call, less the clock floor.
func (s *seam) meanNs() float64 {
	return math.Max(0, ratio(float64(s.ns.Load()), float64(s.timed.Load()))-clockFloor)
}

// totalNs estimates the time spent in all calls.
func (s *seam) totalNs() float64 { return s.meanNs() * float64(s.calls.Load()) }

// counters are the seams of one traced run.
type counters struct {
	push, pop, done, est, loc seam
	popHits                   atomic.Int64
	initNs                    atomic.Int64
	// kernelNs times every kernel: kernels are long next to a clock read.
	kernelNs atomic.Int64
}

// schedNs is the host time spent inside scheduler calls, including the
// model and locator queries the policy made from inside them.
func (c *counters) schedNs() float64 {
	return float64(c.initNs.Load()) + c.push.totalNs() + c.pop.totalNs() + c.done.totalNs()
}

// timedScheduler times every call the engine makes into a policy. Init
// also swaps the environment's locator (and, when the engine did not
// take one through runtime.WithEstimator, its model) for timed
// wrappers, so queries the policy makes are counted where they happen.
type timedScheduler struct {
	inner runtime.Scheduler
	c     *counters
}

// timedStreamScheduler is a timedScheduler around a policy that reports
// admission statistics. It is a separate type so the engine sees a
// StreamStatsReporter exactly when the wrapped policy is one.
type timedStreamScheduler struct {
	*timedScheduler
	r runtime.StreamStatsReporter
}

func (s timedStreamScheduler) StreamStats() runtime.StreamStats { return s.r.StreamStats() }

// wrapScheduler returns s behind timing wrappers feeding c.
func wrapScheduler(s runtime.Scheduler, c *counters) runtime.Scheduler {
	ts := &timedScheduler{inner: s, c: c}
	if r, ok := s.(runtime.StreamStatsReporter); ok {
		return timedStreamScheduler{ts, r}
	}
	return ts
}

func (s *timedScheduler) Name() string { return s.inner.Name() }

func (s *timedScheduler) Init(env *runtime.Env) {
	env.Locator = timedLocator{inner: env.Locator, c: s.c}
	if _, ok := env.Model.(timedEstimator); !ok {
		// The threaded engine has no estimator option; time its model here.
		env.Model = timedEstimator{inner: env.Model, c: s.c}
	}
	t0 := time.Now()
	s.inner.Init(env)
	s.c.initNs.Add(int64(time.Since(t0)))
}

func (s *timedScheduler) Push(t *runtime.Task) { s.c.push.do(func() { s.inner.Push(t) }) }

func (s *timedScheduler) Pop(w runtime.WorkerInfo) *runtime.Task {
	var t *runtime.Task
	s.c.pop.do(func() { t = s.inner.Pop(w) })
	if t != nil {
		s.c.popHits.Add(1)
	}
	return t
}

func (s *timedScheduler) TaskDone(t *runtime.Task, w runtime.WorkerInfo) {
	s.c.done.do(func() { s.inner.TaskDone(t, w) })
}

// WorkerDown forwards fault notifications to policies that observe them.
func (s *timedScheduler) WorkerDown(w runtime.WorkerInfo) {
	if fo, ok := s.inner.(runtime.FaultObserver); ok {
		fo.WorkerDown(w)
	}
}

// timedEstimator times the performance-model queries.
type timedEstimator struct {
	inner perfmodel.Estimator
	c     *counters
}

func (e timedEstimator) Estimate(kind string, arch platform.ArchID, footprint uint64, prior func() (float64, bool)) (float64, bool) {
	var sec float64
	var ok bool
	e.c.est.do(func() { sec, ok = e.inner.Estimate(kind, arch, footprint, prior) })
	return sec, ok
}

// timedLocator times the data-placement queries, which in the simulator
// are the memory manager's query side.
type timedLocator struct {
	inner runtime.DataLocator
	c     *counters
}

func (l timedLocator) IsResident(h *runtime.DataHandle, mem platform.MemID) bool {
	var ok bool
	l.c.loc.do(func() { ok = l.inner.IsResident(h, mem) })
	return ok
}

func (l timedLocator) TransferEstimate(h *runtime.DataHandle, mem platform.MemID) float64 {
	var sec float64
	l.c.loc.do(func() { sec = l.inner.TransferEstimate(h, mem) })
	return sec
}

// wrapKernels times every real kernel of g.
func wrapKernels(g *runtime.Graph, c *counters) {
	for _, t := range g.Tasks {
		run := t.Run
		if run == nil {
			continue
		}
		t.Run = func(w runtime.WorkerInfo) {
			t0 := time.Now()
			run(w)
			c.kernelNs.Add(int64(time.Since(t0)))
		}
	}
}
