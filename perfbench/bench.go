package main

import (
	"fmt"
	"io"
	"math"
	goruntime "runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"multiprio/internal/oracle"
	"multiprio/internal/perfmodel"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
)

// bench runs one workload: the checks, then the measured iterations.
type bench struct {
	w      workload
	seed   int64
	smoke  bool
	traced bool
	out    io.Writer
	errs   io.Writer

	m         *platform.Machine
	attempted int
	failed    int
	// ref is the simulated outcome every run of a sim workload must
	// reproduce exactly; the oracle-checked run sets it.
	ref simStats
	// oracleRef is the oracle-checked run, kept on traced benchmarks to
	// time the oracle on every iteration.
	oracleRef *iteration
	e2e       samples
	layer     samples
	// untracedRun and tracedRun are the run wall times behind
	// trace.overhead_share.
	untracedRun, tracedRun []float64
}

// simStats is the simulated outcome of a run: identical across
// iterations of one seed, and between traced and untraced runs.
type simStats struct {
	events     int64
	makespan   float64
	transfers  int
	writebacks int
	bytes      int64
}

func statsOf(res *runtime.Result) simStats {
	s := simStats{events: res.Events, makespan: res.Makespan, transfers: len(res.Trace.Xfers)}
	for _, x := range res.Trace.Xfers {
		s.bytes += x.Bytes
		if x.Writeback {
			s.writebacks++
		}
	}
	return s
}

// iteration is one build and run of the workload, with the host cost of
// each half. Host cost is CPU time (user plus system) of the whole
// process: on a shared host it stays steady where wall time does not,
// because time the process spends descheduled or stolen by the
// hypervisor is not in it.
type iteration struct {
	g                      *runtime.Graph
	res                    *runtime.Result
	buildCPU, runCPU       time.Duration
	build, run             time.Duration // wall time
	buildAllocs, runAllocs uint64
	buildBytes, totalBytes uint64
	liveHeap               float64
	c                      *counters // nil on untraced runs
}

// iterate builds a fresh graph and runs it once, behind the timing
// wrappers when traced. Every run is checked before it returns.
func (b *bench) iterate(traced, memEvents bool) (*iteration, error) {
	s, err := b.w.newScheduler()
	if err != nil {
		return nil, err
	}
	var opts []runtime.Option
	it := &iteration{}
	if traced {
		it.c = &counters{}
		s = wrapScheduler(s, it.c)
		if !b.w.threaded {
			opts = append(opts, runtime.WithEstimator(timedEstimator{inner: perfmodel.Oracle{}, c: it.c}))
		}
	}
	if memEvents {
		opts = append(opts, runtime.WithMemEvents())
	}
	eng, err := b.w.newEngine(b.m, s, b.seed, opts...)
	if err != nil {
		return nil, err
	}

	var m0, m1, m2, m3 goruntime.MemStats
	goruntime.GC()
	goruntime.ReadMemStats(&m0)
	c0, t0 := cpuTime(), time.Now()
	g, verify := b.w.build(b.m, b.seed, b.smoke)
	it.build, it.buildCPU = time.Since(t0), cpuTime()-c0
	if traced && b.w.threaded {
		wrapKernels(g, it.c)
	}
	goruntime.ReadMemStats(&m1)
	goruntime.GC()
	c1, t1 := cpuTime(), time.Now()
	res, err := eng.Run(g)
	it.run, it.runCPU = time.Since(t1), cpuTime()-c1
	goruntime.ReadMemStats(&m2)
	b.attempted++
	if err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	goruntime.GC()
	goruntime.ReadMemStats(&m3)
	it.g, it.res = g, res
	it.buildAllocs = m1.Mallocs - m0.Mallocs
	it.buildBytes = m1.TotalAlloc - m0.TotalAlloc
	it.runAllocs = m2.Mallocs - m1.Mallocs
	it.totalBytes = m2.TotalAlloc - m0.TotalAlloc
	it.liveHeap = float64(m3.HeapAlloc) - float64(m0.HeapAlloc)

	done := 0
	for _, ws := range res.Workers {
		done += ws.Tasks
	}
	if done != len(g.Tasks) {
		return nil, fmt.Errorf("%d of %d tasks completed", done, len(g.Tasks))
	}
	if verify != nil {
		if err := verify(); err != nil {
			return nil, err
		}
	}
	if !b.w.threaded && b.ref.events != 0 {
		if got := statsOf(res); got != b.ref {
			return nil, fmt.Errorf("not deterministic: %+v, reference run %+v", got, b.ref)
		}
	}
	return it, nil
}

// cpuTime returns the CPU time the process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // only a bad argument fails
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// fail counts a failed check and reports it.
func (b *bench) fail(err error) {
	b.failed++
	fmt.Fprintf(b.errs, "perfbench: %s seed %d: %v\n", b.w.name, b.seed, err)
}

// check runs the correctness checks that sit outside the measured
// window: the oracle-checked reference run with memory events (sim
// workloads), and one traced run, which must reproduce the reference.
func (b *bench) check() bool {
	if !b.w.threaded {
		it, err := b.iterate(false, true)
		if err != nil {
			b.fail(fmt.Errorf("reference run: %w", err))
			return false
		}
		if !b.checkOracle(it) {
			return false
		}
		b.ref = statsOf(it.res)
		b.layer.add("trace.mem_events_per_task", float64(len(it.res.Trace.MemEvents))/float64(len(it.g.Tasks)))
		if b.traced {
			b.oracleRef = it
		}
	}
	if _, err := b.iterate(true, false); err != nil {
		b.fail(fmt.Errorf("traced run: %w", err))
		return false
	}
	return true
}

// checkOracle validates a run's trace with the execution oracle and
// records the oracle's cost.
func (b *bench) checkOracle(it *iteration) bool {
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	t0 := time.Now()
	err := oracle.Check(it.g, it.res.Trace, oracle.Options{OverflowBytes: it.res.OverflowBytes})
	d := time.Since(t0)
	goruntime.ReadMemStats(&m1)
	if err != nil {
		b.fail(fmt.Errorf("oracle: %w", err))
		return false
	}
	n := float64(len(it.g.Tasks))
	b.layer.add("oracle.check_ns_per_task", float64(d.Nanoseconds())/n)
	b.layer.add("oracle.allocs_per_task", float64(m1.Mallocs-m0.Mallocs)/n)
	return true
}

// run performs the checks, then measures for at least d, and returns
// the workload's result.
func (b *bench) run(d time.Duration) result {
	// The collector runs only where the benchmark forces it, before each
	// timed phase. Collections inside the phases, and the heap returned to
	// the system between them and faulted back in, made the timings of
	// identical runs differ by over 10%. Collector pressure is tracked
	// instead by the exact allocation metrics.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	b.m = b.w.machine()
	b.e2e, b.layer = samples{}, samples{}
	ok := b.check()
	for deadline, i := time.Now().Add(d), 0; ok && (i < minIterations || time.Now().Before(deadline)); i++ {
		it, err := b.iterate(false, false)
		if err != nil {
			b.fail(err)
			break
		}
		b.recordUntraced(it)
		if !b.traced {
			continue
		}
		tr, err := b.iterate(true, false)
		if err != nil {
			b.fail(fmt.Errorf("traced run: %w", err))
			break
		}
		b.recordTraced(tr)
		if b.oracleRef != nil && !b.checkOracle(b.oracleRef) {
			break
		}
	}
	b.e2e.add("passed_share", float64(b.attempted-b.failed)/float64(b.attempted))
	if len(b.untracedRun) > 0 && len(b.tracedRun) > 0 {
		b.layer.add("trace.overhead_share", quantile(b.tracedRun, 0.5)/quantile(b.untracedRun, 0.5)-1)
	}
	b.report()
	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]jsonMetric{}}
	emit := func(ms []metric, s samples) {
		for _, m := range ms {
			v := quantile(s[m.name], 0.5)
			if math.IsNaN(v) {
				v = 0 // the workload does not use this layer
			}
			res.Metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
		}
	}
	if b.traced {
		for _, l := range layers {
			emit(l.metrics, b.layer)
		}
	} else {
		emit(endToEnd, b.e2e)
	}
	return res
}

// recordUntraced adds one untraced iteration's end-to-end samples, and
// the graph and allocation samples of the ledger.
func (b *bench) recordUntraced(it *iteration) {
	n := float64(len(it.g.Tasks))
	build, run := it.buildCPU.Seconds(), it.runCPU.Seconds()
	e := b.e2e
	e.add("setup_s", build)
	e.add("run_tasks_per_s", n/run)
	e.add("tasks_per_s", n/(build+run))
	e.add("allocs_per_task", float64(it.buildAllocs+it.runAllocs)/n)
	e.add("alloc_bytes_per_task", float64(it.totalBytes)/n)
	e.add("live_heap_bytes_per_task", it.liveHeap/n)
	if b.w.threaded {
		// Without simulated time the makespan is the run's host cost,
		// the figure run_tasks_per_s divides by.
		e.add("makespan_s", run)
	} else {
		e.add("makespan_s", it.res.Makespan)
	}
	e.add("wall.setup_s", it.build.Seconds())
	e.add("wall.run_tasks_per_s", n/it.run.Seconds())
	b.untracedRun = append(b.untracedRun, it.run.Seconds())

	l := b.layer
	edges := 0
	for _, t := range it.g.Tasks {
		edges += len(it.g.Preds(t))
	}
	l.add("graph.tasks", n)
	l.add("graph.edges_per_task", float64(edges)/n)
	l.add("graph.build_ns_per_task", float64(it.build.Nanoseconds())/n)
	l.add("graph.allocs_per_task", float64(it.buildAllocs)/n)
	l.add("graph.bytes_per_task", float64(it.buildBytes)/n)
	if !b.w.threaded {
		l.add("sim.run_allocs_per_task", float64(it.runAllocs)/n)
	}
}

// recordTraced adds one traced iteration's per-layer samples. Without
// faults or speculation the engines query the model and the locator
// only from inside scheduler calls, so their time is nested in the
// scheduler's and is subtracted from it to give the policy's self time.
func (b *bench) recordTraced(it *iteration) {
	n := float64(len(it.g.Tasks))
	c := it.c
	wall := float64(it.run.Nanoseconds())
	b.tracedRun = append(b.tracedRun, it.run.Seconds())
	sched := c.schedNs()
	est, loc := c.est.totalNs(), c.loc.totalNs()
	// capacity is the host time the run had: the wall time of every
	// worker goroutine in the threaded engine, the one event loop in the
	// simulator.
	capacity := wall
	if b.w.threaded {
		capacity = wall * float64(len(b.m.Units))
	}

	l := b.layer
	l.add("sched.push_calls_per_task", float64(c.push.calls.Load())/n)
	l.add("sched.push_ns", c.push.meanNs())
	l.add("sched.pop_calls_per_task", float64(c.pop.calls.Load())/n)
	l.add("sched.pop_ns", c.pop.meanNs())
	l.add("sched.pop_hit_ratio", ratio(float64(c.popHits.Load()), float64(c.pop.calls.Load())))
	l.add("sched.taskdone_ns", c.done.meanNs())
	l.add("sched.self_share", (sched-est-loc)/capacity)
	l.add("perfmodel.estimate_calls_per_task", float64(c.est.calls.Load())/n)
	l.add("perfmodel.estimate_ns", c.est.meanNs())
	l.add("perfmodel.share", est/capacity)

	if b.w.threaded {
		kern := float64(c.kernelNs.Load())
		l.add("threaded.kernel_busy_share", kern/capacity)
		l.add("threaded.engine_ns_per_task", (capacity-kern-sched)/n)
		return
	}
	res := it.res
	l.add("sim.locator_calls_per_task", float64(c.loc.calls.Load())/n)
	l.add("sim.locator_ns", c.loc.meanNs())
	l.add("sim.locator_share", loc/wall)
	l.add("sim.events_per_task", float64(res.Events)/n)
	l.add("sim.engine_ns_per_event", ratio(wall-sched, float64(res.Events)))
	l.add("sim.engine_self_share", (wall-sched)/wall)
	st := statsOf(res)
	var prefetched int64
	for _, x := range res.Trace.Xfers {
		if x.Prefetch {
			prefetched += x.Bytes
		}
	}
	l.add("sim.transfers", float64(st.transfers))
	l.add("sim.transfer_bytes", float64(st.bytes))
	l.add("sim.writebacks", float64(st.writebacks))
	l.add("sim.prefetch_share", ratio(float64(prefetched), float64(st.bytes)))
	l.add("sim.gpu_busy_share", busyShare(res, b.m, platform.ArchGPU))
	l.add("sim.cpu_busy_share", busyShare(res, b.m, platform.ArchCPU))
}

// busyShare is the kernel time of arch a's workers over their makespan
// capacity; time spent waiting for data inside a span is not busy.
func busyShare(res *runtime.Result, m *platform.Machine, a platform.ArchID) float64 {
	units := len(m.UnitsOf(a))
	var busy float64
	for _, s := range res.Trace.Spans {
		if m.Units[s.Worker].Arch == a {
			busy += s.End - s.Start - s.Wait
		}
	}
	return ratio(busy, res.Makespan*float64(units))
}

// report prints the workload's metrics by name with unit, median,
// high percentile and sample count.
func (b *bench) report() {
	w := b.out
	mode := "untraced runs: end-to-end metrics"
	if b.traced {
		mode = "traced runs: end-to-end metrics and per-layer ledger"
	}
	fmt.Fprintf(w, "\n== %s  seed %d  (%s)\n", b.w.name, b.seed, mode)
	fmt.Fprintf(w, "   %s\n   why: %s\n", b.w.params(b.smoke), b.w.why)
	fmt.Fprintf(w, "   checks: %d runs attempted, %d failed, failed_share %.4g\n",
		b.attempted, b.failed, ratio(float64(b.failed), float64(b.attempted)))
	fmt.Fprintln(w, "-- end-to-end (host cost in process CPU seconds)")
	printMetrics(w, endToEnd, b.e2e)
	fmt.Fprintln(w, "-- wall clock, for reference only: it moves with the host's load")
	printMetrics(w, wallClock, b.e2e)
	if !b.traced {
		return
	}
	for _, l := range layers {
		fmt.Fprintf(w, "-- layer %s (%s); should move %s\n", l.name, l.code, l.moves)
		printMetrics(w, l.metrics, b.layer)
	}
	if !b.w.threaded {
		shares := []string{"sim.engine_self_share", "sched.self_share", "perfmodel.share", "sim.locator_share"}
		var sum float64
		for _, name := range shares {
			sum += quantile(b.layer[name], 0.5)
		}
		fmt.Fprintf(w, "-- the traced run's wall time splits as %s; their medians sum to %.4f\n", strings.Join(shares, " + "), sum)
	}
}

func printMetrics(w io.Writer, ms []metric, s samples) {
	for _, m := range ms {
		xs := s[m.name]
		if len(xs) == 0 {
			fmt.Fprintf(w, "   %-34s %14s %-8s (not used by this workload)\n", m.name, "n/a", m.unit)
			continue
		}
		line := fmt.Sprintf("   %-34s %14.6g %-8s median of %d", m.name, quantile(xs, 0.5), m.unit, len(xs))
		if p := highPercentile(len(xs)); p > 0 {
			line += fmt.Sprintf(", p%d %.6g", p, quantile(xs, float64(p)/100))
		}
		fmt.Fprintf(w, "%s  [%s is better]\n", line, m.better)
	}
}
