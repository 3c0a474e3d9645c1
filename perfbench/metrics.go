package main

import (
	"math"
	"sort"
)

// metric is one reported figure. End-to-end metrics carry the bound
// BENCHMARK.json gives them; per-layer metrics carry none.
type metric struct {
	name, unit, better string
	bound              float64
}

// layer groups the per-layer metrics of one part of the program, with
// the end-to-end metric they should move and the workload on which
// they should move it, written down before any measurement.
type layer struct {
	name string
	// code names the packages the layer covers.
	code    string
	moves   string
	metrics []metric
}

// endToEnd are measured on untraced runs, one sample per iteration.
// Host cost (setup_s and the tasks_per_s rates) is process CPU time.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"run_tasks_per_s", "tasks/s", "higher", 0.25},
	{"tasks_per_s", "tasks/s", "higher", 0.25},
	{"allocs_per_task", "count", "lower", 0.05},
	{"alloc_bytes_per_task", "B", "lower", 0.05},
	{"live_heap_bytes_per_task", "B", "lower", 0.05},
	{"makespan_s", "s", "lower", 0.25},
	{"passed_share", "ratio", "higher", 0.01},
}

// wallClock are the wall-time counterparts of the host-cost metrics,
// reported but not gated.
var wallClock = []metric{
	{name: "wall.setup_s", unit: "s", better: "lower"},
	{name: "wall.run_tasks_per_s", unit: "tasks/s", better: "higher"},
}

// layers are measured on traced runs, which time every call the
// benchmark's wrappers see at the public seams (wrap.go).
var layers = []layer{
	{
		name: "graph", code: "internal/runtime Graph, internal/apps/*",
		moves: "setup_s, tasks_per_s and live_heap_bytes_per_task on randdag-eager; a small share on the Cholesky workloads",
		metrics: []metric{
			{name: "graph.tasks", unit: "count", better: "higher"},
			{name: "graph.edges_per_task", unit: "count", better: "lower"},
			{name: "graph.build_ns_per_task", unit: "ns", better: "lower"},
			{name: "graph.allocs_per_task", unit: "count", better: "lower"},
			{name: "graph.bytes_per_task", unit: "B", better: "lower"},
		},
	},
	{
		name: "sched", code: "internal/core, internal/sched/*, internal/heap",
		moves: "run_tasks_per_s on both cholesky-multiprio-* workloads; on randdag-eager pop_hit_ratio tracks wasted wake-ups",
		metrics: []metric{
			{name: "sched.push_calls_per_task", unit: "count", better: "lower"},
			{name: "sched.push_ns", unit: "ns", better: "lower"},
			{name: "sched.pop_calls_per_task", unit: "count", better: "lower"},
			{name: "sched.pop_ns", unit: "ns", better: "lower"},
			{name: "sched.pop_hit_ratio", unit: "ratio", better: "higher"},
			{name: "sched.taskdone_ns", unit: "ns", better: "lower"},
			{name: "sched.self_share", unit: "ratio", better: "lower"},
		},
	},
	{
		name: "perfmodel", code: "internal/perfmodel",
		moves: "run_tasks_per_s on the cholesky-multiprio-* workloads",
		metrics: []metric{
			{name: "perfmodel.estimate_calls_per_task", unit: "count", better: "lower"},
			{name: "perfmodel.estimate_ns", unit: "ns", better: "lower"},
			{name: "perfmodel.share", unit: "ratio", better: "lower"},
		},
	},
	{
		name: "sim", code: "internal/sim",
		moves: "host metrics: run_tasks_per_s and allocs_per_task on randdag-eager, the locator part on cholesky-multiprio-smallsim; " +
			"modelled metrics: makespan_s on the workload whose memory or policy they describe, and never under a simulator-only speedup",
		metrics: []metric{
			{name: "sim.locator_calls_per_task", unit: "count", better: "lower"},
			{name: "sim.locator_ns", unit: "ns", better: "lower"},
			{name: "sim.locator_share", unit: "ratio", better: "lower"},
			{name: "sim.events_per_task", unit: "count", better: "lower"},
			{name: "sim.engine_ns_per_event", unit: "ns", better: "lower"},
			{name: "sim.engine_self_share", unit: "ratio", better: "lower"},
			{name: "sim.run_allocs_per_task", unit: "count", better: "lower"},
			{name: "sim.transfers", unit: "count", better: "lower"},
			{name: "sim.transfer_bytes", unit: "B", better: "lower"},
			{name: "sim.writebacks", unit: "count", better: "lower"},
			{name: "sim.prefetch_share", unit: "ratio", better: "higher"},
			{name: "sim.gpu_busy_share", unit: "ratio", better: "higher"},
			{name: "sim.cpu_busy_share", unit: "ratio", better: "higher"},
		},
	},
	{
		name: "trace", code: "internal/trace recording",
		moves: "no end-to-end metric directly; overhead_share is what in-program tracing would cost",
		metrics: []metric{
			{name: "trace.mem_events_per_task", unit: "count", better: "lower"},
			{name: "trace.overhead_share", unit: "ratio", better: "lower"},
		},
	},
	{
		name: "oracle", code: "internal/oracle",
		moves: "no end-to-end metric (the check runs outside the untraced run); guards the oracle's own cost",
		metrics: []metric{
			{name: "oracle.check_ns_per_task", unit: "ns", better: "lower"},
			{name: "oracle.allocs_per_task", unit: "count", better: "lower"},
		},
	},
	{
		name: "threaded", code: "internal/runtime ThreadedEngine",
		moves: "run_tasks_per_s on threaded-cholesky, where the sched.* metrics are measured under concurrency",
		metrics: []metric{
			{name: "threaded.kernel_busy_share", unit: "ratio", better: "higher"},
			{name: "threaded.engine_ns_per_task", unit: "ns", better: "lower"},
		},
	},
}

// samples collects one value per iteration for each metric name.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, or NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// highPercentile returns the highest whole percentile above the median
// that still has at least ten samples beyond it, or 0 when n is too
// small for one.
func highPercentile(n int) int {
	p := int(math.Floor(100 * (1 - 10/float64(n))))
	if p <= 50 {
		return 0
	}
	return p
}

// ratio is a/b, or 0 when b is 0 (a layer the run never entered).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
