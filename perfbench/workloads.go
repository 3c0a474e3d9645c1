package main

import (
	"fmt"
	goruntime "runtime"

	"multiprio/internal/apps/dense"
	"multiprio/internal/apps/randdag"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/sched/registry"
	"multiprio/internal/sim"

	_ "multiprio/internal/core"        // registers multiprio
	_ "multiprio/internal/sched/eager" // registers eager
)

// workload is one input set of the benchmark: a graph generator, the
// machine and policy it runs under, and the engine that runs it.
type workload struct {
	name string
	// why is the one-sentence reason the workload exists; BENCHMARK.json
	// carries the same sentence.
	why string
	// params renders the generator and engine parameters for the report.
	params   func(smoke bool) string
	machine  func() *platform.Machine
	sched    string
	threaded bool
	// noise is the simulator's relative execution-time noise, drawn from
	// the seed. It makes the seed matter on workloads whose graph is fixed.
	noise float64
	// build generates one fresh graph from the seed. verify, non-nil for
	// real kernels, checks the computed result after the run.
	build func(m *platform.Machine, seed int64, smoke bool) (g *runtime.Graph, verify func() error)
}

// Sizes of the full and smoke runs.
const (
	randdagLayers, randdagSmokeLayers = 2000, 20
	cholTiles, cholSmokeTiles         = 40, 6
	threadedTiles, threadedTileSize   = 16, 24
	threadedSmokeTiles                = 4
	cholTileSize                      = 960
	// residualTol bounds max |L·Lᵀ - A| for the threaded Cholesky; the
	// generated matrices are diagonally dominant with entries below 2n.
	residualTol = 1e-6
)

func v100() *platform.Machine { return platform.IntelV100(platform.Config{GPUStreams: 1}) }

func smallsim() *platform.Machine { return platform.SmallSim(platform.Config{}) }

func cpuOnly() *platform.Machine { return platform.CPUOnly(goruntime.NumCPU()) }

func buildRanddag(m *platform.Machine, seed int64, smoke bool) (*runtime.Graph, func() error) {
	layers := randdagLayers
	if smoke {
		layers = randdagSmokeLayers
	}
	return randdag.Build(randdag.Params{Layers: layers, Width: 50, EdgeProb: 0.1, Machine: m, Seed: seed}), nil
}

func cholTilesFor(smoke bool) int {
	if smoke {
		return cholSmokeTiles
	}
	return cholTiles
}

func buildCholesky(m *platform.Machine, _ int64, smoke bool) (*runtime.Graph, func() error) {
	return dense.Cholesky(dense.Params{
		Tiles: cholTilesFor(smoke), TileSize: cholTileSize, Machine: m, UserPriorities: true,
	}), nil
}

func threadedTilesFor(smoke bool) int {
	if smoke {
		return threadedSmokeTiles
	}
	return threadedTiles
}

func buildThreaded(m *platform.Machine, seed int64, smoke bool) (*runtime.Graph, func() error) {
	g, verify := dense.CholeskyWithKernels(dense.Params{
		Tiles: threadedTilesFor(smoke), TileSize: threadedTileSize, Machine: m, UserPriorities: true,
	}, seed)
	return g, func() error { return verify(residualTol) }
}

func cholParams(platformName string) func(bool) string {
	return func(smoke bool) string {
		t := cholTilesFor(smoke)
		return fmt.Sprintf("dense.Cholesky T=%d (%d tasks) tile %d, expert priorities; %s; multiprio; sim noise 0.05 seeded",
			t, dense.CholeskyTaskCount(t), cholTileSize, platformName)
	}
}

// workloads are the benchmark's inputs, in report order. Each one
// stresses a different layer; see the why of each.
var workloads = []workload{
	{
		name: "randdag-eager",
		why:  "10^5-task random DAG under eager: graph build and the sim event queue dominate; policy and eviction work is bypassed",
		params: func(smoke bool) string {
			l := randdagLayers
			if smoke {
				l = randdagSmokeLayers
			}
			return fmt.Sprintf("randdag layers %d x width 50 (%d tasks), edge prob 0.1, graph seed = sim seed; intel-v100; eager; no noise", l, 50*l)
		},
		machine: v100,
		sched:   "eager",
		build:   buildRanddag,
	},
	{
		name:    "cholesky-multiprio-v100",
		why:     "tiled Cholesky that fits in GPU memory under multiprio: policy scoring, heaps and top-n dominate; eviction is bypassed",
		params:  cholParams("intel-v100"),
		machine: v100,
		sched:   "multiprio",
		noise:   0.05,
		build:   buildCholesky,
	},
	{
		name:    "cholesky-multiprio-smallsim",
		why:     "the same Cholesky on 1 GPU with 4 GiB (paper Fig. 4): the only workload loading the memory manager's eviction path",
		params:  cholParams("smallsim"),
		machine: smallsim,
		sched:   "multiprio",
		noise:   0.05,
		build:   buildCholesky,
	},
	{
		name: "threaded-cholesky",
		why:  "real Go Cholesky kernels on small tiles in the threaded engine, residual-checked: engine overhead under concurrency",
		params: func(smoke bool) string {
			t := threadedTilesFor(smoke)
			return fmt.Sprintf("dense.CholeskyWithKernels T=%d (%d tasks) tile %d, SPD matrix from the seed; cpu-only-%d; multiprio; threaded engine",
				t, dense.CholeskyTaskCount(t), threadedTileSize, goruntime.NumCPU())
		},
		machine:  cpuOnly,
		sched:    "multiprio",
		threaded: true,
		build:    buildThreaded,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// newEngine builds the workload's engine around s through the one
// construction path both engines share.
func (w workload) newEngine(m *platform.Machine, s runtime.Scheduler, seed int64, opts ...runtime.Option) (runtime.Engine, error) {
	if w.threaded {
		return runtime.NewThreadedEngine(m, s, opts...)
	}
	opts = append([]runtime.Option{
		runtime.WithSeed(seed), runtime.WithNoise(w.noise), runtime.WithTransferSpans(),
	}, opts...)
	return sim.NewEngine(m, s, opts...)
}

func (w workload) newScheduler() (runtime.Scheduler, error) {
	return registry.New(w.sched, registry.Options{})
}
