package core

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"multiprio/internal/perfmodel"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
)

// countingEstimator counts Estimate calls over the oracle model. Kinds
// with the prefix "noest" get no estimate on architecture 0, so an
// architecture can be eligible (the task has an implementation, a
// worker is alive) yet priced at +Inf. Such a task drives hd to +Inf
// and every later gain on that architecture to NaN, before and after
// the single-pass estimate alike, so the comparisons below are
// NaN-aware.
type countingEstimator struct {
	calls atomic.Int64
}

func (c *countingEstimator) Estimate(kind string, arch platform.ArchID, footprint uint64, prior func() (float64, bool)) (float64, bool) {
	c.calls.Add(1)
	if arch == 0 && strings.HasPrefix(kind, "noest") {
		return 0, false
	}
	return perfmodel.Oracle{}.Estimate(kind, arch, footprint, prior)
}

// quadArchMachine has four architectures; architecture 1 spans two
// memory nodes, so two heaps share one δ and one NOD per push.
func quadArchMachine() *platform.Machine {
	m := &platform.Machine{
		Name:  "quad",
		Archs: []platform.Arch{{Name: "cpu"}, {Name: "gpuA"}, {Name: "gpuB"}, {Name: "fpga"}},
		Mems:  []platform.MemNode{{Name: "ram"}, {Name: "memA0"}, {Name: "memA1"}, {Name: "memB"}, {Name: "memF"}},
		Units: []platform.Unit{
			{Name: "cpu0", Arch: 0, Mem: 0, SpeedFactor: 1},
			{Name: "cpu1", Arch: 0, Mem: 0, SpeedFactor: 1},
			{Name: "gpuA0", Arch: 1, Mem: 1, SpeedFactor: 1},
			{Name: "gpuA1", Arch: 1, Mem: 2, SpeedFactor: 1},
			{Name: "gpuB0", Arch: 2, Mem: 3, SpeedFactor: 1},
			{Name: "fpga0", Arch: 3, Mem: 4, SpeedFactor: 1},
		},
	}
	n := len(m.Mems)
	m.LinkMatrix = make([][]platform.Link, n)
	for i := range m.LinkMatrix {
		m.LinkMatrix[i] = make([]platform.Link, n)
		for j := range m.LinkMatrix[i] {
			if i != j {
				m.LinkMatrix[i][j] = platform.Link{BandwidthBytes: 1e9}
			}
		}
	}
	if err := m.Validate(); err != nil {
		panic(err)
	}
	return m
}

// refModel recomputes MultiPrio's gain inputs from the Env's own
// BestArch, SecondBestArch and Delta, one query per use, as the
// scheduler did before it estimated once per architecture per push.
type refModel struct {
	env *runtime.Env
	cfg Config
	hd  []float64
}

func (r *refModel) eligible(t *runtime.Task) int {
	n := 0
	for a := range r.env.Machine.Archs {
		if t.CanRun(platform.ArchID(a)) && r.env.LiveWorkersOf(platform.ArchID(a)) > 0 {
			n++
		}
	}
	return n
}

// push folds t into the running hd maxima.
func (r *refModel) push(t *runtime.Task) {
	if r.eligible(t) <= 1 {
		return
	}
	best, bestD, _ := r.env.BestArch(t)
	_, secondD, _ := r.env.SecondBestArch(t)
	for a := range r.env.Machine.Archs {
		arch := platform.ArchID(a)
		if !t.CanRun(arch) || r.env.LiveWorkersOf(arch) == 0 {
			continue
		}
		d := r.env.Delta(t, arch)
		diff := math.Abs(bestD - d)
		if arch == best {
			diff = math.Abs(secondD - d)
		}
		r.hd[a] = math.Max(r.hd[a], diff)
	}
}

func (r *refModel) gain(t *runtime.Task, a platform.ArchID) float64 {
	best, bestD, _ := r.env.BestArch(t)
	_, secondD, _ := r.env.SecondBestArch(t)
	d := r.env.Delta(t, a)
	if r.cfg.FlatGain {
		if d <= 0 || math.IsInf(d, 1) {
			return 0
		}
		return bestD / d
	}
	if r.eligible(t) <= 1 {
		return 1
	}
	if r.hd[a] <= 0 {
		return 0.5
	}
	diff := bestD - d
	if a == best {
		diff = secondD - d
	}
	return math.Min(1, math.Max(0, (diff+r.hd[a])/(2*r.hd[a])))
}

// randomCost draws a cost vector from a small value set (so ties
// between architectures are common) with some architectures left
// without an implementation.
func randomCost(rng *rand.Rand, nArchs int) []float64 {
	cost := make([]float64, nArchs)
	for a := range cost {
		if rng.Intn(4) > 0 {
			cost[a] = float64(1 + rng.Intn(3))
		}
	}
	return cost
}

// killArch takes every worker of arch down, as the engines do on a
// KillWorker fault.
func killArch(s *Sched, env *runtime.Env, arch platform.ArchID) {
	for i, u := range env.Machine.Units {
		if u.Arch == arch {
			env.MarkWorkerDown(platform.UnitID(i))
			s.WorkerDown(runtime.WorkerInfo{ID: platform.UnitID(i), Arch: u.Arch, Mem: u.Mem})
		}
	}
}

// TestPushEstimatesOncePerLiveArch checks Push estimates δ exactly once
// per live architecture that can run the task, and that what it stores
// (bestArch, bestDelta, hd, the heap's gain scores, Gain) is what the
// Env's BestArch, SecondBestArch and Delta give. The random cost
// vectors cover non-runnable architectures, ties, an eligible
// architecture without an estimate, and an architecture whose workers
// are all killed before or between pushes.
func TestPushEstimatesOncePerLiveArch(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		cfg := Defaults()
		cfg.FlatGain = trial%4 == 3
		m := quadArchMachine()
		g := runtime.NewGraph()
		est := &countingEstimator{}
		s := New(cfg)
		env := runtime.NewEnv(m, g)
		env.Model = est
		s.Init(env)
		ref := &refModel{env: env, cfg: s.cfg, hd: make([]float64, len(m.Archs))}

		// Architecture 1 spans two memory nodes; kill it before any
		// push, between pushes, or never.
		killAt := -1
		switch trial % 3 {
		case 1:
			killArch(s, env, 1)
		case 2:
			killAt = 10 + rng.Intn(20)
		}
		var pushed []*runtime.Task
		for i := 0; i < 40; i++ {
			if i == killAt {
				// The drain re-pushes tasks queued only on the dead
				// nodes; fold them into the reference hd too.
				var orphans []*runtime.Task
				for _, p := range pushed {
					if members := p.SchedData.(*taskState).members; members != 0 && members&^(1<<1|1<<2) == 0 {
						orphans = append(orphans, p)
					}
				}
				killArch(s, env, 1)
				for _, o := range orphans {
					ref.push(o)
					st := o.SchedData.(*taskState)
					if best, bestD, _ := env.BestArch(o); st.bestArch != best || st.bestDelta != bestD {
						t.Fatalf("trial %d: re-pushed task %d stores best (%d, %g), Env.BestArch gives (%d, %g)", trial, o.ID, st.bestArch, st.bestDelta, best, bestD)
					}
				}
			}
			kind := "k"
			if trial%5 == 4 && rng.Intn(5) == 0 {
				kind = "noest"
			}
			cost := randomCost(rng, len(m.Archs))
			if trial%3 != 0 && cost[2] == 0 && cost[3] == 0 {
				// A task queued only on the killed architecture's nodes
				// must have a live one left to be re-pushed to.
				cost[2+rng.Intn(2)] = float64(1 + rng.Intn(3))
			}
			task := g.Submit(&runtime.Task{Kind: kind, Cost: cost})
			if _, _, ok := env.BestArch(task); !ok {
				continue // runs nowhere: Push rejects it, covered elsewhere
			}
			want := 0
			for a := range m.Archs {
				if task.CanRun(platform.ArchID(a)) && env.LiveWorkersOf(platform.ArchID(a)) > 0 {
					want++
				}
			}
			before := est.calls.Load()
			s.Push(task)
			if got := est.calls.Load() - before; got != int64(want) {
				t.Fatalf("trial %d: Push of %v estimated %d times, want %d (one per live runnable architecture)", trial, task.Cost, got, want)
			}
			ref.push(task)
			pushed = append(pushed, task)

			st := task.SchedData.(*taskState)
			if best, bestD, _ := env.BestArch(task); st.bestArch != best || st.bestDelta != bestD {
				t.Fatalf("trial %d: task %v stores best (%d, %g), Env.BestArch gives (%d, %g)", trial, task.Cost, st.bestArch, st.bestDelta, best, bestD)
			}
			for a := range m.Archs {
				if got := s.HD(platform.ArchID(a)); !same(got, ref.hd[a]) {
					t.Fatalf("trial %d: hd[%d] = %g, want %g", trial, a, got, ref.hd[a])
				}
			}
			for mem := range m.Mems {
				sc, ok := s.heaps[mem].Score(task.ID)
				if !ok {
					continue
				}
				if want := ref.gain(task, m.MemArch(platform.MemID(mem))); !same(sc.Primary, want) {
					t.Fatalf("trial %d: task %v scored %g on node %d, want %g", trial, task.Cost, sc.Primary, mem, want)
				}
			}
		}
		for _, task := range pushed {
			for a := range m.Archs {
				if got, want := s.Gain(task, platform.ArchID(a)), ref.gain(task, platform.ArchID(a)); !same(got, want) {
					t.Fatalf("trial %d: Gain(%v, %d) = %g, want %g", trial, task.Cost, a, got, want)
				}
			}
		}
	}
}

// same is float equality that also holds between two NaNs.
func same(a, b float64) bool { return a == b || math.IsNaN(a) && math.IsNaN(b) }

// TestConcurrentPushPop pushes from several goroutines while every
// worker pops concurrently, then drains what is left. Every task must be
// popped exactly once and nothing may stay stranded behind the lock-free
// empty check.
func TestConcurrentPushPop(t *testing.T) {
	const pushers, perPusher = 4, 300
	m := twoArchMachine(2, 2)
	g := runtime.NewGraph()
	var tasks [pushers][]*runtime.Task
	for p := range tasks {
		for i := 0; i < perPusher; i++ {
			cost := []float64{float64(1 + i%3), float64(1 + (i+p)%4)}
			tasks[p] = append(tasks[p], g.Submit(&runtime.Task{Kind: "k", Cost: cost}))
		}
	}
	s, _ := newSched(m, g, Defaults())
	workers := make([]runtime.WorkerInfo, len(m.Units))
	for i, u := range m.Units {
		workers[i] = runtime.WorkerInfo{ID: platform.UnitID(i), Arch: u.Arch, Mem: u.Mem}
	}

	popCount := make([]atomic.Int32, len(g.Tasks))
	var pushing sync.WaitGroup
	var stop atomic.Bool
	var popping sync.WaitGroup
	for _, w := range workers {
		popping.Add(1)
		go func(w runtime.WorkerInfo) {
			defer popping.Done()
			for !stop.Load() {
				if task := s.Pop(w); task != nil {
					popCount[task.ID].Add(1)
				}
			}
		}(w)
	}
	for p := range tasks {
		pushing.Add(1)
		go func(ts []*runtime.Task) {
			defer pushing.Done()
			for _, task := range ts {
				s.Push(task)
			}
		}(tasks[p])
	}
	pushing.Wait()
	stop.Store(true)
	popping.Wait()

	// Drain sequentially: a task stranded behind a stale queued count
	// would never come out here.
	for progress := true; progress; {
		progress = false
		for _, w := range workers {
			if task := s.Pop(w); task != nil {
				popCount[task.ID].Add(1)
				progress = true
			}
		}
	}
	for id := range popCount {
		if n := popCount[id].Load(); n != 1 {
			t.Errorf("task %d popped %d times, want 1", id, n)
		}
	}
	for mem := range m.Mems {
		if n, q := s.heaps[mem].Len(), s.queued[mem].Load(); n != 0 || q != 0 {
			t.Errorf("node %d: heap holds %d, queued says %d after the drain, want 0", mem, n, q)
		}
	}
}
