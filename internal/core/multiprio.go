// Package core implements MultiPrio, the dynamic task scheduler with
// multiple priorities for heterogeneous computing systems introduced by
// Tayeb, Bramas, Faverge and Guermouche (IPPS 2024).
//
// MultiPrio keeps one binary max-heap of ready tasks per memory node
// (Section III-B). When a task becomes ready (PUSH, Algorithm 1) it is
// scored once per eligible architecture with two heuristics — the gain
// heuristic (Eq. 1, primary key) and the NOD criticality heuristic
// (Eq. 2, tie-break) — and inserted into every heap whose processing
// units can execute it. When a worker idles (POP, Algorithm 2) it takes
// the most data-local task among the top candidates of its node's heap
// (LS_SDH², Eq. 3), subject to the pop condition: the worker is the
// fastest architecture for the task, or the fastest architecture has
// enough remaining work queued (best_remaining_work) that letting a
// slower worker proceed helps the makespan. A failed condition evicts
// the task from this node's heap — duplicates in other heaps survive —
// which is the mechanism that removes end-of-DAG accelerator idle time
// (Section V-D, Fig. 4).
package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"multiprio/internal/heap"
	"multiprio/internal/obs"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
)

// Config tunes MultiPrio. The zero value plus Defaults() reproduces the
// paper's evaluation settings; the Disable* switches drive the ablation
// studies of DESIGN.md §5.
type Config struct {
	// LocalityWindow is n, the number of top heap candidates examined
	// by the locality-aware POP. Paper: n = 10.
	LocalityWindow int
	// Epsilon is the maximum normalized score distance from the heap
	// head for a candidate to stay eligible. Paper: ε = 0.8.
	Epsilon float64
	// MaxTries bounds the evict-and-retry loop of Algorithm 2.
	MaxTries int
	// DisableEviction makes the pop condition always true (the "without
	// eviction mechanism" configuration of Fig. 4).
	DisableEviction bool
	// DisableCriticality drops the NOD tie-break (gain-only ordering).
	DisableCriticality bool
	// DisableLocality makes POP take the heap head directly (n = 1).
	DisableLocality bool
	// FlatGain replaces Eq. 1 with a plain speedup ratio, the ablation
	// for the gain heuristic's normalization.
	FlatGain bool
}

// Defaults returns the paper's evaluation configuration (Section VI:
// n = 10, ε = 0.8).
func Defaults() Config {
	return Config{LocalityWindow: 10, Epsilon: 0.8, MaxTries: 4}
}

func (c Config) normalized() Config {
	if c.LocalityWindow <= 0 {
		c.LocalityWindow = 10
	}
	if c.Epsilon <= 0 {
		c.Epsilon = 0.8
	}
	if c.MaxTries <= 0 {
		c.MaxTries = 4
	}
	if c.DisableLocality {
		c.LocalityWindow = 1
	}
	return c
}

// taskState is MultiPrio's per-task scratch, stored in Task.SchedData.
type taskState struct {
	// members is a bitmask of memory nodes whose heap holds the task.
	members uint64
	// bestArch is the fastest eligible architecture at push time; the
	// best_remaining_work accounting must add and subtract the same
	// δ(t, bestArch), so it is frozen here.
	bestArch  platform.ArchID
	bestDelta float64
}

// Sched is the MultiPrio scheduler. Create with New; safe for concurrent
// use by the threaded engine (one global mutex guards the heap set, as
// the heaps are cheap and the number of memory nodes small).
type Sched struct {
	cfg Config

	mu    sync.Mutex
	env   *runtime.Env
	heaps []*heap.Heap // one per memory node
	// tasks maps a heap item id (the task ID) to its task; the entry is
	// nil once the task is claimed or drained from every heap.
	tasks []*runtime.Task
	// queued[m] mirrors heaps[m].Len(). It is stored under mu after
	// every heap mutation and read by Pop without the lock, so a worker
	// on an empty node does not contend for mu.
	queued []atomic.Int32

	// readyCount[m] is the number of ready tasks in heap m.
	readyCount []int
	// bestRemaining[m] is the summed δ(t, bestArch) of ready tasks
	// whose fastest architecture is the one tied to m (Algorithm 1).
	bestRemaining []float64
	// hd[a] is the highest execution-time difference recorded so far
	// on architecture a (the normalizer of Eq. 1).
	hd []float64
	// maxNOD is the running maximum of raw NOD values (normalizer of
	// the criticality score).
	maxNOD float64

	// Evictions counts pop-condition failures (observability).
	Evictions int64

	// topBuf is the reused top-n candidate scratch of POP; states a slab
	// so per-task scheduler state does not cost one allocation per task.
	topBuf []heap.ScoredID
	states []taskState
	// PUSH scratch, indexed by architecture and valid for the task being
	// scored: delta[a] is δ(t, a), NaN when a has no live worker; nod[a]
	// the raw NOD on a, NaN until computed; archBuf lists the eligible
	// architectures (can run t, have a live worker).
	delta   []float64
	nod     []float64
	archBuf []platform.ArchID

	// probe receives decision events and counter samples; nil (the
	// default) disables observation. Track names are prebuilt at Init
	// so the observing path does not allocate per event either.
	probe         obs.Probe
	readyTrack    []string
	bestRemTrack  []string
	evictionTrack string
}

// New returns a MultiPrio scheduler with the given configuration.
func New(cfg Config) *Sched {
	return &Sched{cfg: cfg.normalized()}
}

// Name implements runtime.Scheduler.
func (s *Sched) Name() string { return "multiprio" }

// Init implements runtime.Scheduler.
func (s *Sched) Init(env *runtime.Env) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(env.Machine.Mems) > 64 {
		panic("multiprio: more than 64 memory nodes unsupported")
	}
	s.env = env
	s.heaps = make([]*heap.Heap, len(env.Machine.Mems))
	for i := range s.heaps {
		s.heaps[i] = heap.New(256)
	}
	s.tasks = nil
	s.queued = make([]atomic.Int32, len(env.Machine.Mems))
	s.delta = make([]float64, len(env.Machine.Archs))
	s.nod = make([]float64, len(env.Machine.Archs))
	s.readyCount = make([]int, len(env.Machine.Mems))
	s.bestRemaining = make([]float64, len(env.Machine.Mems))
	s.hd = make([]float64, len(env.Machine.Archs))
	s.maxNOD = 0
	s.Evictions = 0
	s.states = nil
	s.probe = env.Probe
	if s.probe != nil {
		s.readyTrack = make([]string, len(env.Machine.Mems))
		s.bestRemTrack = make([]string, len(env.Machine.Mems))
		for i, mn := range env.Machine.Mems {
			s.readyTrack[i] = "multiprio.ready[" + mn.Name + "]"
			s.bestRemTrack[i] = "multiprio.best_remaining[" + mn.Name + "]"
		}
		s.evictionTrack = "multiprio.evictions"
	}
}

// allocState hands out per-task scratch from a slab (blocks of 256) so
// pushing a task does not allocate.
func (s *Sched) allocState() *taskState {
	if len(s.states) == 0 {
		s.states = make([]taskState, 256)
	}
	st := &s.states[0]
	s.states = s.states[1:]
	return st
}

// Push implements runtime.Scheduler (Algorithm 1). The task is scored
// and inserted into the heap of every memory node whose architecture can
// execute it.
func (s *Sched) Push(t *runtime.Task) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pushLocked(t)
}

func (s *Sched) pushLocked(t *runtime.Task) {
	m := s.env.Machine
	// The per-architecture quantities behind Eq. 1 (δ per architecture,
	// best/second-best deltas, eligible architectures) and Eq. 2 (raw
	// NOD) depend only on the task, not on the memory node: estimate
	// them once per architecture, not once per heap.
	bestArch, bestDelta, secondDelta, ok := s.estimate(t)
	if !ok {
		panic(fmt.Sprintf("multiprio: task %d (%s) runs on no available architecture", t.ID, t.Kind))
	}
	st := s.allocState()
	st.bestArch, st.bestDelta = bestArch, bestDelta
	t.SchedData = st

	archs := s.archBuf
	s.updateHD(archs, bestArch, bestDelta, secondDelta)
	for a := range s.nod {
		s.nod[a] = math.NaN()
	}

	var at float64
	var seq int64
	if s.probe != nil {
		at, seq = s.env.Now(), s.env.Seq()
		s.probe.Decision(obs.Decision{
			Kind: obs.PushBest, At: at, Seq: seq, Task: t.ID,
			Worker: -1, Mem: -1, Arch: int(bestArch),
			N: len(archs), A: bestDelta, B: secondDelta,
		})
	}
	inserted := false
	for mem := range m.Mems {
		memID := platform.MemID(mem)
		a := m.MemArch(memID)
		if !t.CanRun(a) || s.env.LiveWorkersOn(memID) == 0 {
			// No live worker will ever pop this node's heap (either the
			// node lost all its workers to faults, or it never had any).
			continue
		}
		gain := s.gainWith(t, a, len(archs), bestArch, bestDelta, secondDelta)
		prio := 0.0
		if !s.cfg.DisableCriticality {
			prio = s.criticality(t, a)
		}
		s.readyCount[mem]++
		if a == bestArch {
			s.bestRemaining[mem] += bestDelta
		}
		s.heaps[mem].Push(t.ID, heap.Score{Primary: gain, Secondary: prio})
		s.syncQueued(mem)
		st.members |= 1 << uint(mem)
		inserted = true
		if s.probe != nil {
			s.probe.Decision(obs.Decision{
				Kind: obs.PushScore, At: at, Seq: seq, Task: t.ID,
				Worker: -1, Mem: mem, Arch: int(a), A: gain, B: prio,
			})
			s.probe.Counter(s.readyTrack[mem], at, seq, float64(s.readyCount[mem]))
			if a == bestArch {
				s.probe.Counter(s.bestRemTrack[mem], at, seq, s.bestRemaining[mem])
			}
		}
	}
	if !inserted {
		panic(fmt.Sprintf("multiprio: task %d (%s) inserted into no heap", t.ID, t.Kind))
	}
	if int(t.ID) >= len(s.tasks) {
		grown := make([]*runtime.Task, max(int(t.ID)+1, 2*len(s.tasks)))
		copy(grown, s.tasks)
		s.tasks = grown
	}
	s.tasks[t.ID] = t
}

// syncQueued publishes heap mem's length to the lock-free empty check
// of Pop. Callers hold mu and call it after every mutation of the heap.
func (s *Sched) syncQueued(mem int) {
	s.queued[mem].Store(int32(s.heaps[mem].Len()))
}

// Pop implements runtime.Scheduler (Algorithm 2).
func (s *Sched) Pop(w runtime.WorkerInfo) *runtime.Task {
	// An empty node is answered without the lock. Every heap mutation
	// stores its length under mu, so a Pop that reads 0 is ordered
	// before any Push still in flight, as if it had taken mu first.
	if s.queued[w.Mem].Load() == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	for tries := 0; tries <= s.cfg.MaxTries; tries++ {
		t := s.mostLocalPrioTask(w.Mem)
		if t == nil {
			return nil
		}
		ok, cost, horizon := s.popCondition(t, w)
		if ok {
			if s.probe != nil {
				// The LS_SDH² score must be read before claim tears the
				// task's replica pins down — and read-only, so the
				// observation cannot perturb the decision it records.
				at, seq := s.env.Now(), s.env.Seq()
				s.probe.Decision(obs.Decision{
					Kind: obs.PopSelect, At: at, Seq: seq, Task: t.ID,
					Worker: int(w.ID), Mem: int(w.Mem), Arch: int(w.Arch),
					N: tries, A: s.env.LSSDH2(t, w.Mem), B: cost, C: horizon,
				})
			}
			s.claim(t)
			return t
		}
		// Evict from this node's heap; duplicates elsewhere survive.
		// The last live copy is never evicted: the pop condition is
		// always true on the best architecture's own nodes, and
		// estimate drift could otherwise strand a task.
		st := t.SchedData.(*taskState)
		if popcount(st.members) <= 1 {
			return nil
		}
		s.heaps[w.Mem].Remove(t.ID)
		s.syncQueued(int(w.Mem))
		st.members &^= 1 << uint(w.Mem)
		s.readyCount[w.Mem]--
		s.Evictions++
		if s.probe != nil {
			at, seq := s.env.Now(), s.env.Seq()
			s.probe.Decision(obs.Decision{
				Kind: obs.PopEvict, At: at, Seq: seq, Task: t.ID,
				Worker: int(w.ID), Mem: int(w.Mem), Arch: int(w.Arch),
				N: tries, A: cost, B: horizon,
			})
			s.probe.Counter(s.evictionTrack, at, seq, float64(s.Evictions))
			s.probe.Counter(s.readyTrack[w.Mem], at, seq, float64(s.readyCount[w.Mem]))
		}
	}
	return nil
}

// TaskDone implements runtime.Scheduler.
func (s *Sched) TaskDone(t *runtime.Task, w runtime.WorkerInfo) {}

// WorkerDown implements runtime.FaultObserver. Losing a worker on a
// node with survivors needs no heap surgery: the duplicates in the
// node's heap stay poppable. When the node loses its *last* worker its
// heap becomes unreachable, so it is drained here: memberships and the
// readyCount/best_remaining_work accounting are unwound entry by entry,
// and tasks that lived only in this heap are re-pushed so they are
// rescored against the shrunken machine (their bestArch may change,
// which is why a simple re-insert elsewhere would corrupt the
// best_remaining_work invariant).
func (s *Sched) WorkerDown(w runtime.WorkerInfo) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.env.LiveWorkersOn(w.Mem) > 0 {
		return
	}
	mem := w.Mem
	h := s.heaps[mem]
	var orphans []*runtime.Task
	for h.Len() > 0 {
		id, _, _ := h.Pop()
		t := s.tasks[id]
		if t == nil {
			continue // stale duplicate of an already-claimed task
		}
		st := t.SchedData.(*taskState)
		if st.members&(1<<uint(mem)) == 0 {
			continue
		}
		st.members &^= 1 << uint(mem)
		s.readyCount[mem]--
		if s.env.Machine.MemArch(mem) == st.bestArch {
			s.bestRemaining[mem] -= st.bestDelta
		}
		if st.members == 0 {
			s.tasks[t.ID] = nil
			orphans = append(orphans, t)
		}
	}
	s.syncQueued(int(mem))
	// The node is gone for good: zero the counters outright so float
	// accumulation error cannot leave a phantom horizon behind.
	s.readyCount[mem] = 0
	s.bestRemaining[mem] = 0
	if s.probe != nil {
		at, seq := s.env.Now(), s.env.Seq()
		s.probe.Counter(s.readyTrack[mem], at, seq, 0)
		s.probe.Counter(s.bestRemTrack[mem], at, seq, 0)
	}
	// Heap order made the drain deterministic; re-push in that order.
	for _, t := range orphans {
		s.pushLocked(t)
	}
}

// claim removes the task from every heap. Under the global lock this is
// equivalent to the paper's lazy duplicate removal (stale duplicates are
// recognized and dropped at the next pop) but keeps the ready counters
// and the top-n locality scans exact.
func (s *Sched) claim(t *runtime.Task) {
	if !t.TryClaim() {
		panic(fmt.Sprintf("multiprio: task %d double-claimed", t.ID))
	}
	st := t.SchedData.(*taskState)
	var at float64
	var seq int64
	if s.probe != nil {
		at, seq = s.env.Now(), s.env.Seq()
	}
	for mem := range s.heaps {
		if st.members&(1<<uint(mem)) == 0 {
			continue
		}
		s.heaps[mem].Remove(t.ID)
		s.syncQueued(mem)
		s.readyCount[mem]--
		if s.env.Machine.MemArch(platform.MemID(mem)) == st.bestArch {
			s.bestRemaining[mem] -= st.bestDelta
			if s.bestRemaining[mem] < 0 {
				s.bestRemaining[mem] = 0
			}
			if s.probe != nil {
				s.probe.Counter(s.bestRemTrack[mem], at, seq, s.bestRemaining[mem])
			}
		}
		if s.probe != nil {
			s.probe.Counter(s.readyTrack[mem], at, seq, float64(s.readyCount[mem]))
		}
	}
	st.members = 0
	s.tasks[t.ID] = nil
}

// mostLocalPrioTask returns the candidate the POP operation should
// consider on memory node mem: the most data-local task among the top-n
// heap entries whose primary score is within ε of the head (Section
// V-C). The heap is left untouched.
func (s *Sched) mostLocalPrioTask(mem platform.MemID) *runtime.Task {
	h := s.heaps[mem]
	if h.Len() == 0 {
		return nil
	}
	if s.cfg.LocalityWindow == 1 {
		id, _, _ := h.Peek()
		return s.tasks[id]
	}
	s.topBuf = h.TopNScored(s.topBuf[:0], s.cfg.LocalityWindow)
	if len(s.topBuf) == 0 {
		return nil
	}
	head := s.tasks[s.topBuf[0].ID]
	if s.missingBytes(head, mem) == 0 {
		// The head is already fully local: reordering can only hurt
		// (on the RAM node, where every handle is resident, LS_SDH²
		// would otherwise degenerate into sorting by data size).
		return head
	}
	headScore := s.topBuf[0].Score
	best := head
	bestLoc := s.env.LSSDH2(best, mem)
	for _, c := range s.topBuf[1:] {
		if headScore.Primary-c.Score.Primary > s.cfg.Epsilon {
			continue
		}
		t := s.tasks[c.ID]
		if t == nil {
			// A duplicate left behind by lazy removal: the task was
			// already claimed through another node's heap.
			if s.probe != nil {
				s.probe.Decision(obs.Decision{
					Kind: obs.PopStale, At: s.env.Now(), Seq: s.env.Seq(),
					Task: c.ID, Worker: -1, Mem: int(mem), Arch: -1,
				})
			}
			continue
		}
		if loc := s.env.LSSDH2(t, mem); loc > bestLoc {
			best, bestLoc = t, loc
		}
	}
	return best
}

// missingBytes sums the sizes of t's read data not resident on mem.
func (s *Sched) missingBytes(t *runtime.Task, mem platform.MemID) int64 {
	if s.env.Locator == nil {
		return 0
	}
	var sum int64
	for _, a := range t.Accesses {
		if a.Mode == runtime.W {
			continue
		}
		if !s.env.Locator.IsResident(a.Handle, mem) {
			sum += a.Handle.Bytes
		}
	}
	return sum
}

// popCondition decides whether the worker should take the task now
// (Section V-D): yes when the worker is of the task's fastest
// architecture, or when the best architecture's workers are busy long
// enough that letting this slower worker proceed helps the makespan —
// "if the best worker is sufficiently busy, we allow the task to go to
// a slower worker to maintain progress in the DAG".
//
// One reading of the pseudocode is made explicit here: the stealing
// worker's execution time includes its unit speed factor (GPU stream
// workers share their device), so a stream worker is charged the real
// time the steal would occupy the device slot.
//
// The steal cost and the remaining-work horizon it was compared against
// are returned for the probe (both 0 on the trivially-true branches).
func (s *Sched) popCondition(t *runtime.Task, w runtime.WorkerInfo) (ok bool, cost, horizon float64) {
	if s.cfg.DisableEviction {
		return true, 0, 0
	}
	st := t.SchedData.(*taskState)
	if w.Arch == st.bestArch {
		return true, 0, 0
	}
	minHorizon := math.Inf(1)
	for mem := range s.env.Machine.Mems {
		memID := platform.MemID(mem)
		// Dead nodes hold no workers to burn their remaining work down;
		// with every best-arch node dead the horizon stays +Inf and any
		// surviving worker may take the task.
		if s.env.Machine.MemArch(memID) != st.bestArch || s.env.LiveWorkersOn(memID) == 0 {
			continue
		}
		if h := s.bestRemaining[mem]; h < minHorizon {
			minHorizon = h
		}
	}
	cost = s.env.Delta(t, w.Arch) * s.env.Machine.Units[w.ID].SpeedFactor
	return minHorizon > cost, cost, minHorizon
}

// estimate fills the PUSH scratch for task t with one δ estimate per
// architecture that has a live worker: delta, and archBuf with the
// eligible architectures. It returns the best architecture, its δ and
// the second-best δ with the order and tie rules of Env.BestArch and
// Env.SecondBestArch (the first of equal minima wins; +Inf never ranks).
// ok is false when no live worker can run t.
func (s *Sched) estimate(t *runtime.Task) (best platform.ArchID, bestDelta, secondDelta float64, ok bool) {
	best, bestDelta, secondDelta = -1, math.Inf(1), math.Inf(1)
	archs := s.archBuf[:0]
	for a := range s.delta {
		arch := platform.ArchID(a)
		if s.env.LiveWorkersOf(arch) == 0 {
			s.delta[a] = math.NaN()
			continue
		}
		d := s.env.Delta(t, arch)
		s.delta[a] = d
		if t.CanRun(arch) {
			archs = append(archs, arch)
		}
		switch {
		case d < bestDelta:
			secondDelta = bestDelta
			best, bestDelta = arch, d
		case d < secondDelta:
			secondDelta = d
		}
	}
	s.archBuf = archs
	return best, bestDelta, secondDelta, best >= 0
}

// deltaOf returns δ(t, a) from the PUSH scratch, estimating afresh only
// for an architecture without live workers (Gain may be asked about one).
func (s *Sched) deltaOf(t *runtime.Task, a platform.ArchID) float64 {
	if d := s.delta[a]; !math.IsNaN(d) {
		return d
	}
	return s.env.Delta(t, a)
}

// gain computes the gain heuristic of Eq. 1 for task t on architecture
// a, normalized to [0, 1].
func (s *Sched) gain(t *runtime.Task, a platform.ArchID) float64 {
	bestArch, bestDelta, secondDelta, _ := s.estimate(t)
	return s.gainWith(t, a, len(s.archBuf), bestArch, bestDelta, secondDelta)
}

// gainWith is gain with the task-level inputs (the delta scratch,
// eligible-architecture count, best/second-best deltas) filled by
// estimate: Push scores a task once per memory node and those inputs do
// not change across nodes.
func (s *Sched) gainWith(t *runtime.Task, a platform.ArchID, nArchs int, bestArch platform.ArchID, bestDelta, secondDelta float64) float64 {
	if s.cfg.FlatGain {
		// Ablation: plain affinity ratio, 1 on the fastest arch.
		d := s.deltaOf(t, a)
		if d <= 0 || math.IsInf(d, 1) {
			return 0
		}
		return bestDelta / d
	}
	if nArchs <= 1 {
		return 1
	}
	da := s.deltaOf(t, a)
	hd := s.hd[a]
	if hd <= 0 {
		return 0.5
	}
	var diff float64
	if a == bestArch {
		diff = secondDelta - da
	} else {
		diff = bestDelta - da
	}
	g := (diff + hd) / (2 * hd)
	if g < 0 {
		return 0
	}
	if g > 1 {
		return 1
	}
	return g
}

// updateHD refreshes the per-architecture highest execution-time
// difference with the task estimate just scored, before its gain is
// computed (the worked example of Table II includes the current task in
// hd).
func (s *Sched) updateHD(archs []platform.ArchID, bestArch platform.ArchID, bestDelta, secondDelta float64) {
	if len(archs) <= 1 {
		return
	}
	for _, a := range archs {
		da := s.delta[a]
		var diff float64
		if a == bestArch {
			diff = math.Abs(secondDelta - da)
		} else {
			diff = math.Abs(bestDelta - da)
		}
		if diff > s.hd[a] {
			s.hd[a] = diff
		}
	}
}

// criticality computes the normalized NOD score of Eq. 2 for task t
// restricted to architecture a: successors executable on a weighted by
// the inverse of their predecessor counts on a. The raw NOD depends only
// on t and a, so it is computed once per architecture per push and
// shared by that architecture's memory nodes; maxNOD advances and
// normalizes once per node, in node order, as the scores require.
func (s *Sched) criticality(t *runtime.Task, a platform.ArchID) float64 {
	nod := s.nod[a]
	if math.IsNaN(nod) {
		nod = s.NOD(t, a)
		s.nod[a] = nod
	}
	if nod > s.maxNOD {
		s.maxNOD = nod
	}
	if s.maxNOD <= 0 {
		return 0
	}
	return nod / s.maxNOD
}

// Gain exposes the gain heuristic (Eq. 1) of a pushed task for reports
// and the Table II experiment.
func (s *Sched) Gain(t *runtime.Task, a platform.ArchID) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gain(t, a)
}

// HD returns the current highest execution-time difference recorded on
// architecture a (the Eq. 1 normalizer).
func (s *Sched) HD(a platform.ArchID) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hd[a]
}

// NOD computes the raw Normalized Out-Degree of Eq. 2 on architecture a.
// Exported for the Fig. 3 experiment and tests.
func (s *Sched) NOD(t *runtime.Task, a platform.ArchID) float64 {
	var nod float64
	for _, succ := range t.Succs() {
		if !succ.CanRun(a) {
			continue
		}
		n := succ.NumPredsOn(a, s.env.Graph)
		if n > 0 {
			nod += 1 / float64(n)
		}
	}
	return nod
}

// ReadyCount returns the current number of ready tasks queued on mem
// (observability; Section IV-B notes the structure exposes this).
func (s *Sched) ReadyCount(mem platform.MemID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.readyCount[mem]
}

// BestRemainingWork returns the pending best-affinity work accounted on
// mem, in seconds.
func (s *Sched) BestRemainingWork(mem platform.MemID) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bestRemaining[mem]
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
