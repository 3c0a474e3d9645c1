// Package prio implements StarPU's "prio" scheduling policy: a single
// central queue ordered by the application-provided task priority
// (FIFO within equal priorities), consumed by every worker. It is
// eager's priority-aware sibling: no performance models, no
// heterogeneity awareness — only the user's static priorities.
package prio

import (
	"sync"

	"multiprio/internal/heap"
	"multiprio/internal/runtime"
)

// Sched is the prio policy. Create with New.
type Sched struct {
	mu sync.Mutex
	h  *heap.Heap
	// tasks maps a heap item id (the task ID) to its task; nil once
	// claimed.
	tasks []*runtime.Task
	// ids is the reused top-n scratch of Pop.
	ids []int64
	seq int64
}

// New returns a prio scheduler.
func New() *Sched { return &Sched{} }

// Name implements runtime.Scheduler.
func (s *Sched) Name() string { return "prio" }

// Init implements runtime.Scheduler.
func (s *Sched) Init(env *runtime.Env) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.h = heap.New(256)
	s.tasks = nil
	s.seq = 0
}

// Push implements runtime.Scheduler: priority descending, FIFO within
// ties (the secondary key decreases with submission order).
func (s *Sched) Push(t *runtime.Task) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	s.h.Push(t.ID, heap.Score{
		Primary:   float64(t.Priority),
		Secondary: -float64(s.seq),
	})
	if int(t.ID) >= len(s.tasks) {
		grown := make([]*runtime.Task, max(int(t.ID)+1, 2*len(s.tasks)))
		copy(grown, s.tasks)
		s.tasks = grown
	}
	s.tasks[t.ID] = t
}

// Pop implements runtime.Scheduler: the highest-priority task the
// worker can run, scanning past incompatible heads.
func (s *Sched) Pop(w runtime.WorkerInfo) *runtime.Task {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Scan a bounded prefix for a runnable task; the heap rarely holds
	// long runs of incompatible tasks in practice.
	const scan = 64
	s.ids = s.h.TopN(s.ids[:0], scan)
	for _, id := range s.ids {
		t := s.tasks[id]
		if t == nil || !t.CanRun(w.Arch) {
			continue
		}
		if !t.TryClaim() {
			continue
		}
		s.h.Remove(id)
		s.tasks[id] = nil
		return t
	}
	return nil
}

// TaskDone implements runtime.Scheduler.
func (s *Sched) TaskDone(t *runtime.Task, w runtime.WorkerInfo) {}

// Len returns the queued task count (tests).
func (s *Sched) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.h.Len()
}
