package runtime

import (
	"strings"
	"sync"
	"testing"
	"time"

	"multiprio/internal/fault"
	"multiprio/internal/platform"
)

func TestNewThreadedEngineNilArgs(t *testing.T) {
	if _, err := NewThreadedEngine(nil, &fifoSched{}); err == nil ||
		!strings.Contains(err.Error(), "nil machine") {
		t.Errorf("nil machine: err = %v, want descriptive error", err)
	}
	if _, err := NewThreadedEngine(platform.CPUOnly(2), nil); err == nil ||
		!strings.Contains(err.Error(), "nil scheduler") {
		t.Errorf("nil scheduler: err = %v, want descriptive error", err)
	}
}

// faultTestGraph builds a batch of independent sleeping kernels wide
// enough that kills land while work is still in flight.
func faultTestGraph(n int, d time.Duration) *Graph {
	g := NewGraph()
	for i := 0; i < n; i++ {
		task := cpuTask("work", d.Seconds())
		task.Run = func(w WorkerInfo) { time.Sleep(d) }
		g.Submit(task)
	}
	return g
}

func TestThreadedEngineKillRecovery(t *testing.T) {
	g := faultTestGraph(24, 2*time.Millisecond)
	plan := &fault.Plan{
		Events: []fault.Event{
			{Kind: fault.KillWorker, Worker: 0, At: 0.004},
			{Kind: fault.KillWorker, Worker: 1, At: 0.007},
		},
		Backoff: 1e-4,
	}
	eng, err := NewThreadedEngine(platform.CPUOnly(4), &fifoSched{}, WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Kills != 2 || len(res.Faults.AppliedKills) != 2 {
		t.Errorf("kills applied = %d (%v), want 2", res.Faults.Kills, res.Faults.AppliedKills)
	}
	// Exactly-once-effective: every task has exactly one successful
	// span, and no successful span outlives its worker's applied kill.
	killAt := map[platform.UnitID]float64{}
	for _, k := range res.Faults.AppliedKills {
		killAt[k.Unit] = k.At
	}
	okSpans := map[int64]int{}
	for _, s := range res.Trace.Spans {
		if s.Failed {
			continue
		}
		okSpans[s.TaskID]++
		if at, dead := killAt[s.Worker]; dead && s.End > at {
			t.Errorf("task %d committed on worker %d at %g, after its kill at %g",
				s.TaskID, s.Worker, s.End, at)
		}
	}
	for _, task := range g.Tasks {
		if okSpans[task.ID] != 1 {
			t.Errorf("task %d has %d successful spans, want 1", task.ID, okSpans[task.ID])
		}
	}
	if res.Trace.FailedCount() != res.Faults.Retries {
		t.Errorf("failed spans = %d, retries = %d; want equal",
			res.Trace.FailedCount(), res.Faults.Retries)
	}
	for _, w := range res.Workers {
		if _, dead := killAt[w.Unit]; dead != w.Dead {
			t.Errorf("worker %d Dead = %v, want %v", w.Unit, w.Dead, dead)
		}
	}
}

func TestThreadedEngineSlowdownStretches(t *testing.T) {
	d := 2 * time.Millisecond
	g := NewGraph()
	task := cpuTask("slow", d.Seconds())
	task.Run = func(w WorkerInfo) { time.Sleep(d) }
	g.Submit(task)
	plan := &fault.Plan{Events: []fault.Event{
		{Kind: fault.SlowWorker, Worker: 0, At: 0, Until: 10, Factor: 4},
		{Kind: fault.SlowWorker, Worker: 1, At: 0, Until: 10, Factor: 4},
	}}
	eng, err := NewThreadedEngine(platform.CPUOnly(2), &fifoSched{}, WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Slowdowns != 1 {
		t.Errorf("slowdowns = %d, want 1", res.Faults.Slowdowns)
	}
	if got := task.EndAt - task.StartAt; got < 3*d.Seconds() {
		t.Errorf("slowed kernel span = %gs, want >= %gs (factor 4 over %gs)",
			got, 3*d.Seconds(), d.Seconds())
	}
}

// TestThreadedEngineKillDuringCommute exercises the completion-discard
// path while commute locks are held: the discarded attempt must release
// its locks so the retry (and other commuters) can proceed.
func TestThreadedEngineKillDuringCommute(t *testing.T) {
	g := NewGraph()
	acc := g.NewData("acc", 8)
	var mu sync.Mutex
	commits := 0
	for i := 0; i < 8; i++ {
		task := cpuTask("update", 0.002, Access{acc, Commute})
		task.Run = func(w WorkerInfo) {
			time.Sleep(2 * time.Millisecond)
			mu.Lock()
			commits++
			mu.Unlock()
		}
		g.Submit(task)
	}
	plan := &fault.Plan{
		Events:  []fault.Event{{Kind: fault.KillWorker, Worker: 0, At: 0.003}},
		Backoff: 1e-4,
	}
	eng, err := NewThreadedEngine(platform.CPUOnly(3), &fifoSched{}, WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	// Kernel side effects are not rolled back (the engines discard the
	// *completion*, not the computation), so commits may exceed the
	// task count by the number of discarded attempts.
	if commits < 8 {
		t.Errorf("commits = %d, want >= 8", commits)
	}
	if res.Faults.Kills != 1 {
		t.Errorf("kills = %d, want 1", res.Faults.Kills)
	}
}

// TestNewThreadedEngineRejectsPlanOffTheMachine pins that a fault plan
// naming a unit the machine lacks fails at construction instead of
// panicking inside a kill timer goroutine (a kill) or being silently
// ignored (a slowdown).
func TestNewThreadedEngineRejectsPlanOffTheMachine(t *testing.T) {
	m := platform.CPUOnly(2)
	for _, ev := range []fault.Event{
		{Kind: fault.KillWorker, Worker: 7},
		{Kind: fault.SlowWorker, Worker: 9, Until: 1, Factor: 2},
	} {
		plan := &fault.Plan{Events: []fault.Event{ev}}
		if _, err := NewThreadedEngine(m, &fifoSched{}, WithFaultPlan(plan)); err == nil ||
			!strings.Contains(err.Error(), "out of range") {
			t.Errorf("%s on unit %d: err = %v, want out-of-range error", ev.Kind, ev.Worker, err)
		}
	}
}
