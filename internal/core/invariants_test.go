package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"multiprio/internal/platform"
	"multiprio/internal/runtime"
)

// TestQuickSchedulerInvariants drives MultiPrio with random push/pop
// interleavings and checks the bookkeeping invariants after every step:
// ready counts and the lock-free queued counts are non-negative and
// match heap sizes, best-remaining
// work stays non-negative, every pushed task is eventually claimable by
// a worker of an eligible architecture, and no task is ever lost.
func TestQuickSchedulerInvariants(t *testing.T) {
	f := func(seed int64, ops []uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := twoArchMachine(2, 2) // mems: ram, gpu0, gpu1
		g := runtime.NewGraph()
		s, _ := newSched(m, g, Defaults())

		workers := []runtime.WorkerInfo{
			{ID: 0, Arch: 0, Mem: 0},
			{ID: 1, Arch: 0, Mem: 0},
			{ID: 2, Arch: 1, Mem: 1},
			{ID: 3, Arch: 1, Mem: 2},
		}
		pushed, claimed := 0, 0
		for _, op := range ops {
			if op%3 == 0 {
				var cost []float64
				switch rng.Intn(3) {
				case 0:
					cost = []float64{0.5 + rng.Float64(), 0}
				case 1:
					cost = []float64{0, 0.1 + rng.Float64()}
				default:
					cost = []float64{0.5 + rng.Float64(), 0.05 + 0.1*rng.Float64()}
				}
				s.Push(g.Submit(&runtime.Task{Kind: "k", Cost: cost}))
				pushed++
			} else {
				w := workers[rng.Intn(len(workers))]
				if got := s.Pop(w); got != nil {
					if !got.Claimed() {
						return false
					}
					if !got.CanRun(w.Arch) {
						return false
					}
					claimed++
				}
			}
			// Invariants after every operation.
			for mem := 0; mem < 3; mem++ {
				rc := s.ReadyCount(platform.MemID(mem))
				if rc < 0 || rc != s.heaps[mem].Len() {
					t.Logf("ready count %d != heap len %d on mem %d", rc, s.heaps[mem].Len(), mem)
					return false
				}
				if q := s.queued[mem].Load(); int(q) != s.heaps[mem].Len() {
					t.Logf("queued %d != heap len %d on mem %d", q, s.heaps[mem].Len(), mem)
					return false
				}
				if s.BestRemainingWork(platform.MemID(mem)) < -1e-9 {
					return false
				}
				if err := s.heaps[mem].Verify(); err != nil {
					t.Log(err)
					return false
				}
			}
		}
		// Drain: every remaining task must be claimable by SOME worker.
		for {
			got := false
			for _, w := range workers {
				if s.Pop(w) != nil {
					claimed++
					got = true
				}
			}
			if !got {
				break
			}
		}
		if claimed != pushed {
			t.Logf("claimed %d of %d pushed", claimed, pushed)
			return false
		}
		for mem := 0; mem < 3; mem++ {
			if s.ReadyCount(platform.MemID(mem)) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
