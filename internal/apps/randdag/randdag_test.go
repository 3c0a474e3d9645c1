package randdag

import (
	"fmt"
	"testing"
	"testing/quick"

	"multiprio/internal/core"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/sched/eager"
	"multiprio/internal/sim"
)

func TestBuildShape(t *testing.T) {
	m := platform.IntelV100(platform.Config{})
	g := Build(Params{Layers: 5, Width: 8, Machine: m, Seed: 3})
	if len(g.Tasks) != 40 {
		t.Fatalf("tasks = %d, want 40", len(g.Tasks))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// First layer has no predecessors.
	for _, task := range g.Tasks[:8] {
		if task.NumPreds() != 0 {
			t.Fatal("layer-0 task has predecessors")
		}
	}
	// Some cross-layer edges exist.
	edges := 0
	for _, task := range g.Tasks {
		edges += len(task.Succs())
	}
	if edges == 0 {
		t.Fatal("no edges generated")
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	m := platform.IntelV100(platform.Config{})
	a := Build(Params{Layers: 4, Width: 6, Machine: m, Seed: 11})
	b := Build(Params{Layers: 4, Width: 6, Machine: m, Seed: 11})
	c := Build(Params{Layers: 4, Width: 6, Machine: m, Seed: 12})
	if len(a.Tasks) != len(b.Tasks) {
		t.Fatal("same seed, different task counts")
	}
	sameCost := true
	for i := range a.Tasks {
		if a.Tasks[i].Cost[0] != b.Tasks[i].Cost[0] {
			t.Fatal("same seed, different costs")
		}
		if a.Tasks[i].Cost[0] != c.Tasks[i].Cost[0] {
			sameCost = false
		}
	}
	if sameCost {
		t.Error("different seeds produced identical graphs")
	}
}

func TestGranularitySpreadRespected(t *testing.T) {
	m := platform.IntelV100(platform.Config{})
	g := Build(Params{Layers: 10, Width: 20, GranularitySpread: 100, Machine: m, Seed: 5})
	min, max := 1e18, 0.0
	for _, task := range g.Tasks {
		c := task.Cost[platform.ArchCPU]
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if max/min < 20 {
		t.Errorf("cost spread %v, want >= 20 with spread=100", max/min)
	}
}

func TestMixedAffinity(t *testing.T) {
	m := platform.IntelV100(platform.Config{})
	g := Build(Params{Layers: 6, Width: 20, GPUShare: 0.5, Machine: m, Seed: 7})
	accel, host := 0, 0
	for _, task := range g.Tasks {
		if task.CanRun(platform.ArchGPU) {
			accel++
		} else {
			host++
		}
	}
	if accel == 0 || host == 0 {
		t.Errorf("affinity mix degenerate: %d accel, %d host", accel, host)
	}
}

func TestQuickAlwaysSchedulable(t *testing.T) {
	m := platform.IntelV100(platform.Config{})
	f := func(seed int64, layers, width uint8) bool {
		g := Build(Params{
			Layers: int(layers%6) + 1, Width: int(width%10) + 1,
			Machine: m, Seed: seed,
		})
		if g.Validate() != nil {
			return false
		}
		for _, s := range []runtime.Scheduler{core.New(core.Defaults()), eager.New()} {
			eng, err := sim.NewEngine(m, s)
			if err != nil {
				return false
			}
			if _, err := eng.Run(g); err != nil {
				return false
			}
			g.ResetRun()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestTypedFractionZeroLeavesStreamUntouched(t *testing.T) {
	m := platform.IntelV100(platform.Config{})
	base := Build(Params{Layers: 5, Width: 8, CommuteShare: 0.3, Machine: m, Seed: 17})
	same := Build(Params{Layers: 5, Width: 8, CommuteShare: 0.3, TypedFraction: 0, Machine: m, Seed: 17})
	for i := range base.Tasks {
		if base.Tasks[i].Cost[0] != same.Tasks[i].Cost[0] ||
			base.Tasks[i].Priority != same.Tasks[i].Priority ||
			len(base.Tasks[i].Accesses) != len(same.Tasks[i].Accesses) {
			t.Fatalf("TypedFraction=0 perturbed the random stream at task %d", i)
		}
	}
}

func TestTypedFractionRestrictsToGPU(t *testing.T) {
	m := platform.IntelV100(platform.Config{})
	g := Build(Params{Layers: 6, Width: 10, GPUShare: 0.8, TypedFraction: 0.6, Machine: m, Seed: 9})
	typed := 0
	for _, task := range g.Tasks {
		if task.Kind != "typed" {
			continue
		}
		typed++
		if task.CanRun(platform.ArchCPU) {
			t.Errorf("typed task %d still runs on CPU", task.ID)
		}
		if !task.CanRun(platform.ArchGPU) {
			t.Errorf("typed task %d runs nowhere", task.ID)
		}
	}
	if typed == 0 {
		t.Fatal("no typed tasks generated at TypedFraction=0.6")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestHandleNames pins the output handle names to the d<l>.<i> format,
// byte for byte, with and without the shared accumulator handle, and
// checks that the spec slabs hand each task a capped window.
func TestHandleNames(t *testing.T) {
	m := platform.IntelV100(platform.Config{})
	for _, commute := range []float64{0, 0.3} {
		p := Params{Layers: 12, Width: 11, CommuteShare: commute, Machine: m, Seed: 4}
		g := Build(p)
		hs := g.Handles
		if commute > 0 {
			if hs[0].Name != "acc" {
				t.Fatalf("first handle %q, want acc", hs[0].Name)
			}
			hs = hs[1:]
		}
		if len(hs) != p.Layers*p.Width {
			t.Fatalf("%d output handles, want %d", len(hs), p.Layers*p.Width)
		}
		for k, h := range hs {
			if want := fmt.Sprintf("d%d.%d", k/p.Width, k%p.Width); h.Name != want {
				t.Fatalf("handle %d named %q, want %q", k, h.Name, want)
			}
		}
		for _, task := range g.Tasks {
			if len(task.Accesses) != cap(task.Accesses) || len(task.Cost) != cap(task.Cost) {
				t.Fatalf("task %d: Accesses len/cap %d/%d, Cost len/cap %d/%d",
					task.ID, len(task.Accesses), cap(task.Accesses), len(task.Cost), cap(task.Cost))
			}
		}
	}
}
