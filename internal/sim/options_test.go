package sim

import (
	"testing"

	"multiprio/internal/fault"
	"multiprio/internal/perfmodel"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/sched/eager"
)

// TestNewEngineLowersEveryOption checks that the simulator constructor
// keeps every shared runtime option it is given: the engine's stored
// RunConfig carries each knob the simulator reads, so an option dropped
// on the way into the engine fails here instead of being silently
// ignored.
func TestNewEngineLowersEveryOption(t *testing.T) {
	hist := perfmodel.NewHistory()
	plan := &fault.Plan{}
	eng, err := NewEngine(platform.CPUOnly(2), eager.New(),
		runtime.WithSeed(99),
		runtime.WithNoise(0.25),
		runtime.WithEstimator(hist),
		runtime.WithHistory(hist),
		runtime.WithMemEvents(),
		runtime.WithMaxEvents(1234),
		runtime.WithPipeline(7),
		runtime.WithTransferSpans(),
		runtime.WithFaultPlan(plan),
	)
	if err != nil {
		t.Fatal(err)
	}
	c := eng.cfg
	if c.Seed != 99 || c.Noise != 0.25 || c.Estimator != perfmodel.Estimator(hist) ||
		c.History != hist || !c.CollectMemEvents || c.MaxEvents != 1234 ||
		c.Pipeline != 7 || !c.CollectTrace || c.Faults != plan {
		t.Fatalf("options not kept: %+v", c)
	}
}
