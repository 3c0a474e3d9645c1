package runtime

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"multiprio/internal/fault"
	"multiprio/internal/obs"
	"multiprio/internal/perfmodel"
)

// nopObserver is a RunObserver that ignores everything.
type nopObserver struct{}

func (nopObserver) Decision(obs.Decision)                   {}
func (nopObserver) Counter(string, float64, int64, float64) {}
func (nopObserver) RunStart(RunInfo)                        {}
func (nopObserver) RunEnd(*Result, error)                   {}

// TestOptionsSetOneFieldEach is the options audit: every With… option
// sets exactly its own RunConfig field and nothing else, and every
// RunConfig field has an option, so a knob added to RunConfig without
// one (or an option writing the wrong field) fails here.
func TestOptionsSetOneFieldEach(t *testing.T) {
	hist := perfmodel.NewHistory()
	plan := &fault.Plan{MaxRetries: 3}
	probe := &obs.DecisionLog{}
	var out bytes.Buffer
	arrivals := []float64{0, 1}
	cases := []struct {
		name  string
		opt   Option
		field string
		want  any
	}{
		{"WithSeed", WithSeed(99), "Seed", int64(99)},
		{"WithNoise", WithNoise(0.25), "Noise", 0.25},
		{"WithEstimator", WithEstimator(hist), "Estimator", perfmodel.Estimator(hist)},
		{"WithHistory", WithHistory(hist), "History", hist},
		{"WithMemEvents", WithMemEvents(), "CollectMemEvents", true},
		{"WithMaxEvents", WithMaxEvents(1234), "MaxEvents", int64(1234)},
		{"WithPipeline", WithPipeline(7), "Pipeline", 7},
		{"WithTransferSpans", WithTransferSpans(), "CollectTrace", true},
		{"WithProbe", WithProbe(probe), "Probe", obs.Probe(probe)},
		{"WithFaultPlan", WithFaultPlan(plan), "Faults", plan},
		{"WithWatchdog", WithWatchdog(time.Second), "Watchdog", Watchdog{Deadline: time.Second}},
		{"WithWatchdogOutput", WithWatchdogOutput(&out), "Watchdog", Watchdog{Out: &out}},
		{"WithObserver", WithObserver(nopObserver{}), "Observer", RunObserver(nopObserver{})},
		{"WithArrivals", WithArrivals(arrivals), "Arrivals", arrivals},
	}
	covered := map[string]bool{}
	for _, c := range cases {
		var got RunConfig
		c.opt(&got)
		var want RunConfig
		f := reflect.ValueOf(&want).Elem().FieldByName(c.field)
		if !f.IsValid() {
			t.Fatalf("%s: RunConfig has no field %s", c.name, c.field)
		}
		f.Set(reflect.ValueOf(c.want))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: config = %+v, want only %s = %v", c.name, got, c.field, c.want)
		}
		covered[c.field] = true
	}
	typ := reflect.TypeOf(RunConfig{})
	for i := 0; i < typ.NumField(); i++ {
		if name := typ.Field(i).Name; !covered[name] {
			t.Errorf("RunConfig.%s has no With… option", name)
		}
	}
}
