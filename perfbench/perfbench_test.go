package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

// TestWrappersAreBehaviourNeutral runs every sim workload at full size,
// so the smallsim one evicts, with and without the timing wrappers and
// requires the same canonical trace, event count, makespan and
// transfers, and wrappers that saw the calls.
func TestWrappersAreBehaviourNeutral(t *testing.T) {
	for _, w := range workloads {
		if w.threaded {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			b := &bench{w: w, seed: 3, m: w.machine(), errs: io.Discard}
			plain, err := b.iterate(false, true)
			if err != nil {
				t.Fatal(err)
			}
			wrapped, err := b.iterate(true, true)
			if err != nil {
				t.Fatal(err)
			}
			if p, q := sha256.Sum256(plain.res.Trace.Canonical()), sha256.Sum256(wrapped.res.Trace.Canonical()); p != q {
				t.Errorf("canonical trace digest %x wrapped, %x plain", q, p)
			}
			if p, q := statsOf(plain.res), statsOf(wrapped.res); p != q {
				t.Errorf("simulated statistics %+v wrapped, %+v plain", q, p)
			}
			if w.machine().Name == "SmallSim" && statsOf(plain.res).writebacks == 0 {
				t.Error("no writebacks: the eviction path was not exercised")
			}
			c := wrapped.c
			if c.push.calls.Load() != int64(len(wrapped.g.Tasks)) || c.popHits.Load() != int64(len(wrapped.g.Tasks)) {
				t.Errorf("wrappers saw %d pushes and %d successful pops for %d tasks",
					c.push.calls.Load(), c.popHits.Load(), len(wrapped.g.Tasks))
			}
			if c.pop.timed.Load() == 0 || c.pop.timed.Load() == c.pop.calls.Load() {
				t.Errorf("timed %d of %d pops, want a sample", c.pop.timed.Load(), c.pop.calls.Load())
			}
			if w.sched == "multiprio" && (c.est.calls.Load() == 0 || c.loc.calls.Load() == 0) {
				t.Errorf("multiprio made %d model and %d locator calls through the wrappers", c.est.calls.Load(), c.loc.calls.Load())
			}
		})
	}
}

// TestSmoke runs the command on every workload at smoke size in both
// modes and checks each result line carries exactly the mode's metrics.
func TestSmoke(t *testing.T) {
	for _, mode := range []string{"0", "1"} {
		var out, errs bytes.Buffer
		if code := run([]string{"--workload", "all", "--smoke", "--seconds", "0", "--trace", mode}, &out, &errs); code != 0 {
			t.Fatalf("trace %s: exit %d\n%s", mode, code, errs.String())
		}
		want := map[string]string{}
		if mode == "0" {
			for _, m := range endToEnd {
				want[m.name] = m.unit
			}
		} else {
			for _, l := range layers {
				for _, m := range l.metrics {
					want[m.name] = m.unit
				}
			}
		}
		results := 0
		for _, line := range strings.Split(out.String(), "\n") {
			if !strings.HasPrefix(line, "{") {
				continue
			}
			results++
			var r result
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < minIterations {
				t.Errorf("trace %s: result %+v", mode, r)
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("trace %s: %d metrics, want %d", mode, len(r.Metrics), len(want))
			}
			for name, unit := range want {
				if got, ok := r.Metrics[name]; !ok || got.Unit != unit {
					t.Errorf("trace %s: metric %s = %+v, want unit %s", mode, name, got, unit)
				}
			}
		}
		if results != len(workloads) {
			t.Errorf("trace %s: %d result lines for %d workloads", mode, results, len(workloads))
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "randdag-eager", "--trace", "2"},
		{"--workload", "randdag-eager", "extra"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the workloads and
// metrics this program defines.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d defined", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if e := doc.Workloads[i]; e.Name != w.name || e.Why != w.why {
			t.Errorf("workload %d: %+v in BENCHMARK.json, defined %s: %s", i, e, w.name, w.why)
		}
	}
	check := func(kind string, got []entry, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d defined", kind, len(got), len(want))
		}
		for i, m := range want {
			e := got[i]
			if e.Name != m.name || e.Unit != m.unit || e.Better != m.better ||
				(e.Bound != nil) != bounded || (bounded && *e.Bound != m.bound) {
				t.Errorf("%s %d: %+v in BENCHMARK.json, defined %+v", kind, i, e, m)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	var perLayer []metric
	for _, l := range layers {
		perLayer = append(perLayer, l.metrics...)
	}
	check("per_layer", doc.PerLayer, perLayer, false)
}
