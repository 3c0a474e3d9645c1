package main

import (
	"io"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: multiprio/bench
cpu: Test CPU
BenchmarkSimThroughput-8   	       1	700000000 ns/op	  140000 tasks/s	  123456 B/op	    2000 allocs/op
BenchmarkSimThroughput-8   	       1	650000000 ns/op	  150000 tasks/s	  123000 B/op	    2000 allocs/op
BenchmarkHeapOps-8         	       1	 4776416 ns/op	  492208 B/op	      35 allocs/op
BenchmarkTelemetryCounterTrack-8	       1	     180 ns/op	       0 B/op	       0 allocs/op
PASS
`

func parseString(t *testing.T, s string) *Report {
	t.Helper()
	rep, err := parse(strings.NewReader(s))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func entry(t *testing.T, rep *Report, name string) Entry {
	t.Helper()
	for _, e := range rep.Benchmarks {
		if e.Name == name {
			return e
		}
	}
	t.Fatalf("benchmark %q not found", name)
	return Entry{}
}

// TestParseTasksPerSec checks the custom throughput metric is picked up
// and aggregated by maximum (higher is better), while cost metrics keep
// their minimum aggregation.
func TestParseTasksPerSec(t *testing.T) {
	rep := parseString(t, sample)
	e := entry(t, rep, "BenchmarkSimThroughput")
	if e.TasksPerSec != 150000 {
		t.Errorf("TasksPerSec = %g, want max-aggregated 150000", e.TasksPerSec)
	}
	if e.NsPerOp != 650000000 {
		t.Errorf("NsPerOp = %g, want min-aggregated 650000000", e.NsPerOp)
	}
	if h := entry(t, rep, "BenchmarkHeapOps"); h.TasksPerSec != 0 {
		t.Errorf("benchmark without the metric got TasksPerSec = %g", h.TasksPerSec)
	}
}

// TestThroughputGateDirection checks the gate is direction-aware: a
// drop beyond the threshold fails, an equal-size rise never does.
func TestThroughputGateDirection(t *testing.T) {
	base := parseString(t, sample)
	gates := map[string]bool{"allocs": true, "throughput": true}

	drop := parseString(t, strings.ReplaceAll(sample, "0000 tasks/s", "000 tasks/s")) // 14k/15k
	if compare(io.Discard, base, drop, 0.30, 0.60, gates) {
		t.Error("90%% throughput drop passed the 60%% gate")
	}

	rise := parseString(t, strings.ReplaceAll(sample, "0000 tasks/s", "00000 tasks/s")) // 1.4M/1.5M
	if !compare(io.Discard, base, rise, 0.30, 0.60, gates) {
		t.Error("10x throughput rise failed the gate")
	}
}

// TestAllocGateStillFires keeps the original cost gate intact alongside
// the throughput extension.
func TestAllocGateStillFires(t *testing.T) {
	base := parseString(t, sample)
	worse := parseString(t, strings.ReplaceAll(sample, "35 allocs/op", "99 allocs/op"))
	if compare(io.Discard, base, worse, 0.30, 0.60, map[string]bool{"allocs": true}) {
		t.Error("+183%% allocs/op passed the 30%% gate")
	}
}

// TestAllocGateFiresOnZeroBaseline checks a benchmark pinned at zero
// allocs/op is gated: staying at 0 passes, any allocation fails.
func TestAllocGateFiresOnZeroBaseline(t *testing.T) {
	base := parseString(t, sample)
	gates := map[string]bool{"allocs": true}
	if !compare(io.Discard, base, base, 0.30, 0.60, gates) {
		t.Error("unchanged zero-alloc baseline failed the gate")
	}
	line := "180 ns/op	       0 B/op	       0 allocs/op"
	worse := parseString(t, strings.ReplaceAll(sample, line, "180 ns/op	       0 B/op	       1 allocs/op"))
	if compare(io.Discard, base, worse, 0.30, 0.60, gates) {
		t.Error("0 → 1 allocs/op passed the gate")
	}
}
