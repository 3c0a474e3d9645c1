// Command benchjson turns `go test -bench` output into the
// machine-readable BENCH_sweep.json artifact and gates performance
// regressions against a committed baseline.
//
// It accepts both the plain benchmark text format and the `-json`
// (test2json) stream on stdin or from file arguments, aggregates
// repeated runs (`-count=N`) by taking the minimum per metric (the
// least-noisy sample), and emits one JSON document:
//
//	go test ./bench -bench . -benchmem -run '^$' -count=3 | go run ./cmd/benchjson -o BENCH_sweep.json
//
// With -baseline, the new numbers are compared entry by entry and the
// command exits non-zero when a gated metric regressed by more than
// -threshold (default 0.30, i.e. +30%). CI gates on allocs/op: unlike
// ns/op it is machine-independent, so a baseline committed from a
// developer machine stays meaningful on any runner. Wall-clock numbers
// are still recorded and reported for human inspection.
//
// Benchmarks that report a custom "tasks/s" metric (b.ReportMetric) are
// additionally gated on throughput: aggregation takes the maximum
// across -count runs (higher is better) and the gate fails when tasks/s
// dropped by more than -throughput-threshold (default 0.60 — loose,
// because wall-clock throughput varies across runners far more than
// allocation counts; the gate exists to catch order-of-magnitude
// collapses of the million-task hot path, not CPU jitter).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Entry is one benchmark's aggregated result. BytesPerOp and
// AllocsPerOp are written even when 0: a baseline pinned at zero is a
// gate (any cost fails it), not a missing value.
type Entry struct {
	Name        string  `json:"name"`
	Runs        int     `json:"runs"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// TasksPerSec is the custom throughput metric the bench suite
	// reports via b.ReportMetric(..., "tasks/s"). Higher is better, so
	// aggregation takes the maximum across -count runs and the gate
	// fires on drops rather than rises.
	TasksPerSec float64 `json:"tasks_per_sec,omitempty"`
}

// Report is the BENCH_sweep.json document.
type Report struct {
	Schema     string  `json:"schema"`
	Goos       string  `json:"goos,omitempty"`
	Goarch     string  `json:"goarch,omitempty"`
	CPU        string  `json:"cpu,omitempty"`
	Pkg        string  `json:"pkg,omitempty"`
	Benchmarks []Entry `json:"benchmarks"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(\S+) ns/op(.*)$`)

func main() {
	out := flag.String("o", "", "write the JSON report to this file (default stdout)")
	baseline := flag.String("baseline", "", "compare against this previously generated report")
	threshold := flag.Float64("threshold", 0.30, "maximum allowed fractional regression per gated metric")
	tputThreshold := flag.Float64("throughput-threshold", 0.60, "maximum allowed fractional tasks/s drop before the throughput gate fails")
	gate := flag.String("gate", "allocs,throughput", "comma-separated metrics that fail the build on regression: ns, bytes, allocs, throughput")
	flag.Parse()

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	rep, err := parse(in)
	if err != nil {
		fatal(err)
	}
	if len(rep.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark results found in input"))
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}

	if *baseline != "" {
		base, err := readReport(*baseline)
		if err != nil {
			fatal(err)
		}
		if !compare(os.Stderr, base, rep, *threshold, *tputThreshold, parseGate(*gate)) {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
	os.Exit(2)
}

// parse consumes plain `go test -bench` output or a test2json stream.
func parse(r io.Reader) (*Report, error) {
	rep := &Report{Schema: "multiprio-bench/v1"}
	acc := map[string]*Entry{}
	var order []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "{") {
			// test2json event: the benchmark text rides in Output.
			var ev struct{ Action, Output string }
			if json.Unmarshal([]byte(line), &ev) == nil && ev.Action == "output" {
				line = strings.TrimSuffix(ev.Output, "\n")
			} else {
				continue
			}
		}
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			rep.Pkg = strings.TrimPrefix(line, "pkg: ")
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		e := acc[m[1]]
		if e == nil {
			e = &Entry{Name: m[1], NsPerOp: ns, BytesPerOp: -1, AllocsPerOp: -1, TasksPerSec: -1}
			acc[m[1]] = e
			order = append(order, m[1])
		}
		e.Runs++
		if ns < e.NsPerOp {
			e.NsPerOp = ns
		}
		rest := m[4]
		if v, ok := metric(rest, "B/op"); ok && (e.BytesPerOp < 0 || v < e.BytesPerOp) {
			e.BytesPerOp = v
		}
		if v, ok := metric(rest, "allocs/op"); ok && (e.AllocsPerOp < 0 || v < e.AllocsPerOp) {
			e.AllocsPerOp = v
		}
		if v, ok := metric(rest, "tasks/s"); ok && v > e.TasksPerSec {
			e.TasksPerSec = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.Strings(order)
	for _, name := range order {
		e := acc[name]
		if e.BytesPerOp < 0 {
			e.BytesPerOp = 0
		}
		if e.AllocsPerOp < 0 {
			e.AllocsPerOp = 0
		}
		if e.TasksPerSec < 0 {
			e.TasksPerSec = 0
		}
		rep.Benchmarks = append(rep.Benchmarks, *e)
	}
	return rep, nil
}

// metric extracts "<value> <unit>" from the tail of a benchmark line.
func metric(rest, unit string) (float64, bool) {
	fields := strings.Fields(rest)
	for i := 1; i < len(fields); i++ {
		if fields[i] == unit {
			v, err := strconv.ParseFloat(fields[i-1], 64)
			if err == nil {
				return v, true
			}
		}
	}
	return 0, false
}

func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

func parseGate(s string) map[string]bool {
	gates := map[string]bool{}
	for _, g := range strings.Split(s, ",") {
		if g = strings.TrimSpace(g); g != "" {
			gates[g] = true
		}
	}
	return gates
}

// compare prints a per-benchmark delta table and reports whether every
// gated metric stayed within the threshold. Cost metrics (ns, bytes,
// allocs) regress upward; tasks/s regresses downward, against its own
// looser threshold (wall-clock throughput varies more across runners
// than allocation counts do). A cost metric whose baseline is 0 has no
// ratio to grow by, so any cost above 0 is a regression. Benchmarks
// present on only one side are reported but never fail the gate (the
// suite may grow).
func compare(w io.Writer, base, cur *Report, threshold, tputThreshold float64, gates map[string]bool) bool {
	baseBy := map[string]Entry{}
	for _, e := range base.Benchmarks {
		baseBy[e.Name] = e
	}
	ok := true
	fmt.Fprintf(w, "%-28s %14s %14s %14s %14s\n", "benchmark", "ns/op Δ", "B/op Δ", "allocs/op Δ", "tasks/s Δ")
	for _, e := range cur.Benchmarks {
		b, found := baseBy[e.Name]
		if !found {
			fmt.Fprintf(w, "%-28s %14s %14s %14s %14s\n", e.Name, "new", "new", "new", "new")
			continue
		}
		delete(baseBy, e.Name)
		cells := make([]string, 0, 4)
		for _, mt := range []struct {
			key       string
			cur, base float64
			inverted  bool // higher is better; regression is a drop
			limit     float64
		}{
			{"ns", e.NsPerOp, b.NsPerOp, false, threshold},
			{"bytes", e.BytesPerOp, b.BytesPerOp, false, threshold},
			{"allocs", e.AllocsPerOp, b.AllocsPerOp, false, threshold},
			{"throughput", e.TasksPerSec, b.TasksPerSec, true, tputThreshold},
		} {
			var cell string
			var regressed bool
			switch {
			case mt.base > 0:
				ratio := mt.cur/mt.base - 1
				cell = fmt.Sprintf("%+.1f%%", 100*ratio)
				regressed = ratio > mt.limit
				if mt.inverted {
					regressed = -ratio > mt.limit
				}
			case !mt.inverted && mt.cur > 0:
				cell = fmt.Sprintf("0→%g", mt.cur)
				regressed = true
			default:
				cells = append(cells, "-")
				continue
			}
			if regressed {
				if gates[mt.key] {
					cell += " FAIL"
					ok = false
				} else {
					cell += " !"
				}
			}
			cells = append(cells, cell)
		}
		fmt.Fprintf(w, "%-28s %14s %14s %14s %14s\n", e.Name, cells[0], cells[1], cells[2], cells[3])
	}
	for name := range baseBy {
		fmt.Fprintf(w, "%-28s %14s %14s %14s %14s\n", name, "gone", "gone", "gone", "gone")
	}
	if !ok {
		fmt.Fprintf(w, "benchjson: regression beyond %.0f%% on gated metrics\n", 100*threshold)
	}
	return ok
}
