// Command perfbench is the repository's benchmark. It runs one named
// workload (or all of them) for a fixed time, checks every run for
// correctness, and prints the end-to-end metrics of untraced runs or,
// with --trace 1, a per-layer ledger from traced runs. The last line of
// standard output is one JSON object with the result.
//
// Run it from the repository root with perfbench/run.sh, which builds it
// first:
//
//	bash perfbench/run.sh --workload randdag-eager --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	goruntime "runtime"
	"strings"
	"time"
)

// minIterations keeps a median meaningful when --seconds is short.
const minIterations = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the selected workloads and returns the exit
// code: 0 when every check passed, 1 when one failed, 2 on bad usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or all: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "how long to measure, after the checks")
	traced := fs.Int("trace", 0, "0: end-to-end metrics of untraced runs; 1: per-layer ledger of traced runs")
	smoke := fs.Bool("smoke", false, "tiny sizes: every workload and check in seconds, for tests")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*traced != 0 && *traced != 1) || *seconds < 0 {
		fmt.Fprintln(stderr, "perfbench: usage: --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--smoke]")
		return 2
	}
	var selected []workload
	if *name == "all" {
		selected = workloads
	} else if w, ok := workloadByName(*name); ok {
		selected = []workload{w}
	} else {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s, all)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}

	printHost(stdout)
	code := 0
	for _, w := range selected {
		b := &bench{w: w, seed: *seed, smoke: *smoke, traced: *traced == 1, out: stdout, errs: stderr}
		res := b.run(time.Duration(*seconds * float64(time.Second)))
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		if !res.Correct {
			code = 1
		}
	}
	return code
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// printHost prints the host context every report is read against, so
// runs from different hosts are never compared silently.
func printHost(w io.Writer) {
	fmt.Fprintf(w, "host: nproc %d, GOMAXPROCS %d, %s %s/%s, CPU %s; clock floor %.0f ns, taken off every timed call\n",
		goruntime.NumCPU(), goruntime.GOMAXPROCS(0), goruntime.Version(), goruntime.GOOS, goruntime.GOARCH, cpuModel(), clockFloor)
}

// cpuModel reads the CPU model name where the kernel exposes it.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// result is the JSON object printed as the last line of a workload.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
