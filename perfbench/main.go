// Command perfbench is the repository's benchmark. It runs one workload,
// measures it from outside the program — timing calls into each layer's
// public functions and reading the public Stats and /metrics counters —
// checks every output against a reference the code under test did not
// produce, and prints the metrics, the last line as one JSON object.
//
//	perfbench --workload serve|run_fine|run_blocks --seed N --seconds S --trace 0|1
//
// Run it from the repository root (it reads programs/*.dlr); run.sh builds
// it there first. With --trace 0 it reports the end-to-end metrics, with
// --trace 1 the per-layer metrics of a separate traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strings"
	"time"
)

// setupRepeats is how many times an untraced run sets its workload up;
// setup_s is the median.
const setupRepeats = 5

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "serve, run_fine or run_blocks")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (serve, run_fine, run_blocks), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	e := env{seed: *seed, nproc: goruntime.NumCPU()}
	d := time.Duration(*seconds * float64(time.Second))
	var out *output
	var err error
	if *trace == 1 {
		out, err = traced(wl, e, d)
	} else {
		out, err = endToEnd(wl, e, d)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	printHuman(stdout, wl.name, out)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// endToEnd sets the workload up setupRepeats times, keeping the last, and
// measures it untraced.
func endToEnd(wl *workloadDef, e env, d time.Duration) (*output, error) {
	var setups []float64
	var inst *instance
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
			// Collect the discarded set-up before the next, so the peak
			// resident set does not depend on when the collector ran.
			inst = nil
			goruntime.GC()
		}
		t0 := time.Now()
		var err error
		if inst, err = wl.setup(e); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rss := startRSS()
	res, err := inst.e2e(d)
	peakMB := rss.peak(d)
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	t := res.tally
	if t.firstErr != nil {
		fmt.Fprintf(os.Stderr, "first failure: %v\n", t.firstErr)
	}
	m := map[string]metric{
		"setup_s":          {median(setups), "s"},
		"throughput_per_s": {res.throughput, "1/s"},
		"latency_p50_ms":   {res.p50, "ms"},
		"latency_p90_ms":   {res.p90, "ms"},
		"max_rss_mb":       {peakMB, "MB"},
	}
	fmt.Fprintf(os.Stdout, "%s: %d operations, %d failed (failed_frac %.4f), %d latency samples\n",
		wl.name, t.attempted, t.failed, ratio(float64(t.failed), float64(t.attempted)), res.samples)
	return &output{Correct: t.wrong == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

func traced(wl *workloadDef, e env, d time.Duration) (*output, error) {
	inst, err := wl.setup(e)
	if err != nil {
		return nil, err
	}
	vals, t, err := tracedRun(inst, e, d, filepath.Join(".bench_build", "spans-"+wl.name+".csv"))
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if t.firstErr != nil {
		fmt.Fprintf(os.Stderr, "first failure: %v\n", t.firstErr)
	}
	m := make(map[string]metric, len(vals))
	for k, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[k] = metric{v, unitOf(k)}
	}
	return &output{Correct: t.wrong == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// unitOf derives a per-layer metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_ms"), strings.HasSuffix(name, ".ms"):
		return "ms"
	case strings.HasSuffix(name, "_ns_per_call"), strings.HasSuffix(name, "_ns_per_op"):
		return "ns"
	case strings.HasSuffix(name, "_frac"):
		return "frac"
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_speedup"):
		return "x"
	case strings.HasSuffix(name, "bytes_per_op"):
		return "B/op"
	case strings.HasSuffix(name, "allocs_per_op"):
		return "allocs/op"
	case strings.HasSuffix(name, "allocs_per_kb"):
		return "allocs/KB"
	case strings.HasSuffix(name, "_per_run"):
		return "count/run"
	default:
		return "count"
	}
}

func printHuman(w io.Writer, name string, out *output) {
	keys := make([]string, 0, len(out.Metrics))
	for k := range out.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%-12s %-32s %14.4f %s\n", name, k, out.Metrics[k].Value, out.Metrics[k].Unit)
	}
}
