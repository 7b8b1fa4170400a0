// Command perfbench is the repository's benchmark. It generates seeded
// inputs, drives one workload through the public APIs of cc, codegen,
// wire, brisc (with XIP paging), vm and compressd, checks every output
// against the irexec oracle, and prints the workload's metrics by name
// with their units. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload build-exec --seed 1 --seconds 45 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the run is split into an untraced and a traced half, and the metrics
// are the per-layer ones taken from the traced half's spans. The exit
// status is 1 when any unit failed the correctness gate, 2 when the
// benchmark could not run at all. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/telemetry"
)

// setupReps is how many times a timed run sets up; setup_s is the
// median, which keeps one slow set-up from reading as a regression.
const setupReps = 3

var setups = map[string]func(seed int64, inject injection) (runner, error){
	"build-exec": setupBuildExec,
	"serve":      setupServe,
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	inject   injection
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var c config
	var trace int
	flag.StringVar(&c.workload, "workload", "", "workload: build-exec or serve")
	flag.Int64Var(&c.seed, "seed", 1, "input seed")
	flag.Float64Var(&c.seconds, "seconds", 15, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&c.out, "out", filepath.Join(".bench_build", "out"), "directory for the report and trace files")
	flag.Parse()
	c.trace = trace == 1
	if _, ok := setups[c.workload]; !ok || (trace != 0 && trace != 1) || c.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload build-exec|serve --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, report, err := bench(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	os.Stdout.WriteString(report)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		os.Exit(1)
	}
}

// stamp identifies what a result was measured on.
type stamp struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Revision   string  `json:"revision"`
	Modified   bool    `json:"modified,omitempty"`
}

func newStamp(c config) stamp {
	bi := telemetry.GetBuildInfo()
	rev := bi.Revision
	if rev == "" {
		rev = "unknown"
	}
	return stamp{
		Workload: c.workload, Seed: c.seed, Seconds: c.seconds, Trace: c.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Revision: rev, Modified: bi.Modified,
	}
}

// bench sets up and measures one workload, returning the result line
// and the human-readable report printed before it.
func bench(c config) (*result, string, error) {
	if err := os.MkdirAll(c.out, 0o755); err != nil {
		return nil, "", err
	}
	st := newStamp(c)
	reps := setupReps
	if c.trace {
		reps = 1
	}
	var (
		r          runner
		times, raw []float64
	)
	pr := newProber()
	for i := 0; i < reps; i++ {
		sl := float64(pr.mean(5)) / float64(probeRef)
		t0 := time.Now()
		var err error
		if r, err = setups[c.workload](c.seed, c.inject); err != nil {
			return nil, "", fmt.Errorf("%s set-up: %w", c.workload, err)
		}
		raw = append(raw, time.Since(t0).Seconds())
		times = append(times, raw[i]/sl)
	}
	d := time.Duration(c.seconds * float64(time.Second))
	var rep *report
	if c.trace {
		rep = tracedRun(c, r, d)
	} else {
		rep = timedRun(r, d, median(times))
		rep.Notes = append(rep.Notes, fmt.Sprintf("set-up as measured, unscaled: %.4g s (median of %d)", median(raw), reps))
	}
	rep.Stamp = st
	res := &result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.Metrics,
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", c.workload, c.seed, b2i(c.trace))
	if err := writeJSON(filepath.Join(c.out, name), rep); err != nil {
		return nil, "", err
	}
	return res, rep.text(), nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// measure runs r for d under the sampler.
func measure(r runner, tr *tracer, d time.Duration) (*phase, *sampler) {
	s := startSampler(r.pool())
	p := r.run(tr, d)
	s.finish()
	return p, s
}

// report is everything one invocation measured; it is written to the
// output directory as JSON and printed as a table.
type report struct {
	Stamp   stamp             `json:"stamp"`
	Metrics map[string]metric `json:"metrics"`
	Notes   []string          `json:"notes"`

	attempted, failed int64
}

func (r *report) text() string {
	s, _ := json.Marshal(r.Stamp)
	out := fmt.Sprintf("stamp %s\n", s)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		out += fmt.Sprintf("%-34s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for _, n := range r.Notes {
		out += "note: " + n + "\n"
	}
	return out
}

// timedRun measures the end-to-end metrics.
func timedRun(r runner, d time.Duration, setupS float64) *report {
	p, s := measure(r, nil, d)
	rep := &report{
		Metrics: map[string]metric{
			"ref_units_per_s":     {p.unitsPerS, "1/s"},
			"ref_latency_p50_ms":  {p.p50, "ms"},
			"ref_latency_tail_ms": {p.tail, "ms"},
			"ref_goodput_rps":     {p.goodputRPS, "1/s"},
			"size_ratio":          {p.sizeRatio, "ratio"},
			"mean_heap_mb":        {s.heapMB(), "MB"},
			"setup_s":             {setupS, "s"},
		},
		attempted: p.attempted,
		failed:    p.failed,
	}
	rep.Notes = append(rep.Notes,
		p.latNote,
		fmt.Sprintf("fail_ratio %d/%d = %g", p.failed, p.attempted, float64(p.failed)/float64(p.attempted)),
		fmt.Sprintf("throughputs over %d windows; goodput limit %v; measured wall %.3fs", p.windows, p.limit, p.wall.Seconds()),
		fmt.Sprintf("mean_heap_mb over %d samples; the highest live heap seen was %.2f MB", s.heapN, float64(s.peakHeap)/1e6),
		fmt.Sprintf("harness.cpu_util %.3f, pool.busy_share %.3f", s.cpuUtil, s.busyShare()))
	rep.Notes = append(rep.Notes, p.notes...)
	return rep
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
