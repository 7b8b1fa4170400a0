package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
)

// spec is the part of ../BENCHMARK.json the benchmark must honour.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tiny runs one short invocation of a workload.
func tiny(t *testing.T, workload string, trace bool, inject injection) *result {
	t.Helper()
	seconds := 0.2
	if workload == "serve" {
		seconds = 1 // enough requests that every endpoint is hit
	}
	res, _, err := bench(config{workload: workload, seed: 1, seconds: seconds, trace: trace, out: t.TempDir(), inject: inject})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

// TestEveryMetricEmitted runs each workload briefly, untraced and
// traced, and checks that exactly the metrics BENCHMARK.json names are
// printed, each with its unit, and that the run passed its gate.
func TestEveryMetricEmitted(t *testing.T) {
	s := readSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	var known []string
	for name := range setups {
		known = append(known, name)
	}
	sort.Strings(names)
	sort.Strings(known)
	if len(names) != len(known) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark implements %v", names, known)
	}
	for _, w := range names {
		for _, trace := range []bool{false, true} {
			res := tiny(t, w, trace, injectNone)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w, trace, m.Name, got.Unit, m.Unit)
				case !trace && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.Name, got.Value)
				}
			}
		}
	}
}

// TestGateCountsFailures checks that a flipped artifact byte and a
// wrong oracle reference are each counted as failures on every
// workload, never passed silently.
func TestGateCountsFailures(t *testing.T) {
	for w := range setups {
		for _, inj := range []injection{injectFlip, injectOracle} {
			res := tiny(t, w, false, inj)
			if res.Correct || res.Failed < 1 {
				t.Errorf("%s injection %d: correct=%v failed=%d of %d, want the gate to fail", w, inj, res.Correct, res.Failed, res.Attempted)
			}
		}
	}
}

func TestHarrellDavis(t *testing.T) {
	v := make([]float64, 29)
	for i := range v {
		v[i] = float64(i + 1)
	}
	// The weights are symmetric about the middle for the median.
	if got := hdQuantile(v, 0.5); math.Abs(got-15) > 1e-9 {
		t.Errorf("median of 1..29 = %v, want 15", got)
	}
	if got := hdQuantile(v, 0.9); got < 25 || got > 28 {
		t.Errorf("p90 of 1..29 = %v, want about 27", got)
	}
	if got := hdQuantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("p90 of one value = %v, want 7", got)
	}
}

func TestTail(t *testing.T) {
	v := make([]float64, 300)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if val, q, beyond := tail(v, 0.95); q != 0.95 || val != 285 || beyond != 15 {
		t.Errorf("tail(300, p95) = %v, p%v, %d beyond", val, q, beyond)
	}
	// Too few samples beyond p95: fall back to the next percentile.
	if _, q, beyond := tail(v[:150], 0.95); q != 0.90 || beyond != 15 {
		t.Errorf("tail(150, p95) fell back to p%v with %d beyond", q, beyond)
	}
}
