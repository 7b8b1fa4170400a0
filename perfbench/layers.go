package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/tracescope"
)

// layers are the span names the benchmark records around its calls
// into the program, one per layer boundary.
var layers = []string{
	"cc", "codegen", "wire.compress", "wire.decompress",
	"brisc.compress", "brisc.load", "vm.run", "interp.run",
	"jit.translate", "jit.run", "xip.run",
	"compressd.compress", "compressd.decompress", "compressd.run",
}

// rootSpans names each workload's unit (or request) span.
var rootSpans = map[string]string{
	"build-exec": "unit", "serve": "serve.request",
}

// layerRates are the per-layer work metrics derived from span
// attributes: the summed attribute, scaled, over the layer's self time
// (perSecond) or over its calls.
var layerRates = []struct {
	name, layer, attr, unit string
	scale                   float64
	perSecond               bool
}{
	{"cc.src_kb_per_s", "cc", "src_bytes", "kB/s", 1.0 / 1024, true},
	{"wire.compress.out_bytes", "wire.compress", "out_bytes", "bytes", 1, false},
	{"wire.decompress.in_mb_per_s", "wire.decompress", "in_bytes", "MB/s", 1e-6, true},
	{"brisc.compress.out_bytes", "brisc.compress", "out_bytes", "bytes", 1, false},
	{"brisc.compress.dict_entries", "brisc.compress", "dict_entries", "count", 1, false},
	{"brisc.load.mb_per_s", "brisc.load", "in_bytes", "MB/s", 1e-6, true},
	{"vm.run.steps_per_s", "vm.run", "steps", "1/s", 1, true},
	{"interp.run.steps_per_s", "interp.run", "steps", "1/s", 1, true},
	{"jit.run.steps_per_s", "jit.run", "steps", "1/s", 1, true},
	{"xip.run.steps_per_s", "xip.run", "steps", "1/s", 1, true},
}

// workloadLayerMetrics are per-layer metrics a workload reports from
// the counters of the public APIs (phase.layer); they read 0 on the
// workloads that do not reach the layer.
var workloadLayerMetrics = []struct{ name, unit string }{
	{"xip.run.faults", "count"},
	{"xip.run.evictions", "count"},
	{"xip.run.hit_ratio", "ratio"},
	{"xip.run.working_set_kb", "kB"},
	{"compressd.shed_ratio", "ratio"},
	{"compressd.timeout_ratio", "ratio"},
}

// tracedRun measures r untraced for half of d, then traced for the
// other half, and reports the per-layer metrics of the traced half.
// Every per-layer metric is emitted on every workload, 0 where the
// workload does not reach the layer.
func tracedRun(c config, r runner, d time.Duration) *report {
	plain, _ := measure(r, nil, d/2)
	tr := newTracer()
	p, s := measure(r, tr, d/2)
	events := tr.spans()
	rep := &report{
		Metrics:   map[string]metric{},
		attempted: plain.attempted + p.attempted,
		failed:    plain.failed + p.failed,
	}
	path := filepath.Join(c.out, fmt.Sprintf("%s-seed%d.trace.jsonl", c.workload, c.seed))
	if err := writeJSONL(path, events); err != nil {
		rep.Notes = append(rep.Notes, "trace not written: "+err.Error())
	} else {
		rep.Notes = append(rep.Notes, "trace written to "+path+" (tracescope report|critical reads it)")
	}
	t, err := tracescope.Parse(events)
	if err != nil {
		rep.Notes = append(rep.Notes, "trace not parsed: "+err.Error())
		rep.failed++
		return rep
	}
	stages := map[string]tracescope.Stage{}
	for _, st := range t.Stages() {
		stages[st.Name] = st
	}
	root := stages[rootSpans[c.workload]]
	unitWall := root.Total.Seconds()
	pct := func(d time.Duration) float64 {
		if unitWall == 0 {
			return 0
		}
		return 100 * d.Seconds() / unitWall
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %7s %10s %10s %9s %11s %6s\n", "layer", "calls", "busy_ms", "self_ms", "self_pct", "call_p50_us", "failed")
	attributed := root.Self
	for _, l := range layers {
		st := stages[l]
		rep.Metrics[l+".calls"] = metric{float64(st.Count), "count"}
		rep.Metrics[l+".self_pct"] = metric{pct(st.Self), "%"}
		attributed += st.Self
		if st.Count > 0 {
			fmt.Fprintf(&b, "%-22s %7d %10.1f %10.1f %9.2f %11d %6d\n", l, st.Count,
				ms(st.Total), ms(st.Self), pct(st.Self), st.P50.Microseconds(), st.Attrs["failed"])
		}
	}
	fmt.Fprintf(&b, "%-22s %7d %10.1f %10.1f %9.2f %11d %6d\n", "harness ("+root.Name+" self)", root.Count,
		ms(root.Total), ms(root.Self), pct(root.Self), root.P50.Microseconds(), root.Attrs["failed"])
	for _, lr := range layerRates {
		st := stages[lr.layer]
		per := float64(st.Count)
		if lr.perSecond {
			per = st.Self.Seconds()
		}
		v := 0.0
		if per > 0 {
			v = float64(st.Attrs[lr.attr]) * lr.scale / per
		}
		rep.Metrics[lr.name] = metric{v, lr.unit}
	}
	bc := stages["brisc.compress"]
	cpuUtil := 0.0
	if w := bc.Attrs["wall_ns"]; w > 0 {
		cpuUtil = float64(bc.Attrs["cpu_ns"]) / (float64(w) * float64(runtime.NumCPU()))
	}
	rep.Metrics["brisc.compress.cpu_util"] = metric{cpuUtil, "ratio"}
	for _, m := range workloadLayerMetrics {
		rep.Metrics[m.name] = metric{p.layer[m.name], m.unit}
	}
	rep.Metrics["pool.busy_share"] = metric{s.busyShare(), "ratio"}
	rep.Metrics["harness.cpu_util"] = metric{s.cpuUtil, "ratio"}
	rep.Metrics["harness.self_pct"] = metric{pct(root.Self), "%"}
	overhead := 100 * (mean(p.lat)/mean(plain.lat) - 1)
	rep.Metrics["harness.trace_overhead_pct"] = metric{overhead, "%"}

	rep.Notes = append(rep.Notes, "per-layer self times over "+root.Name+" wall:\n"+b.String())
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("layer self times plus harness cover %.2f%% of unit wall (%.1f of %.1f ms)",
			pct(attributed), ms(attributed), ms(root.Total)),
		fmt.Sprintf("tracing overhead: mean unit latency %.3f ms traced vs %.3f ms untraced (%+.2f%%); %d spans",
			mean(p.lat), mean(plain.lat), overhead, len(events)-1))
	rep.Notes = append(rep.Notes, p.notes...)
	return rep
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
