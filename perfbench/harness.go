package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/parallel"
)

// phase is what one measured run of a workload produced.
type phase struct {
	attempted, failed int64

	// unitsPerS and goodputRPS are throughputs: of correct units, and
	// of correct units that met limit. p50 and tail are latencies in
	// ms. How each workload makes them steady against other tenants of
	// a shared machine is in closedLoop and serve.run.
	unitsPerS, goodputRPS float64
	p50, tail             float64
	limit                 time.Duration
	windows               int
	wall                  time.Duration

	// lat holds every measured latency in ms (successful units, or
	// nominal-phase requests); the traced run compares its mean with
	// an untraced run's.
	lat []float64
	// latNote says how the latency metrics were formed.
	latNote string

	sizeRatio float64

	// layer holds per-layer metrics the workload computes itself
	// (counts the public APIs report), keyed by per_layer metric name.
	layer map[string]float64
	// notes are extra lines for the human-readable report.
	notes []string
}

// runner is one set-up workload, ready to be measured.
type runner interface {
	// run measures the workload for about d; tr is nil when untraced.
	run(tr *tracer, d time.Duration) *phase
	// pool is the shared worker pool the sampler watches, or nil.
	pool() *parallel.Pool
}

// failure records one failed unit; the first few go to stderr so a
// broken gate explains itself.
type failures struct {
	n      atomic.Int64
	mu     sync.Mutex
	logged int
}

func (f *failures) add(what string, err error) {
	f.n.Add(1)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.logged < 5 {
		f.logged++
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %s: %v\n", what, err)
	}
}

// identity remembers each input's first artifact; every later encoding
// of the same input must be byte-identical to it.
type identity struct {
	mu    sync.Mutex
	first map[int][]byte
}

func newIdentity() *identity { return &identity{first: map[int][]byte{}} }

func (id *identity) check(key int, b []byte) error {
	id.mu.Lock()
	defer id.mu.Unlock()
	prev, ok := id.first[key]
	if !ok {
		id.first[key] = append([]byte(nil), b...)
		return nil
	}
	if string(prev) != string(b) {
		return fmt.Errorf("artifact of input %d differs from its first encoding (%d vs %d bytes)", key, len(b), len(prev))
	}
	return nil
}

// size is the total size of the first artifacts.
func (id *identity) size() int {
	id.mu.Lock()
	defer id.mu.Unlock()
	n := 0
	for _, b := range id.first {
		n += len(b)
	}
	return n
}

// injection deliberately breaks one unit, so tests can prove the
// correctness gate counts it.
type injection int

const (
	injectNone   injection = iota
	injectFlip             // flip one byte of an artifact before it is decoded
	injectOracle           // make an oracle reference wrong
)

// flip returns b with one byte flipped when unit i is the target.
func (j injection) flip(i int, b []byte) []byte {
	if j != injectFlip || i != 0 {
		return b
	}
	c := append([]byte(nil), b...)
	c[len(c)/2] ^= 0x40
	return c
}

// spoil corrupts in's oracle reference when asked to.
func (j injection) spoil(in *input) {
	if j == injectOracle {
		in.want.out += "!"
	}
}

// done is one finished closed-loop unit.
type done struct {
	i     int
	lat   time.Duration
	probe time.Duration // the probe run just before the unit
	err   error
}

// drive runs do on unit indices from first on, each after a probe
// (probe.go), until stop reports the next index ends the run.
func drive(first int, stop func(i int) bool, do func(i int) error) []done {
	var dones []done
	pr := newProber()
	for i := first; !stop(i); i++ {
		took := pr.run()
		t0 := time.Now()
		err := do(i)
		dones = append(dones, done{i: i, lat: time.Since(t0), probe: took, err: err})
	}
	return dones
}

// closedLoop runs one client over the cycle units: one warm-up pass,
// then measured passes until d has elapsed and at least one whole pass
// is done. Every unit is checked, the warm-up ones too.
//
// A probe runs before every unit (outside its timing), and each unit
// latency is brought to the reference speed by the mean probe of its
// pass (probe.go). The metrics then come from each unit's best scaled
// latency over the measured passes. The inputs are fixed and the code
// deterministic, so a unit's latency only varies by noise from outside
// the program, which only ever adds time; the minimum over passes is
// the estimate that noise moves least (Chen and Revels, "Robust
// benchmarking in noisy environments", 2016), while a change that makes
// a unit slower moves it in full. The latency metrics are the p50 and
// the tailQ quantile of the best latencies over the units of a pass;
// the rate is units per pass over the sum of the best latencies, and
// goodput the same for the units whose best latency meets limit.
func closedLoop(cycle int, tailQ float64, d, limit time.Duration, do func(i int) error) *phase {
	warm := drive(0, func(i int) bool { return i >= cycle }, do)
	start := time.Now()
	deadline := start.Add(d)
	measured := drive(cycle, func(i int) bool { return i >= 2*cycle && time.Now().After(deadline) }, do)
	p := &phase{limit: limit, wall: time.Since(start)}
	var fails failures
	for _, r := range warm {
		p.attempted++
		if r.err != nil {
			fails.add(fmt.Sprintf("unit %d", r.i), r.err)
		}
	}
	probes := map[int][]float64{}
	for _, r := range measured {
		probes[r.i/cycle] = append(probes[r.i/cycle], float64(r.probe))
	}
	slowness := map[int]float64{}
	passTime := map[int]float64{}
	for pass, pr := range probes {
		slowness[pass] = slow(pr)
	}
	best := make([]float64, cycle)    // scaled, ms
	rawBest := make([]float64, cycle) // as measured, ms
	for _, r := range measured {
		p.attempted++
		if r.err != nil {
			fails.add(fmt.Sprintf("unit %d", r.i), r.err)
			continue
		}
		raw := float64(r.lat.Nanoseconds()) / 1e6
		scaled := raw / slowness[r.i/cycle]
		passTime[r.i/cycle] += raw
		p.lat = append(p.lat, raw)
		k := r.i % cycle
		if best[k] == 0 || scaled < best[k] {
			best[k] = scaled
		}
		if rawBest[k] == 0 || raw < rawBest[k] {
			rawBest[k] = raw
		}
	}
	p.failed = fails.n.Load()
	p.windows = len(measured) / cycle
	rate := func(b []float64) (all, good float64, sorted []float64) {
		sum, ok := 0.0, 0
		for _, v := range b {
			if v == 0 {
				continue // no correct run of this unit
			}
			sum += v
			if v <= float64(limit.Nanoseconds())/1e6 {
				ok++
			}
			sorted = append(sorted, v)
		}
		if sum > 0 {
			all = float64(len(sorted)) * 1e3 / sum
			good = float64(ok) * 1e3 / sum
		}
		sort.Float64s(sorted)
		return all, good, sorted
	}
	var bestMS []float64
	p.unitsPerS, p.goodputRPS, bestMS = rate(best)
	p.p50, p.tail = hdQuantile(bestMS, 0.5), hdQuantile(bestMS, tailQ)
	rawRate, _, rawMS := rate(rawBest)
	var passSlow, passMS []float64
	for pass := 1; pass <= p.windows; pass++ {
		passSlow = append(passSlow, slowness[pass])
		passMS = append(passMS, passTime[pass])
	}
	p.latNote = fmt.Sprintf("latency: Harrell-Davis p50 and p%g over the %d units' best latencies in %d measured passes (%d samples, plus one warm-up pass)",
		tailQ*100, len(bestMS), p.windows, len(p.lat))
	p.notes = append(p.notes,
		fmt.Sprintf("host slowness (mean probe of a pass over %v), by pass: %.4g", probeRef, passSlow),
		fmt.Sprintf("sum of unit latencies as measured, by pass (ms): %.5g", passMS),
		fmt.Sprintf("as measured, unscaled: %.4g units/s, p50 %.4g ms, p%g %.4g ms",
			rawRate, hdQuantile(rawMS, 0.5), tailQ*100, hdQuantile(rawMS, tailQ)))
	return p
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// hdQuantile is the Harrell-Davis estimate of the q-quantile of
// sorted values: a weighted mean of all order statistics, with weights
// from the Beta(q(n+1), (1-q)(n+1)) distribution. Where a nearest-rank
// quantile is one sample, and jumps to its neighbour when an input or
// a bit of noise reorders two units, this moves smoothly, which keeps
// a p50 over a few dozen units of different sizes steady.
func hdQuantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	sum, prev := 0.0, 0.0
	for i, v := range sorted {
		cdf := betaInc(a, b, float64(i+1)/float64(n))
		sum += (cdf - prev) * v
		prev = cdf
	}
	return sum
}

// betaInc is the regularized incomplete beta function I_x(a, b),
// evaluated by its continued fraction (Numerical Recipes, 6.4).
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaFrac(a, b, x) / a
	}
	return 1 - front*betaFrac(b, a, 1-x)/b
}

// betaFrac evaluates the continued fraction of betaInc by Lentz's
// method.
func betaFrac(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 300; m++ {
		aa := m * (b - m) * x / ((a - 1 + 2*m) * (a + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		aa = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 1 + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		if math.Abs(d*c-1) < 1e-14 {
			break
		}
	}
	return h
}

// tailPercentiles are the candidates for a per-endpoint tail in the
// serve report, highest first.
var tailPercentiles = []float64{0.99, 0.95, 0.90, 0.75, 0.50}

// tail returns the latency at percentile want, or at the highest lower
// candidate if fewer than ten samples lie beyond want.
func tail(sorted []float64, want float64) (value, q float64, beyond int) {
	for _, c := range tailPercentiles {
		if c > want {
			continue
		}
		rank := int(math.Ceil(c * float64(len(sorted))))
		q, beyond = c, len(sorted)-rank
		if beyond >= 10 {
			break
		}
	}
	return quantile(sorted, q), q, beyond
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// sampler watches the Go heap and the shared pool's occupancy while a
// phase runs.
type sampler struct {
	pool       *parallel.Pool
	stop, done chan struct{}

	// peakHeap is the highest live heap seen, heapSum the sum of all
	// heapN samples.
	peakHeap    uint64
	heapSum     float64
	heapN       int
	busy, slots int64
	cpu0        time.Duration
	wall0       time.Time
	cpuUtil     float64
}

// heapMetric is the heap the last GC found live. It is steadier than
// the heap including not-yet-collected garbage, whose peak moves with
// where the GC pacer happened to trigger.
const heapMetric = "/gc/heap/live:bytes"

func startSampler(p *parallel.Pool) *sampler {
	s := &sampler{pool: p, stop: make(chan struct{}), done: make(chan struct{}), cpu0: cpuTime(), wall0: time.Now()}
	go s.loop()
	return s
}

func (s *sampler) loop() {
	defer close(s.done)
	sample := []metrics.Sample{{Name: heapMetric}}
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(sample)
		v := sample[0].Value.Uint64()
		s.peakHeap = max(s.peakHeap, v)
		s.heapSum += float64(v)
		s.heapN++
		if s.pool != nil {
			st := s.pool.Stats()
			s.busy += int64(st.Busy)
			s.slots += int64(st.Workers)
		}
		select {
		case <-s.stop:
			return
		case <-tick.C:
		}
	}
}

// finish stops the sampler and waits for it to exit.
func (s *sampler) finish() {
	close(s.stop)
	<-s.done
	wall := time.Since(s.wall0)
	s.cpuUtil = float64(cpuTime()-s.cpu0) / (float64(wall) * float64(runtime.NumCPU()))
}

// heapMB is the mean live heap over the run, sampled every 2 ms. The
// live heap is only measured when a GC cycle ends, so the highest value
// of a run depends on where cycles happened to fall and moves by 10%
// between runs of the same inputs; the mean over the run does not.
func (s *sampler) heapMB() float64 {
	return s.heapSum / float64(max(s.heapN, 1)) / 1e6
}

func (s *sampler) busyShare() float64 {
	if s.slots == 0 {
		return 0
	}
	return float64(s.busy) / float64(s.slots)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
