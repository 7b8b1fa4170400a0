package main

import (
	"slices"
	"time"
)

// The host a benchmark run gets is shared, and its speed for the same
// code drifts over seconds to minutes by up to 1.7x (README.md,
// "Steadiness"). A run cannot wait that out, so the time metrics are
// reported at a reference speed: the benchmark keeps timing a fixed
// probe, which does not call the program under test and does not
// change with it, and scales each measured time by probeRef over what
// the probe took at that moment. A change to the program moves the
// scaled times in full; drift of the host moves the probe and the
// program alike and cancels. The raw times are in the report.

// probeRef is the probe time that defines the reference speed: scaled
// times are what the run would have measured had the probe taken
// exactly this long.
const probeRef = time.Millisecond

// prober runs the probe: sort 16K pseudo-random words, count them
// into a 1K-entry map, and follow 4K links of a random cycle through
// 2 MB, which misses the core's private caches as the program's heap
// does. Sorting and hashing are the kind of work the compiler and
// compressors do. The buffers are reused, so the probe makes no
// garbage for the program's GC to collect. It runs on one goroutine: a
// probe spread over every vCPU timed the Go scheduler (which vCPU was
// free) more than the host.
type prober struct {
	k *kernel
}

type kernel struct {
	v    []uint32
	m    map[uint32]int
	next []uint32 // a single cycle through all slots
	at   uint32
	sink int
}

const (
	chaseSlots = 1 << 19
	chaseSteps = 1 << 12
	probeReps  = 3
)

func newProber() *prober { return &prober{k: newKernel(1)} }

func newKernel(seed uint32) *kernel {
	k := &kernel{v: make([]uint32, 1<<14), m: make(map[uint32]int, 1<<10), next: make([]uint32, chaseSlots)}
	// Sattolo's algorithm: a uniformly random single cycle.
	for i := range k.next {
		k.next[i] = uint32(i)
	}
	x := seed*2654435761 + 1
	for i := len(k.next) - 1; i > 0; i-- {
		x = x*1664525 + 1013904223
		j := int(uint64(x) * uint64(i) >> 32)
		k.next[i], k.next[j] = k.next[j], k.next[i]
	}
	return k
}

func (k *kernel) work() {
	x := uint32(12345)
	for i := range k.v {
		x = x*1664525 + 1013904223
		k.v[i] = x >> 8
	}
	slices.Sort(k.v)
	clear(k.m)
	for _, e := range k.v {
		k.m[e&0x3ff] += int(e & 7)
	}
	at := k.at
	for i := 0; i < chaseSteps; i++ {
		at = k.next[at]
	}
	k.at = at
	k.sink += len(k.m)
}

// run times one probe: the kernel, probeReps times.
func (p *prober) run() time.Duration {
	t0 := time.Now()
	for i := 0; i < probeReps; i++ {
		p.k.work()
	}
	return time.Since(t0)
}

// mean times n probes and returns their mean.
func (p *prober) mean(n int) time.Duration {
	d := make([]float64, n)
	for i := range d {
		d[i] = float64(p.run())
	}
	return time.Duration(mean(d))
}

// slow is how much slower than the reference speed the host ran while
// probes took the given times (ns): the mean probe over probeRef.
// Latencies are divided by it and rates multiplied. The mean, not the
// median: a slow host often takes the vCPU away for milliseconds at a
// time, which a few probes catch in full and most miss, while every
// request of several milliseconds pays its share; the median of the
// probes missed most of that slowdown.
func slow(probes []float64) float64 {
	if len(probes) == 0 {
		return 1
	}
	return mean(probes) / float64(probeRef)
}
