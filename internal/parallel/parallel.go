// Package parallel provides the bounded worker pool and deterministic
// ordered fan-in used by the compression pipelines.
//
// The paper's wire format is embarrassingly parallel by construction —
// one operator stream plus one independent literal stream per opcode
// class — and BRISC's per-pass candidate scan is a pure fold over
// basic-block units. This package turns that decomposition into actual
// concurrency while preserving a hard determinism contract: every
// fan-out collects its results by task index, so the assembled output
// is byte-identical no matter how many workers run or how the
// scheduler interleaves them.
//
// A Pool may be shared by many concurrent pipelines (batch mode). The
// token discipline makes sharing safe: a task that cannot obtain a
// worker slot runs inline on the submitting goroutine, so a saturated
// pool degrades to serial execution instead of deadlocking — even when
// a pooled task itself fans out through the same pool.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// inFlight counts tasks currently running on pool worker goroutines
// across every pool in the process. The debug-server runtime sampler
// reads it as the parallel.pool.in_flight gauge.
var inFlight atomic.Int64

// InFlight reports how many pooled tasks are executing right now,
// process-wide. Inline (saturated or serial) execution is not counted —
// the gauge measures pool occupancy, not total work.
func InFlight() int64 { return inFlight.Load() }

// DefaultWorkers resolves a Workers knob: values > 0 are taken as-is,
// anything else means "one worker per available CPU" (GOMAXPROCS).
func DefaultWorkers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Pool is a bounded work scheduler. A nil *Pool is valid and runs
// everything serially on the caller, which is also the Workers=1
// fast path — no goroutines, no channels, no overhead.
type Pool struct {
	tokens chan struct{}
	rec    *telemetry.Recorder
}

// New returns a pool bounded at DefaultWorkers(workers) concurrent
// tasks.
func New(workers int) *Pool { return NewTraced(workers, nil) }

// NewTraced is New with telemetry: every task a fan-out runs records
// a span named after the fan-out's label through rec (nil disables
// tracing at no cost). Pooled, inline-saturated, and serial execution
// all record the same spans, so a trace attributes the fan-out's work
// identically no matter how the scheduler placed it; pooled tasks are
// marked with a pooled=1 attribute.
func NewTraced(workers int, rec *telemetry.Recorder) *Pool {
	return &Pool{tokens: make(chan struct{}, DefaultWorkers(workers)), rec: rec}
}

// Workers reports the pool's concurrency bound (1 for a nil pool).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return cap(p.tokens)
}

// Stats is a point-in-time occupancy snapshot of one pool, the load
// signal an admission controller reads to make shed decisions without
// scraping the telemetry plane. Busy counts tasks currently holding a
// worker token on this pool; it never exceeds Workers. Global is the
// process-wide pooled-task count (InFlight), covering every pool.
type Stats struct {
	Workers int
	Busy    int
	Global  int64
}

// Stats snapshots the pool's occupancy. It is safe to call
// concurrently with running fan-outs; the snapshot is advisory (the
// pool may change occupancy the instant after it is taken). A nil pool
// reports Workers=1 and Busy=0 — the serial path never occupies a
// worker slot.
func (p *Pool) Stats() Stats {
	if p == nil {
		return Stats{Workers: 1, Global: InFlight()}
	}
	return Stats{Workers: cap(p.tokens), Busy: len(p.tokens), Global: InFlight()}
}

// ForEach runs fn(i) for every i in [0, n), using at most Workers()
// pool goroutines plus the caller. Tasks start in ascending order, each
// on whichever of them is free; when no worker token is available the
// caller runs every task itself. The returned error is deterministic:
// the error of the lowest failing index, regardless of completion
// order. ForEach does not cancel in-flight siblings on error — fn must
// be safe to run to completion.
func (p *Pool) ForEach(label string, n int, fn func(i int) error) error {
	return p.ForEachSpan(label, n, func(i int, _ *telemetry.Span) error { return fn(i) })
}

// ForEachSpan is ForEach for stages that want to annotate their task
// spans: fn additionally receives the task's span (nil when tracing is
// disabled) and may SetAttr on it. Each task — pooled, inline on a
// saturated pool, or serial — runs inside a span named label, so the
// trace attributes every microsecond of a fan-out to the stage that
// asked for it rather than to whichever parent happened to submit it.
func (p *Pool) ForEachSpan(label string, n int, fn func(i int, sp *telemetry.Span) error) error {
	if n <= 0 {
		return nil
	}
	if p == nil || p.Workers() <= 1 || n == 1 {
		var rec *telemetry.Recorder
		if p != nil {
			rec = p.rec
		}
		for i := 0; i < n; i++ {
			sp := rec.StartSpan(label, telemetry.Int("index", int64(i)))
			err := fn(i, sp)
			sp.End()
			if err != nil {
				return err
			}
		}
		return nil
	}
	// Tasks are claimed in ascending order by whoever is free: up to
	// n-1 helpers, one per worker token available, and the submitter
	// itself. A helper that is slow to be scheduled leaves its share to
	// the submitter instead of holding the fan-out up.
	f := &fanOut{p: p, label: label, n: n, fn: fn, parent: p.rec.CurrentSpanID(), errs: make([]error, n)}
spawn:
	for h := 0; h < n-1; h++ {
		select {
		case p.tokens <- struct{}{}:
			f.wg.Add(1)
			f.gate.Add(1)
			go f.help()
		default:
			// Pool saturated (possibly by our own parent task in a
			// nested fan-out): the submitter runs what is left.
			break spawn
		}
	}
	f.claim(false)
	// The tasks are all claimed. Helpers that have not started have
	// nothing left to do: close the gate on them and release their
	// tokens here, so the submitter only waits for running helpers.
	for pending := f.gate.Swap(-1); pending > 0; pending-- {
		<-p.tokens
		f.wg.Done()
	}
	f.wg.Wait()
	for _, err := range f.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// fanOut is the state one pooled ForEachSpan call shares with its
// helper goroutines.
type fanOut struct {
	p      *Pool
	label  string
	n      int
	fn     func(i int, sp *telemetry.Span) error
	parent uint64 // span open on the submitting goroutine
	errs   []error
	next   atomic.Int64 // next unclaimed task
	// gate counts helpers whose goroutines have not started yet; the
	// submitter sets it to -1 once every task is claimed.
	gate atomic.Int64
	wg   sync.WaitGroup
}

// help is a helper goroutine's body: unless the gate has closed (the
// submitter then released this helper's token), claim tasks until none
// are left.
func (f *fanOut) help() {
	for {
		g := f.gate.Load()
		if g < 0 {
			return
		}
		if f.gate.CompareAndSwap(g, g-1) {
			break
		}
	}
	defer f.wg.Done()
	defer func() { <-f.p.tokens }()
	f.claim(true)
}

// claim runs unclaimed tasks until none are left. Span parenting is per
// goroutine, so helper spans are explicitly seeded under the span open
// on the submitting goroutine — the trace keeps its tree shape across
// the fan-out; tasks the submitter runs nest naturally.
func (f *fanOut) claim(pooled bool) {
	for {
		i := int(f.next.Add(1) - 1)
		if i >= f.n {
			return
		}
		var sp *telemetry.Span
		if pooled {
			inFlight.Add(1)
			sp = f.p.rec.StartSpanUnder(f.parent, f.label,
				telemetry.Int("index", int64(i)),
				telemetry.Int("pooled", 1))
		} else {
			sp = f.p.rec.StartSpan(f.label, telemetry.Int("index", int64(i)))
		}
		f.errs[i] = f.fn(i, sp)
		sp.End()
		if pooled {
			inFlight.Add(-1)
		}
	}
}

// Map fans fn out over [0, n) through p and returns the results in
// index order — the deterministic ordered fan-in every encoder stage
// relies on. On error the slice is nil and the error is that of the
// lowest failing index.
func Map[T any](p *Pool, label string, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := p.ForEach(label, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Scratch recycles per-task scratch state — allocation arenas, shard
// maps, reusable buffers — across pooled tasks and across concurrent
// pipeline runs. It is the worker-local storage companion to Pool:
// tasks Get a scratch value at the top, use it exclusively, and Put it
// back on the way out, so a steady-state batch workload stops
// allocating per-job scratch entirely no matter how many workers run.
//
// Semantically this wraps sync.Pool (values may be dropped under
// memory pressure; a Get may return a fresh value at any time), with
// two additions: construction is mandatory, so Get never returns nil,
// and an optional reset hook runs on every Put, keeping the "value is
// clean when obtained" invariant in one place instead of at every call
// site.
type Scratch[T any] struct {
	pool  sync.Pool
	reset func(*T)
}

// NewScratch returns a scratch recycler. mk builds a fresh value;
// reset (optional) is applied to every value on Put, before it becomes
// visible to other tasks.
func NewScratch[T any](mk func() *T, reset func(*T)) *Scratch[T] {
	s := &Scratch[T]{reset: reset}
	s.pool.New = func() any { return mk() }
	return s
}

// Get obtains a scratch value for exclusive use by the calling task.
func (s *Scratch[T]) Get() *T { return s.pool.Get().(*T) }

// Put returns a scratch value obtained from Get. The value must not be
// used — and nothing returned to the caller may alias its memory —
// after Put.
func (s *Scratch[T]) Put(v *T) {
	if s.reset != nil {
		s.reset(v)
	}
	s.pool.Put(v)
}

// Ranges splits [0, n) into at most pieces contiguous [lo, hi) spans
// of near-equal size, in order. It never returns an empty span; fewer
// than pieces spans come back when n < pieces. Sharding work this way
// keeps per-item results contiguous so fan-in is a simple ordered
// concatenation.
func Ranges(n, pieces int) [][2]int {
	if n <= 0 {
		return nil
	}
	if pieces < 1 {
		pieces = 1
	}
	if pieces > n {
		pieces = n
	}
	out := make([][2]int, 0, pieces)
	lo := 0
	for i := 0; i < pieces; i++ {
		hi := lo + (n-lo)/(pieces-i)
		if hi == lo {
			hi = lo + 1
		}
		out = append(out, [2]int{lo, hi})
		lo = hi
	}
	return out
}
