package compressd

// The admission controller sits between accepted connections and the
// shared worker pool. It enforces three watermarks, checked in order:
//
//  1. estimated memory: the sum of admitted requests' memory estimates
//     must stay under MaxEstMem, or the request is shed (429) before
//     it allocates anything;
//  2. concurrency: at most MaxInFlight requests execute at once
//     (semaphore);
//  3. queue depth: at most MaxQueue requests wait for a slot; the
//     queue is bounded so overload turns into fast 429s with a
//     Retry-After hint instead of an unbounded goroutine pile-up.
//
// A queued request that hits its own deadline before a slot frees is
// released with the context error, which errmap turns into a 408 —
// deadline propagation applies while waiting, not just while running.

import (
	"fmt"
	"sync/atomic"
	"time"

	"context"

	"repro/internal/telemetry"
)

// AdmissionConfig bounds concurrent work. The zero value picks
// conservative defaults sized off the worker pool.
type AdmissionConfig struct {
	// MaxInFlight caps concurrently executing requests (0 = 2×workers).
	MaxInFlight int
	// MaxQueue caps requests waiting for an execution slot
	// (0 = 4×MaxInFlight).
	MaxQueue int
	// MaxEstMem caps the summed memory estimate of admitted requests in
	// bytes (0 = unlimited).
	MaxEstMem int64
	// RetryAfter is the backoff hint attached to shed responses
	// (0 = 1s).
	RetryAfter time.Duration
}

func (c AdmissionConfig) withDefaults(workers int) AdmissionConfig {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2 * workers
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInFlight
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// admission is the controller instance; all state is atomic or
// channel-based, so Acquire is safe from every request goroutine.
type admission struct {
	cfg    AdmissionConfig
	sem    chan struct{}
	queued atomic.Int64
	estMem atomic.Int64
	rec    *telemetry.Recorder
}

func newAdmission(cfg AdmissionConfig, workers int, rec *telemetry.Recorder) *admission {
	cfg = cfg.withDefaults(workers)
	return &admission{cfg: cfg, sem: make(chan struct{}, cfg.MaxInFlight), rec: rec}
}

// Acquire admits one request with the given memory estimate, blocking
// in the bounded queue if the service is at its concurrency limit.
// On success it returns a release closure the caller must invoke
// exactly once. On failure it returns ErrShed (watermark exceeded) or
// the context's error (deadline/cancellation while queued).
func (a *admission) Acquire(ctx context.Context, estMem int64) (release func(), err error) {
	if a.cfg.MaxEstMem > 0 {
		// Optimistic add + rollback keeps the check race-free without a
		// lock: concurrent acquirers may momentarily overshoot, but the
		// sum of *admitted* requests never exceeds the watermark.
		if a.estMem.Add(estMem) > a.cfg.MaxEstMem {
			a.estMem.Add(-estMem)
			a.rec.Add("compressd.admission.shed_mem", 1)
			return nil, fmt.Errorf("estimated memory %dB over watermark %dB: %w",
				estMem, a.cfg.MaxEstMem, ErrShed)
		}
	}
	admit := func() func() {
		a.rec.Add("compressd.admission.admitted", 1)
		return func() {
			if a.cfg.MaxEstMem > 0 {
				a.estMem.Add(-estMem)
			}
			<-a.sem
		}
	}
	select {
	case a.sem <- struct{}{}:
		return admit(), nil
	default:
	}
	// All slots busy: join the bounded wait queue.
	if q := a.queued.Add(1); q > int64(a.cfg.MaxQueue) {
		a.queued.Add(-1)
		if a.cfg.MaxEstMem > 0 {
			a.estMem.Add(-estMem)
		}
		a.rec.Add("compressd.admission.shed_queue", 1)
		return nil, fmt.Errorf("wait queue full (%d deep): %w", a.cfg.MaxQueue, ErrShed)
	}
	start := time.Now()
	defer func() {
		a.queued.Add(-1)
		a.rec.Observe("compressd.admission.queue_wait_ms", float64(time.Since(start))/float64(time.Millisecond))
	}()
	select {
	case a.sem <- struct{}{}:
		return admit(), nil
	case <-ctx.Done():
		if a.cfg.MaxEstMem > 0 {
			a.estMem.Add(-estMem)
		}
		a.rec.Add("compressd.admission.shed_wait", 1)
		return nil, ctx.Err()
	}
}

// Stats snapshots the controller for load-shed introspection and the
// /metrics gauges.
func (a *admission) Stats() (inFlight, queued int, estMem int64) {
	return len(a.sem), int(a.queued.Load()), a.estMem.Load()
}

// RetryAfter is the configured backoff hint.
func (a *admission) RetryAfter() time.Duration { return a.cfg.RetryAfter }
