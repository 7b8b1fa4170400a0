package main

import (
	"time"

	"repro/internal/parallel"
)

// part is one kind of unit of a closed loop: build (source to BRISC)
// or exec (prebuilt images on each engine).
type part interface {
	units() int
	// unit runs the part's unit i (counting across passes) under u.
	unit(u *span, i int) error
	// start resets per-run accounting; finish adds the part's results
	// to p.
	start()
	finish(p *phase)
	// artifacts is the BRISC artifact bytes the part made and the
	// native fixed-width bytes of the same programs.
	artifacts() (code, fixed int)
}

// buildExec is one device that builds modules and runs programs: each
// pass runs every build unit, then every exec unit, with one client.
// The two share a loop so that each run lasts long enough to be steady
// on a shared machine within the benchmark's time budget.
type buildExec struct {
	b     *build
	parts []part
}

// loopLimit is the latency limit of goodput_rps on build-exec.
const loopLimit = 1500 * time.Millisecond

func setupBuildExec(seed int64, inject injection) (runner, error) {
	b, err := setupBuild(seed, inject)
	if err != nil {
		return nil, err
	}
	e, err := setupExec(seed, inject)
	if err != nil {
		return nil, err
	}
	return &buildExec{b: b, parts: []part{b, e}}, nil
}

func (r *buildExec) pool() *parallel.Pool { return r.b.pool_ }

func (r *buildExec) run(tr *tracer, d time.Duration) *phase {
	cycle := 0
	for _, pt := range r.parts {
		pt.start()
		cycle += pt.units()
	}
	p := closedLoop(cycle, 0.90, d, loopLimit, func(i int) error {
		pass, k := i/cycle, i%cycle
		for _, pt := range r.parts {
			if n := pt.units(); k >= n {
				k -= n
				continue
			}
			u := tr.root("unit")
			err := pt.unit(u, pass*pt.units()+k)
			u.end(err)
			return err
		}
		panic("unit index out of range")
	})
	code, fixed := 0, 0
	for _, pt := range r.parts {
		pt.finish(p)
		c, f := pt.artifacts()
		code, fixed = code+c, fixed+f
	}
	p.sizeRatio = float64(code) / float64(fixed)
	return p
}
