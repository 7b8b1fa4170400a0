package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/brisc"
	"repro/internal/native"
	"repro/internal/vm"
	"repro/internal/workload"
)

// exec runs compressed code on the device. Every image is built in
// set-up; a unit loads one image and runs it on one engine, so the
// loop measures loading, dispatch and page faults, and no compression.
type exec struct {
	progs  []*execProg
	jobs   []execUnit
	inject injection

	// Per-run accounting the public APIs report, indexed by program.
	peakBytes           []int64 // XIPStats.PeakResidentBytes of the first xip run
	xipNS, interpNS     int64   // run time of xip and brisc units
	faults, hits, evict int64
	xipRuns             int64
}

type execProg struct {
	in        *input
	nativeImg []byte // native.EncodeProgram
	briscImg  []byte // brisc.Object.Bytes
	xipStore  []byte // PGS1 page store of the XIP layout
}

type execUnit struct {
	prog   int
	engine string
}

var execEngines = []string{"vm", "brisc", "xip", "jit"}

const xipPages = 4 // decoded-page budget of the xip engine

func setupExec(seed int64, inject injection) (*exec, error) {
	ins, err := kernels()
	if err != nil {
		return nil, err
	}
	// Two whole-image sweeps, the cyclic access pattern that makes a
	// small page budget fault: a wep-sized one and a larger, shorter one.
	rng := rand.New(rand.NewSource(seed))
	for i, sw := range []struct {
		f      float64
		rounds int
	}{{0, 50}, {0.25, 20}} {
		p := between(workload.Wep, workload.Lcc, sw.f)
		p.Name, p.Seed = fmt.Sprintf("sweep%d", i), rng.Int63()
		p.MainSweep, p.MainRounds = true, sw.rounds
		in, err := prepare(p.Name, workload.Generate(p))
		if err != nil {
			return nil, err
		}
		ins = append(ins, in)
	}
	inject.spoil(ins[0])
	e := &exec{inject: inject, peakBytes: make([]int64, len(ins))}
	for i, in := range ins {
		obj, err := brisc.Compress(in.native, brisc.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s: brisc.Compress: %w", in.name, err)
		}
		img, err := brisc.BuildXIP(obj, brisc.XIPOptions{})
		if err != nil {
			return nil, fmt.Errorf("%s: BuildXIP: %w", in.name, err)
		}
		e.progs = append(e.progs, &execProg{
			in:        in,
			nativeImg: native.EncodeProgram(in.native),
			briscImg:  obj.Bytes(),
			xipStore:  img.StoreBytes(),
		})
		for _, eng := range execEngines {
			e.jobs = append(e.jobs, execUnit{prog: i, engine: eng})
		}
	}
	return e, nil
}

func (e *exec) units() int { return len(e.jobs) }

func (e *exec) start() {
	e.xipNS, e.interpNS, e.faults, e.hits, e.evict, e.xipRuns = 0, 0, 0, 0, 0, 0
}

func (e *exec) artifacts() (code, fixed int) {
	for _, pr := range e.progs {
		code += len(pr.briscImg)
		fixed += pr.in.fixedBytes
	}
	return code, fixed
}

func (e *exec) finish(p *phase) {
	var ws int64
	for _, b := range e.peakBytes {
		ws += b
	}
	runs := float64(max(e.xipRuns, 1))
	p.layer = map[string]float64{
		"xip.run.working_set_kb": float64(ws) / 1024,
		"xip.run.faults":         float64(e.faults) / runs,
		"xip.run.evictions":      float64(e.evict) / runs,
		"xip.run.hit_ratio":      float64(e.hits) / float64(max(e.hits+e.faults, 1)),
	}
	p.notes = append(p.notes,
		fmt.Sprintf("working_set_kb %.1f kB (sum of peak resident decoded pages, %d-page budget)", float64(ws)/1024, xipPages),
		fmt.Sprintf("xip.run.us_per_fault %.2f us (xip minus brisc run time over %d faults)", float64(e.xipNS-e.interpNS)/1e3/float64(max(e.faults, 1)), e.faults))
}

func (e *exec) unit(u *span, i int) error {
	eu := e.jobs[i%len(e.jobs)]
	pr := e.progs[eu.prog]
	u.set("prog", int64(eu.prog))
	switch eu.engine {
	case "vm":
		var np *vm.Program
		if err := call(u, "brisc.load", func(sp *span) (err error) {
			sp.set("in_bytes", int64(len(pr.nativeImg)))
			np, err = native.DecodeProgram(pr.nativeImg)
			return err
		}); err != nil {
			return err
		}
		return call(u, "vm.run", func(sp *span) error { return runVM(sp, np, pr.in.want) })
	case "brisc":
		obj, err := e.parse(u, i, pr)
		if err != nil {
			return err
		}
		return call(u, "interp.run", func(sp *span) error {
			var out strings.Builder
			t0 := time.Now()
			err := runInterp(sp, brisc.NewInterp(obj, 0, &out), &out, pr.in.want)
			e.interpNS += int64(time.Since(t0))
			return err
		})
	case "xip":
		obj, err := e.parse(u, i, pr)
		if err != nil {
			return err
		}
		var img *brisc.XIPImage
		if err := call(u, "brisc.load", func(sp *span) (err error) {
			sp.set("in_bytes", int64(len(pr.xipStore)))
			img, err = brisc.OpenXIPStore(obj, pr.xipStore, brisc.XIPOptions{})
			return err
		}); err != nil {
			return err
		}
		return call(u, "xip.run", func(sp *span) error {
			var out strings.Builder
			it := brisc.NewInterp(obj, 0, &out)
			if err := it.EnableXIP(img, xipPages, 0); err != nil {
				return err
			}
			t0 := time.Now()
			err := runInterp(sp, it, &out, pr.in.want)
			e.xipNS += int64(time.Since(t0))
			st := it.XIPStats()
			sp.set("faults", st.Faults)
			sp.set("hits", st.Hits)
			sp.set("evictions", st.Evictions)
			sp.set("peak_bytes", st.PeakResidentBytes)
			e.xipRuns++
			e.faults += st.Faults
			e.hits += st.Hits
			e.evict += st.Evictions
			if e.peakBytes[eu.prog] == 0 {
				e.peakBytes[eu.prog] = st.PeakResidentBytes
			}
			return err
		})
	default: // jit
		obj, err := e.parse(u, i, pr)
		if err != nil {
			return err
		}
		var np *vm.Program
		if err := call(u, "jit.translate", func(*span) (err error) {
			np, err = brisc.JIT(obj)
			return err
		}); err != nil {
			return err
		}
		return call(u, "jit.run", func(sp *span) error { return runVM(sp, np, pr.in.want) })
	}
}

// parse loads pr's BRISC image for unit i. A flip injection corrupts
// unit 1's copy, the first unit that parses one.
func (e *exec) parse(u *span, i int, pr *execProg) (obj *brisc.Object, err error) {
	img := e.inject.flip(i-1, pr.briscImg)
	err = call(u, "brisc.load", func(sp *span) error {
		sp.set("in_bytes", int64(len(img)))
		obj, err = brisc.Parse(img)
		return err
	})
	return obj, err
}
