package main

import (
	"math/rand"
	"runtime"
	"strings"
	"time"

	"repro/internal/brisc"
	"repro/internal/codegen"
	"repro/internal/parallel"
	"repro/internal/vm"
	"repro/internal/wire"
	"repro/internal/workload"
)

// build is the whole pipeline from source to BRISC: compile, ship the
// module in the wire format (compress, decompress), generate code from
// the shipped module, BRISC-compress, serialize, parse, and run
// predecoded. One client and a pool of nproc workers, so only
// parallelism inside a unit's calls, above all brisc.Compress, can use
// the second core.
type build struct {
	mods    []*input
	pool_   *parallel.Pool
	wireIDs *identity
	ids     *identity
	inject  injection
}

const buildModules = 24

func setupBuild(seed int64, inject injection) (*build, error) {
	mods, err := modules(rand.New(rand.NewSource(seed)), "build", buildModules, workload.Wep, half(workload.Lcc))
	if err != nil {
		return nil, err
	}
	inject.spoil(mods[0])
	return &build{mods: mods, pool_: parallel.New(runtime.NumCPU()), wireIDs: newIdentity(), ids: newIdentity(), inject: inject}, nil
}

func (b *build) units() int { return len(b.mods) }

func (b *build) start() {}

func (b *build) artifacts() (code, fixed int) { return b.ids.size(), fixedBytes(b.mods) }

func (b *build) finish(p *phase) {}

func (b *build) unit(u *span, i int) error {
	k := i % len(b.mods)
	in := b.mods[k]
	m, err := compile(u, in)
	if err != nil {
		return err
	}
	var wart []byte
	if err := call(u, "wire.compress", func(sp *span) error {
		wart, err = wire.CompressOpts(m, wire.Options{Pool: b.pool_})
		sp.set("out_bytes", int64(len(wart)))
		return err
	}); err != nil {
		return err
	}
	if err := b.wireIDs.check(k, wart); err != nil {
		return err
	}
	if err := call(u, "wire.decompress", func(sp *span) error {
		sp.set("in_bytes", int64(len(wart)))
		m, err = wire.Decompress(wart)
		return err
	}); err != nil {
		return err
	}
	var np *vm.Program
	if err := call(u, "codegen", func(*span) error {
		np, err = codegen.Generate(m, codegen.Options{})
		return err
	}); err != nil {
		return err
	}
	var (
		obj *brisc.Object
		art []byte
	)
	if err := call(u, "brisc.compress", func(sp *span) error {
		cpu0, t0 := cpuTime(), time.Now()
		obj, err = brisc.Compress(np, brisc.Options{Pool: b.pool_})
		sp.set("cpu_ns", int64(cpuTime()-cpu0))
		sp.set("wall_ns", int64(time.Since(t0)))
		if err != nil {
			return err
		}
		art = obj.Bytes()
		sp.set("dict_entries", int64(len(obj.LearnedDict())))
		sp.set("out_bytes", int64(len(art)))
		return nil
	}); err != nil {
		return err
	}
	if err := b.ids.check(k, art); err != nil {
		return err
	}
	if err := call(u, "brisc.load", func(sp *span) error {
		sp.set("in_bytes", int64(len(art)))
		obj, err = brisc.Parse(b.inject.flip(i, art))
		return err
	}); err != nil {
		return err
	}
	return call(u, "interp.run", func(sp *span) error {
		var out strings.Builder
		return runInterp(sp, brisc.NewInterp(obj, 0, &out), &out, in.want)
	})
}
