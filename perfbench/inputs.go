package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/cc"
	"repro/internal/codegen"
	"repro/internal/ir"
	"repro/internal/irexec"
	"repro/internal/native"
	"repro/internal/vm"
	"repro/internal/workload"
)

// input is one MiniC program with what set-up knows about it: the
// oracle's output (irexec's tree semantics, independent of every code
// generator and compressor) and the native fixed-width code size the
// size ratios divide by.
type input struct {
	name       string
	src        string
	module     *ir.Module
	native     *vm.Program
	fixedBytes int
	want       reference
}

// reference is a program's expected observable behaviour.
type reference struct {
	out  string
	exit int32
}

func (r reference) check(out string, exit int32) error {
	if out != r.out || exit != r.exit {
		return fmt.Errorf("output %q exit %d, oracle says %q exit %d", clip(out), exit, clip(r.out), r.exit)
	}
	return nil
}

func clip(s string) string {
	if len(s) > 40 {
		return s[:40] + "..."
	}
	return s
}

// prepare compiles src once for the oracle and the size baseline.
func prepare(name, src string) (*input, error) {
	m, err := cc.Compile(name, src)
	if err != nil {
		return nil, fmt.Errorf("%s: compile: %w", name, err)
	}
	np, err := codegen.Generate(m, codegen.Options{})
	if err != nil {
		return nil, fmt.Errorf("%s: codegen: %w", name, err)
	}
	var out strings.Builder
	mc, err := irexec.NewMachine(m, 0, &out)
	if err != nil {
		return nil, fmt.Errorf("%s: oracle: %w", name, err)
	}
	exit, err := mc.Run(0)
	if err != nil {
		return nil, fmt.Errorf("%s: oracle run: %w", name, err)
	}
	return &input{
		name: name, src: src, module: m, native: np,
		fixedBytes: len(native.EncodeFixed(np.Code)),
		want:       reference{out: out.String(), exit: exit},
	}, nil
}

// between interpolates a generator profile a fraction f of the way
// from lo to hi.
func between(lo, hi workload.Profile, f float64) workload.Profile {
	mix := func(a, b int) int { return a + int(f*float64(b-a)+0.5) }
	return workload.Profile{
		LeafFuncs:  mix(lo.LeafFuncs, hi.LeafFuncs),
		MidFuncs:   mix(lo.MidFuncs, hi.MidFuncs),
		GlobalInts: mix(lo.GlobalInts, hi.GlobalInts),
		GlobalArrs: mix(lo.GlobalArrs, hi.GlobalArrs),
		Strings:    mix(lo.Strings, hi.Strings),
		MeanStmts:  mix(lo.MeanStmts, hi.MeanStmts),
		StructVars: mix(lo.StructVars, hi.StructVars),
	}
}

// half is a profile at half of p's function and global counts.
func half(p workload.Profile) workload.Profile {
	return workload.Profile{
		LeafFuncs: p.LeafFuncs / 2, MidFuncs: p.MidFuncs / 2,
		GlobalInts: p.GlobalInts / 2, GlobalArrs: p.GlobalArrs / 2,
		Strings: p.Strings / 2, MeanStmts: p.MeanStmts, StructVars: p.StructVars / 2,
	}
}

// modules generates n programs sized evenly between lo and hi, every
// fourth one biasing literals toward 16 bits like the paper's Word97
// row. The seed picks each program's code, not its size or profile, so
// runs with different seeds measure the same mix of work on different
// code, and a seed moves the metrics only as much as the code does.
func modules(rng *rand.Rand, prefix string, n int, lo, hi workload.Profile) ([]*input, error) {
	var out []*input
	for i := 0; i < n; i++ {
		p := between(lo, hi, (float64(i)+0.5)/float64(n))
		p.Name = fmt.Sprintf("%s%d", prefix, i)
		p.Seed = rng.Int63()
		p.WideLits = i%4 == 3
		in, err := prepare(p.Name, workload.Generate(p))
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}

// kernels returns the hand-written kernels in name order.
func kernels() ([]*input, error) {
	ks := workload.Kernels()
	names := make([]string, 0, len(ks))
	for name := range ks {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []*input
	for _, name := range names {
		in, err := prepare(name, ks[name])
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}

// fixedBytes sums the native fixed-width code size over ins.
func fixedBytes(ins []*input) int {
	n := 0
	for _, in := range ins {
		n += in.fixedBytes
	}
	return n
}
