package main

import (
	"strings"

	"repro/internal/brisc"
	"repro/internal/cc"
	"repro/internal/ir"
	"repro/internal/vm"
)

// call runs one call into a layer inside a child span of u and names
// the layer in any error it returns.
func call(u *span, layer string, fn func(sp *span) error) error {
	sp := u.child(layer)
	err := fn(sp)
	sp.end(err)
	if err != nil {
		return layerError{layer, err}
	}
	return nil
}

type layerError struct {
	layer string
	err   error
}

func (e layerError) Error() string { return e.layer + ": " + e.err.Error() }
func (e layerError) Unwrap() error { return e.err }

// runVM executes a native program and checks it against the oracle.
func runVM(sp *span, np *vm.Program, want reference) error {
	var out strings.Builder
	m := vm.NewMachine(np, 0, &out)
	exit, err := m.Run(0)
	sp.set("steps", m.Steps)
	if err != nil {
		return err
	}
	return want.check(out.String(), exit)
}

// runInterp interprets a BRISC object and checks it against the oracle.
func runInterp(sp *span, it *brisc.Interp, out *strings.Builder, want reference) error {
	exit, err := it.Run(0)
	sp.set("steps", it.Steps)
	if err != nil {
		return err
	}
	return want.check(out.String(), exit)
}

// compile runs the front end on in's source.
func compile(u *span, in *input) (m *ir.Module, err error) {
	err = call(u, "cc", func(sp *span) error {
		sp.set("src_bytes", int64(len(in.src)))
		m, err = cc.Compile(in.name, in.src)
		return err
	})
	return m, err
}
