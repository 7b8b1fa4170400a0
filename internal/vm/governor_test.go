package vm_test

import (
	"bytes"
	"sort"
	"testing"
	"time"

	"repro/internal/brisc"
	"repro/internal/cc"
	"repro/internal/codegen"
	"repro/internal/guard"
	"repro/internal/vm"
	"repro/internal/workload"
)

// TestLimitsDoNotChangeRuns pins that the governor only observes: a run
// under limits it never reaches (a step budget far above the program's,
// a far deadline, an open cancel channel) produces the same exit code,
// output and step count as an unlimited run, which skips the governor.
// It covers every kernel natively and one kernel's JIT translation.
func TestLimitsDoNotChangeRuns(t *testing.T) {
	kernels := workload.Kernels()
	names := make([]string, 0, len(kernels))
	for name := range kernels {
		names = append(names, name)
	}
	sort.Strings(names)
	progs := map[string]*vm.Program{}
	for _, name := range names {
		mod, err := cc.Compile(name, kernels[name])
		if err != nil {
			t.Fatal(err)
		}
		p, err := codegen.Generate(mod, codegen.Options{})
		if err != nil {
			t.Fatal(err)
		}
		progs[name] = p
	}
	obj, err := brisc.Compress(progs["matmul"], brisc.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	jp, err := brisc.JIT(obj)
	if err != nil {
		t.Fatal(err)
	}
	progs["matmul/jit"] = jp
	names = append(names, "matmul/jit")

	open := make(chan struct{})
	defer close(open)
	generous := guard.Limits{
		MaxSteps:     1 << 40,
		MaxCallDepth: 1 << 20,
		Deadline:     time.Now().Add(time.Hour),
		Cancel:       open,
	}
	run := func(p *vm.Program, l guard.Limits) (int32, string, int64) {
		t.Helper()
		var out bytes.Buffer
		m := vm.NewMachine(p, 0, &out)
		if err := m.SetLimits(l); err != nil {
			t.Fatal(err)
		}
		code, err := m.Run(0)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		return code, out.String(), m.Steps
	}
	for _, name := range names {
		code0, out0, steps0 := run(progs[name], guard.Limits{})
		code1, out1, steps1 := run(progs[name], generous)
		if code0 != code1 || out0 != out1 || steps0 != steps1 {
			t.Errorf("%s: unlimited run = (exit %d, %d steps, %q), limited run = (exit %d, %d steps, %q)",
				name, code0, steps0, out0, code1, steps1, out1)
		}
		if steps0 == 0 || out0 == "" {
			t.Errorf("%s: ran %d steps with output %q; want a program that does work", name, steps0, out0)
		}
	}
}
