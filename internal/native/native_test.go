package native

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/cc"
	"repro/internal/codegen"
	"repro/internal/vm"
)

func compileProg(t testing.TB, src string) *vm.Program {
	t.Helper()
	mod, err := cc.Compile("t", src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := codegen.Generate(mod, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

const sampleSrc = `
int a[64];
int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
int main(void) {
	int i;
	for (i = 0; i < 64; i++) a[i] = fib(i % 12) * 1000000 + i;
	putint(a[20]);
	return 0;
}`

func TestFixedRoundTrip(t *testing.T) {
	prog := compileProg(t, sampleSrc)
	enc := EncodeFixed(prog.Code)
	back, err := DecodeFixed(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, prog.Code) {
		t.Fatal("fixed encoding round trip mismatch")
	}
	if got := FixedSize(prog.Code); got != len(enc) {
		t.Errorf("FixedSize = %d, actual %d", got, len(enc))
	}
	if len(enc) < 4*len(prog.Code) {
		t.Errorf("fixed encoding %d bytes < 4*%d instructions", len(enc), len(prog.Code))
	}
}

func TestVariableRoundTrip(t *testing.T) {
	prog := compileProg(t, sampleSrc)
	enc := EncodeVariable(prog.Code)
	back, err := DecodeVariable(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, prog.Code) {
		t.Fatal("variable encoding round trip mismatch")
	}
	if got := VariableSize(prog.Code); got != len(enc) {
		t.Errorf("VariableSize = %d, actual %d", got, len(enc))
	}
}

func TestVariableDenserThanFixed(t *testing.T) {
	// The x86-like encoding must beat the SPARC-like one, as in reality.
	prog := compileProg(t, sampleSrc)
	fixed := len(EncodeFixed(prog.Code))
	variable := len(EncodeVariable(prog.Code))
	if variable >= fixed {
		t.Errorf("variable %d >= fixed %d", variable, fixed)
	}
	ratio := float64(variable) / float64(fixed)
	if ratio > 0.95 || ratio < 0.4 {
		t.Errorf("variable/fixed ratio %.2f outside plausible [0.4, 0.95]", ratio)
	}
}

func TestDecodedProgramRuns(t *testing.T) {
	prog := compileProg(t, sampleSrc)
	var want bytes.Buffer
	if _, err := vm.NewMachine(prog, 1<<20, &want).Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	for name, codec := range map[string]func([]vm.Instr) []byte{
		"fixed":    EncodeFixed,
		"variable": EncodeVariable,
	} {
		enc := codec(prog.Code)
		var back []vm.Instr
		var err error
		if name == "fixed" {
			back, err = DecodeFixed(enc)
		} else {
			back, err = DecodeVariable(enc)
		}
		if err != nil {
			t.Fatalf("%s decode: %v", name, err)
		}
		clone := *prog
		clone.Code = back
		var got bytes.Buffer
		if _, err := vm.NewMachine(&clone, 1<<20, &got).Run(10_000_000); err != nil {
			t.Fatalf("%s run: %v", name, err)
		}
		if got.String() != want.String() {
			t.Errorf("%s: decoded program output %q != %q", name, got.String(), want.String())
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := DecodeFixed([]byte{1, 2, 3}); err == nil {
		t.Error("unaligned fixed input accepted")
	}
	if _, err := DecodeFixed([]byte{0xFF, 0, 0, 0}); err == nil {
		t.Error("bad fixed opcode accepted")
	}
	if _, err := DecodeVariable([]byte{0x7F}); err == nil {
		t.Error("bad variable opcode accepted")
	}
	prog := compileProg(t, `int main(void) { return 3; }`)
	enc := EncodeVariable(prog.Code)
	for cut := 1; cut < len(enc); cut += 2 {
		// Truncations either error or decode to fewer instructions —
		// never panic.
		_, _ = DecodeVariable(enc[:cut])
	}
}

// TestGlobalOutsideDataSegment: a container whose global lies past its
// data segment is rejected, and a machine whose memory is smaller than
// the data segment still loads the program — the bytes it cannot hold
// are unreachable — instead of panicking (both found by
// FuzzDecodeProgram).
func TestGlobalOutsideDataSegment(t *testing.T) {
	prog := compileProg(t, sampleSrc)
	bad := *prog
	bad.Globals = append(append([]vm.GlobalData(nil), prog.Globals...),
		vm.GlobalData{Name: "far", Addr: int32(prog.DataSize), Size: 4, Init: []byte{1, 2, 3, 4}})
	if _, err := DecodeProgram(EncodeProgram(&bad)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("global past the data segment: err = %v, want ErrCorrupt", err)
	}
	big := bad
	big.DataSize += 4
	p, err := DecodeProgram(EncodeProgram(&big))
	if err != nil {
		t.Fatal(err)
	}
	vm.NewMachine(p, 16, nil)
}

func randInstr(rng *rand.Rand) vm.Instr {
	for {
		op := vm.Opcode(rng.Intn(vm.NumOpcodes-1) + 1)
		ins := vm.Instr{Op: op}
		for i, f := range op.Fields() {
			switch f {
			case vm.FReg:
				setNthReg(&ins, regIdx(op, i), uint8(rng.Intn(16)))
			case vm.FImm:
				ins.Imm = int32(rng.Uint32())
			case vm.FTgt:
				ins.Target = int32(rng.Intn(1 << 20))
			}
		}
		return ins
	}
}

// regIdx counts which register slot field i is.
func regIdx(op vm.Opcode, i int) int {
	n := 0
	for j, f := range op.Fields() {
		if j == i {
			return n
		}
		if f == vm.FReg {
			n++
		}
	}
	return n
}

// TestQuickRoundTripBothCodecs: arbitrary instruction sequences
// round-trip bit-exactly through both encodings.
func TestQuickRoundTripBothCodecs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		code := make([]vm.Instr, rng.Intn(200)+1)
		for i := range code {
			code[i] = randInstr(rng)
		}
		fb, err := DecodeFixed(EncodeFixed(code))
		if err != nil || !reflect.DeepEqual(fb, code) {
			return false
		}
		vb, err := DecodeVariable(EncodeVariable(code))
		if err != nil || !reflect.DeepEqual(vb, code) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncodeVariable(b *testing.B) {
	b.ReportAllocs()
	prog := compileProg(b, sampleSrc)
	b.SetBytes(int64(len(prog.Code) * 4))
	for i := 0; i < b.N; i++ {
		EncodeVariable(prog.Code)
	}
}
