package native

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/vm"
)

// FuzzDecodeProgram: the program-container decoder must never panic on
// arbitrary bytes, and a decoded program must load into a machine and
// run under a step bound without crashing — a bad program ends in an
// error, not a panic.
func FuzzDecodeProgram(f *testing.F) {
	f.Add(EncodeProgram(compileProg(f, sampleSrc)))
	// Real programs from the shared example modules widen the corpus; a
	// missing tree just leaves the inline seeds.
	files, _ := filepath.Glob(filepath.Join("..", "..", "examples", "modules", "*.mc"))
	for _, p := range files {
		if src, err := os.ReadFile(p); err == nil {
			f.Add(EncodeProgram(compileProg(f, string(src))))
		}
	}
	f.Add([]byte{})
	f.Add(progMagic[:])
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeProgram(data)
		if err != nil {
			return
		}
		m := vm.NewMachine(p, 1<<16, nil)
		_, _ = m.Run(10_000)
	})
}
