package vm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/guard"
	"repro/internal/integrity"
	"repro/internal/telemetry"
)

// Runtime errors.
var (
	ErrOutOfSteps = errors.New("vm: step limit exceeded")
	ErrMemFault   = errors.New("vm: memory fault")
	ErrDivByZero  = errors.New("vm: division by zero")
	ErrBadPC      = errors.New("vm: pc out of range")
	// ErrIllegal reports an illegal opcode or unknown trap — loaded code
	// that is structurally invalid, so it also matches
	// integrity.ErrCorrupt.
	ErrIllegal = integrity.Alias("vm: illegal instruction", integrity.ErrCorrupt)
)

// DefaultMemSize is the default machine memory, sized like the paper's
// test machine scaled down (the benchmarks never need more).
const DefaultMemSize = 4 << 20

// Machine executes a linked Program. Memory is little-endian; the data
// segment is copied in at Reset and the stack grows down from the top.
type Machine struct {
	Prog *Program
	Mem  []byte
	Regs [NumRegs]int32
	PC   int32
	Out  io.Writer

	Steps    int64
	ExitCode int32
	Halted   bool

	// Depth tracks nested activations (CALL increments, returns
	// decrement) for the governor's call-depth limit.
	Depth int

	// limits bounds every Run; install with SetLimits.
	limits guard.Limits

	// Trace, when non-nil, is invoked with the pc of every executed
	// instruction (used by the paging/working-set experiments).
	Trace func(pc int32)

	// Telemetry: dispatch counts accumulate in opCounts (hot loop pays
	// one nil check) and publish at the end of each Run.
	rec          *telemetry.Recorder
	opCounts     []int64
	flushedSteps int64
}

// NewMachine builds a machine with the given memory size (0 selects
// DefaultMemSize) writing trap output to out (nil discards it).
func NewMachine(p *Program, memSize int, out io.Writer) *Machine {
	if memSize <= 0 {
		memSize = DefaultMemSize
	}
	m := &Machine{Prog: p, Mem: make([]byte, memSize), Out: out}
	m.Reset()
	return m
}

// Reset reinitializes memory, registers, and the pc to program entry
// (instruction 0, the linker's start stub).
func (m *Machine) Reset() {
	for i := range m.Mem {
		m.Mem[i] = 0
	}
	LoadGlobals(m.Mem, m.Prog.Globals)
	m.Regs = [NumRegs]int32{}
	m.Regs[RegSP] = int32(len(m.Mem))
	m.PC = 0
	m.Steps = 0
	m.ExitCode = 0
	m.Halted = false
	m.Depth = 0
	m.flushedSteps = 0
	for i := range m.opCounts {
		m.opCounts[i] = 0
	}
}

// SetRecorder attaches a telemetry recorder; when enabled, Run
// publishes total steps and per-opcode dispatch counts. A nil or
// disabled recorder detaches.
func (m *Machine) SetRecorder(rec *telemetry.Recorder) {
	if rec.Enabled() {
		m.rec = rec
		m.opCounts = make([]int64, NumOpcodes)
	} else {
		m.rec = nil
		m.opCounts = nil
	}
}

// FlushTelemetry publishes counters accumulated since the last flush.
// Run calls it on exit.
func (m *Machine) FlushTelemetry() {
	if m.rec == nil {
		return
	}
	m.rec.Add("vm.steps", m.Steps-m.flushedSteps)
	m.flushedSteps = m.Steps
	for op, n := range m.opCounts {
		if n != 0 {
			m.rec.Add("vm.dispatch."+Opcode(op).Name(), n)
			m.opCounts[op] = 0
		}
	}
}

func (m *Machine) load32(addr int32) (int32, error) {
	if addr < 0 || int(addr)+4 > len(m.Mem) {
		return 0, fmt.Errorf("%w: load32 at %d (pc %d)", ErrMemFault, addr, m.PC)
	}
	return int32(binary.LittleEndian.Uint32(m.Mem[addr:])), nil
}

func (m *Machine) store32(addr, v int32) error {
	if addr < 0 || int(addr)+4 > len(m.Mem) {
		return fmt.Errorf("%w: store32 at %d (pc %d)", ErrMemFault, addr, m.PC)
	}
	binary.LittleEndian.PutUint32(m.Mem[addr:], uint32(v))
	return nil
}

func (m *Machine) load8(addr int32) (int32, error) {
	if addr < 0 || int(addr) >= len(m.Mem) {
		return 0, fmt.Errorf("%w: load8 at %d (pc %d)", ErrMemFault, addr, m.PC)
	}
	return int32(int8(m.Mem[addr])), nil
}

func (m *Machine) store8(addr, v int32) error {
	if addr < 0 || int(addr) >= len(m.Mem) {
		return fmt.Errorf("%w: store8 at %d (pc %d)", ErrMemFault, addr, m.PC)
	}
	m.Mem[addr] = byte(v)
	return nil
}

// SetLimits installs resource limits honored by every subsequent Run.
// The memory limit is validated against the machine's memory
// immediately; a violation returns a *guard.TrapError.
func (m *Machine) SetLimits(l guard.Limits) error {
	g := guard.New("vm", l, ErrOutOfSteps)
	if err := g.CheckMem(len(m.Mem)); err != nil {
		return err
	}
	m.limits = l
	return nil
}

// Run executes until HALT, an exit trap, an error, or a resource limit
// (maxSteps, 0 = no limit, merges with any SetLimits step bound). A
// limit violation returns a *guard.TrapError, which still matches
// ErrOutOfSteps for the step limit. It returns the exit code.
func (m *Machine) Run(maxSteps int64) (int32, error) {
	defer m.FlushTelemetry()
	l := m.limits
	if maxSteps > 0 && (l.MaxSteps == 0 || maxSteps < l.MaxSteps) {
		l.MaxSteps = maxSteps
	}
	g := guard.New("vm", l, ErrOutOfSteps)
	// The zero governor never traps, so an unlimited run skips it.
	checked := !l.Zero()
	for !m.Halted {
		if checked {
			if err := g.Check(m.Steps, m.Depth, int64(m.PC)); err != nil {
				m.recordTrap(err)
				return 0, err
			}
		}
		if err := m.Step(); err != nil {
			return 0, err
		}
	}
	return m.ExitCode, nil
}

// recordTrap bumps the telemetry counter for a governor trap and
// trips the flight recorder (via guard.Report). The batched execution
// counters are flushed first so the flight dump shows what the run was
// doing when the limit fired.
func (m *Machine) recordTrap(err error) {
	m.FlushTelemetry()
	guard.Report(m.rec, err)
}

// Step executes one instruction.
func (m *Machine) Step() error {
	if m.PC < 0 || int(m.PC) >= len(m.Prog.Code) {
		return fmt.Errorf("%w: %d", ErrBadPC, m.PC)
	}
	if m.Trace != nil {
		m.Trace(m.PC)
	}
	ins := m.Prog.Code[m.PC]
	if m.opCounts != nil && int(ins.Op) < len(m.opCounts) {
		m.opCounts[ins.Op]++
	}
	m.Steps++
	next := m.PC + 1
	r := &m.Regs
	switch ins.Op {
	case LDW:
		v, err := m.load32(r[ins.Rs1] + ins.Imm)
		if err != nil {
			return err
		}
		r[ins.Rd] = v
	case LDB:
		v, err := m.load8(r[ins.Rs1] + ins.Imm)
		if err != nil {
			return err
		}
		r[ins.Rd] = v
	case STW:
		if err := m.store32(r[ins.Rs1]+ins.Imm, r[ins.Rs2]); err != nil {
			return err
		}
	case STB:
		if err := m.store8(r[ins.Rs1]+ins.Imm, r[ins.Rs2]); err != nil {
			return err
		}
	case LDI:
		r[ins.Rd] = ins.Imm
	case ADDI:
		r[ins.Rd] = r[ins.Rs1] + ins.Imm
	case MOV:
		r[ins.Rd] = r[ins.Rs1]
	case ADD:
		r[ins.Rd] = r[ins.Rs1] + r[ins.Rs2]
	case SUB:
		r[ins.Rd] = r[ins.Rs1] - r[ins.Rs2]
	case MUL:
		r[ins.Rd] = r[ins.Rs1] * r[ins.Rs2]
	case DIV:
		if r[ins.Rs2] == 0 {
			return fmt.Errorf("%w (pc %d)", ErrDivByZero, m.PC)
		}
		r[ins.Rd] = r[ins.Rs1] / r[ins.Rs2]
	case REM:
		if r[ins.Rs2] == 0 {
			return fmt.Errorf("%w (pc %d)", ErrDivByZero, m.PC)
		}
		r[ins.Rd] = r[ins.Rs1] % r[ins.Rs2]
	case AND:
		r[ins.Rd] = r[ins.Rs1] & r[ins.Rs2]
	case OR:
		r[ins.Rd] = r[ins.Rs1] | r[ins.Rs2]
	case XOR:
		r[ins.Rd] = r[ins.Rs1] ^ r[ins.Rs2]
	case SHL:
		r[ins.Rd] = r[ins.Rs1] << (uint32(r[ins.Rs2]) & 31)
	case SHR:
		r[ins.Rd] = r[ins.Rs1] >> (uint32(r[ins.Rs2]) & 31)
	case NEG:
		r[ins.Rd] = -r[ins.Rs1]
	case NOT:
		r[ins.Rd] = ^r[ins.Rs1]
	case BEQ:
		if r[ins.Rs1] == r[ins.Rs2] {
			next = ins.Target
		}
	case BNE:
		if r[ins.Rs1] != r[ins.Rs2] {
			next = ins.Target
		}
	case BLT:
		if r[ins.Rs1] < r[ins.Rs2] {
			next = ins.Target
		}
	case BLE:
		if r[ins.Rs1] <= r[ins.Rs2] {
			next = ins.Target
		}
	case BGT:
		if r[ins.Rs1] > r[ins.Rs2] {
			next = ins.Target
		}
	case BGE:
		if r[ins.Rs1] >= r[ins.Rs2] {
			next = ins.Target
		}
	case BEQI:
		if r[ins.Rs1] == ins.Imm {
			next = ins.Target
		}
	case BNEI:
		if r[ins.Rs1] != ins.Imm {
			next = ins.Target
		}
	case BLTI:
		if r[ins.Rs1] < ins.Imm {
			next = ins.Target
		}
	case BLEI:
		if r[ins.Rs1] <= ins.Imm {
			next = ins.Target
		}
	case BGTI:
		if r[ins.Rs1] > ins.Imm {
			next = ins.Target
		}
	case BGEI:
		if r[ins.Rs1] >= ins.Imm {
			next = ins.Target
		}
	case JMP:
		next = ins.Target
	case CALL:
		r[RegRA] = next
		next = ins.Target
		m.Depth++
	case RJR:
		next = r[ins.Rs1]
		if m.Depth > 0 {
			m.Depth--
		}
	case ENTER:
		r[RegSP] -= ins.Imm
	case EXIT:
		r[RegSP] += ins.Imm
	case EPI:
		ra, err := m.load32(r[RegSP] + ins.Imm - 4)
		if err != nil {
			return err
		}
		r[RegSP] += ins.Imm
		r[RegRA] = ra
		next = ra
		if m.Depth > 0 {
			m.Depth--
		}
	case TRAP:
		if err := m.trap(ins.Imm); err != nil {
			return err
		}
	case HALT:
		m.Halted = true
		m.ExitCode = r[RegArg0]
	default:
		return fmt.Errorf("%w: illegal opcode %d at pc %d", ErrIllegal, ins.Op, m.PC)
	}
	m.PC = next
	return nil
}

func (m *Machine) trap(id int32) error {
	arg := m.Regs[RegArg0]
	switch id {
	case TrapPutint:
		m.print(fmt.Sprintf("%d\n", arg))
	case TrapPutchar:
		m.print(string(rune(byte(arg))))
	case TrapPuts:
		if arg < 0 {
			return fmt.Errorf("%w: string at %d", ErrMemFault, arg)
		}
		end := arg
		for int(end) < len(m.Mem) && m.Mem[end] != 0 {
			end++
		}
		if int(end) >= len(m.Mem) {
			return fmt.Errorf("%w: unterminated string at %d", ErrMemFault, arg)
		}
		m.print(string(m.Mem[arg:end]) + "\n")
	case TrapExit:
		m.Halted = true
		m.ExitCode = arg
	default:
		return fmt.Errorf("%w: unknown trap %d at pc %d", ErrIllegal, id, m.PC)
	}
	m.Regs[RegArg0] = 0
	return nil
}

func (m *Machine) print(s string) {
	if m.Out != nil {
		fmt.Fprint(m.Out, s)
	}
}
