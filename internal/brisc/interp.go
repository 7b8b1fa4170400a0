package brisc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/guard"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// Interp executes a BRISC object in place: each step Markov-decodes
// the unit at the current byte offset, expands its pattern, and
// executes the instructions directly, without ever materializing the
// decompressed program. Branch targets are block indices resolved
// through the object's block-offset table, and return addresses are
// byte offsets, so the compressed stream is the only code
// representation in memory — the working-set property the paper's
// memory-bottleneck scenario relies on.
type Interp struct {
	Obj  *Object
	Mem  []byte
	Regs [vm.NumRegs]int32
	PC   int32 // byte offset into Obj.Code
	Out  io.Writer

	Steps    int64 // instructions executed
	Units    int64 // units decoded
	ExitCode int32
	Halted   bool

	// Depth tracks nested activations (CALL increments, returns
	// decrement) for the governor's call-depth limit.
	Depth int

	// limits bounds every Run; install with SetLimits.
	limits guard.Limits

	blockSet map[int32]bool
	ctx      int
	// Trace, when non-nil, receives the byte offset of every unit.
	Trace func(off int32)

	// pre is the whole-image predecoded form (shared with the JIT front
	// end via the Object); unitIdx is the index of the unit at PC, or -1
	// when PC must be resolved through pre.offIdx (start of run, or
	// after a computed jump). When predecoding fails — corrupt images
	// must still execute their valid prefix — pre stays nil and Run
	// falls back to the stepwise decoder.
	pre     *predecoded
	unitIdx int32

	// visited marks predecoded units the fast loop has executed; it
	// stands in for the decode cache's hit/miss and working-set
	// accounting (the predecoded image *is* the cache).
	visited []bool

	// xip, when non-nil (EnableXIP), switches Run to demand-paged
	// execution out of the compressed page store with a bounded
	// decoded-page LRU cache; pre stays nil in that mode.
	xip *xipRuntime

	// XIPFault, when non-nil, is invoked with the page id just before
	// each page fault loads from the store — an instrumentation/test
	// hook (mid-execution tamper injection), like Trace.
	XIPFault func(page int32)

	// cache, when enabled, memoizes decoded units by byte offset. This
	// is the working-set-for-speed trade the paper's W cost models:
	// the decoder's expanded tables make interpretation faster but
	// consume the memory that compressing the code was saving.
	cache map[int32]*cachedUnit

	// Telemetry. The hot loop touches only local fields behind a single
	// opCounts nil check; recorder locks are taken in FlushTelemetry,
	// once per Run, so the disabled path costs nothing measurable.
	rec                    *telemetry.Recorder
	opCounts               []int64
	blockCounts            map[int32]int64
	cacheHits, cacheMisses int64
	flushedSteps           int64
	flushedUnits           int64
}

type cachedUnit struct {
	pid  int
	vals []int32
	next int32
}

// Interpreter runtime errors.
var (
	ErrOutOfSteps = errors.New("brisc: step limit exceeded")
	ErrMemFault   = errors.New("brisc: memory fault")
	ErrDivByZero  = errors.New("brisc: division by zero")
)

// NewInterp builds an interpreter with the given memory size
// (0 selects vm.DefaultMemSize), writing trap output to out.
func NewInterp(o *Object, memSize int, out io.Writer) *Interp {
	if memSize <= 0 {
		memSize = vm.DefaultMemSize
	}
	it := &Interp{Obj: o, Mem: make([]byte, memSize), Out: out}
	it.blockSet = make(map[int32]bool, len(o.Blocks))
	for _, off := range o.Blocks {
		it.blockSet[off] = true
	}
	it.Reset()
	return it
}

// Reset reinitializes memory and registers and positions the pc at the
// first block (the linker's start stub).
func (it *Interp) Reset() {
	for i := range it.Mem {
		it.Mem[i] = 0
	}
	vm.LoadGlobals(it.Mem, it.Obj.Globals)
	it.Regs = [vm.NumRegs]int32{}
	it.Regs[vm.RegSP] = int32(len(it.Mem))
	it.PC = 0
	it.ctx = 0
	it.unitIdx = -1
	for i := range it.visited {
		it.visited[i] = false
	}
	it.Steps = 0
	it.Units = 0
	it.Halted = false
	it.ExitCode = 0
	it.Depth = 0
	if it.cache != nil {
		it.cache = make(map[int32]*cachedUnit)
	}
	if it.xip != nil {
		it.xip.reset()
	}
	it.flushedSteps, it.flushedUnits = 0, 0
	it.cacheHits, it.cacheMisses = 0, 0
	if it.opCounts != nil {
		for i := range it.opCounts {
			it.opCounts[i] = 0
		}
		it.blockCounts = make(map[int32]int64)
	}
}

// SetRecorder attaches a telemetry recorder. When rec is enabled the
// interpreter counts opcode dispatches, basic-block entries, and
// decode-cache hits/misses in local fields and publishes them at the
// end of each Run (or via FlushTelemetry). A nil or disabled recorder
// detaches and restores the zero-overhead path.
func (it *Interp) SetRecorder(rec *telemetry.Recorder) {
	if rec.Enabled() {
		it.rec = rec
		it.opCounts = make([]int64, vm.NumOpcodes)
		it.blockCounts = make(map[int32]int64)
	} else {
		it.rec = nil
		it.opCounts = nil
		it.blockCounts = nil
	}
}

// FlushTelemetry publishes the execution counters accumulated since
// the last flush to the attached recorder: total steps and units,
// per-opcode dispatch counts, block entries (total, plus a histogram
// of entries per distinct block), and cache hits/misses. Run calls it
// on exit; call it directly only when sampling mid-run.
func (it *Interp) FlushTelemetry() {
	if it.rec == nil {
		return
	}
	it.rec.Add("brisc.interp.steps", it.Steps-it.flushedSteps)
	it.rec.Add("brisc.interp.units", it.Units-it.flushedUnits)
	it.flushedSteps, it.flushedUnits = it.Steps, it.Units
	it.rec.Add("brisc.interp.cache.hits", it.cacheHits)
	it.rec.Add("brisc.interp.cache.misses", it.cacheMisses)
	it.cacheHits, it.cacheMisses = 0, 0
	var entries int64
	for _, n := range it.blockCounts {
		entries += n
		it.rec.Observe("brisc.interp.block_entries_per_block", float64(n))
	}
	it.rec.Add("brisc.interp.block_entries", entries)
	it.blockCounts = make(map[int32]int64)
	for op, n := range it.opCounts {
		if n != 0 {
			it.rec.Add("brisc.interp.dispatch."+vm.Opcode(op).Name(), n)
			it.opCounts[op] = 0
		}
	}
	if rt := it.xip; rt != nil {
		it.rec.Add("paging.xip.faults", rt.faults-rt.flushedFaults)
		it.rec.Add("paging.xip.hits", rt.hits-rt.flushedHits)
		it.rec.Add("paging.xip.evictions", rt.evictions-rt.flushedEvictions)
		rt.flushedFaults, rt.flushedHits, rt.flushedEvictions = rt.faults, rt.hits, rt.evictions
		it.rec.SetGauge("paging.xip.pages", float64(rt.img.NumPages()))
		it.rec.SetGauge("paging.xip.page_size", float64(rt.img.PageSize()))
		it.rec.SetGauge("paging.xip.resident_pages", float64(len(rt.pages)))
		it.rec.SetGauge("paging.xip.resident_bytes", float64(rt.resident))
		it.rec.SetGauge("paging.xip.peak_resident_pages", float64(rt.peakPages))
		it.rec.SetGauge("paging.xip.peak_resident_bytes", float64(rt.peakBytes))
	}
}

// SetLimits installs resource limits honored by every subsequent Run.
// The memory limit is validated against the interpreter's memory
// immediately; a violation returns a *guard.TrapError.
func (it *Interp) SetLimits(l guard.Limits) error {
	g := guard.New("brisc", l, ErrOutOfSteps)
	if err := g.CheckMem(len(it.Mem)); err != nil {
		return err
	}
	it.limits = l
	return nil
}

// Run interprets until halt/exit, an error, or a resource limit
// (maxSteps, 0 = unlimited, merges with any SetLimits step bound),
// returning the exit code. A limit violation returns a
// *guard.TrapError, which still matches ErrOutOfSteps for the step
// limit.
func (it *Interp) Run(maxSteps int64) (int32, error) {
	defer it.FlushTelemetry()
	l := it.limits
	if maxSteps > 0 && (l.MaxSteps == 0 || maxSteps < l.MaxSteps) {
		l.MaxSteps = maxSteps
	}
	g := guard.New("brisc", l, ErrOutOfSteps)
	if it.xip != nil {
		if err := it.runPaged(&g, !l.Zero()); err != nil {
			return 0, err
		}
		return it.ExitCode, nil
	}
	if pre, err := it.Obj.predecode(); err == nil {
		it.pre = pre
		it.unitIdx = -1
		if it.cache != nil && it.visited == nil {
			it.visited = make([]bool, len(pre.units))
		}
		if err := it.runPredecoded(&g, !l.Zero()); err != nil {
			return 0, err
		}
		return it.ExitCode, nil
	}
	// Corrupt image: the stepwise decoder executes the valid prefix and
	// surfaces the decode error at the exact unit that is damaged.
	for !it.Halted {
		if err := g.Check(it.Steps, it.Depth, int64(it.PC)); err != nil {
			it.recordTrap(err)
			return 0, err
		}
		if err := it.StepUnit(); err != nil {
			return 0, err
		}
	}
	return it.ExitCode, nil
}

// runPredecoded is the fast dispatch loop: no per-unit decode, no
// pattern expansion, direct handler-table dispatch over the flat
// instruction array. Governor and telemetry work are hoisted behind
// per-unit flag checks, so with both disabled a unit costs one map-free
// index step plus its handlers. Off-grid PCs (a computed jump into the
// middle of a unit on hostile input) fall back to the stepwise decoder
// for that unit, preserving in-place semantics exactly.
func (it *Interp) runPredecoded(g *guard.Gov, checked bool) error {
	pre := it.pre
	instrumented := it.Trace != nil || it.opCounts != nil || it.cache != nil
	for !it.Halted {
		if checked {
			if err := g.Check(it.Steps, it.Depth, int64(it.PC)); err != nil {
				it.recordTrap(err)
				return err
			}
		}
		idx := it.unitIdx
		if idx < 0 {
			var ok bool
			if idx, ok = pre.offIdx[it.PC]; !ok {
				if err := it.StepUnit(); err != nil {
					return err
				}
				continue
			}
			it.unitIdx = idx
		}
		u := &pre.units[idx]
		if instrumented {
			it.noteUnit(idx, u)
		}
		it.Units++
		jumped := false
		end := u.first + u.n
		for k := u.first; k < end; k++ {
			ins := &pre.code[k]
			if it.opCounts != nil && int(ins.Op) < len(it.opCounts) {
				it.opCounts[ins.Op]++
			}
			taken, err := opHandlers[ins.Op](it, ins, u.next)
			if err != nil {
				return err
			}
			it.Steps++
			if taken || it.Halted {
				jumped = true
				break
			}
		}
		if !jumped {
			it.ctx = int(u.pid) + 1
			it.PC = u.next
			it.unitIdx = u.nextIdx
		}
	}
	return nil
}

// noteUnit performs the per-unit instrumentation the fast loop hoists
// out of the uninstrumented path: trace callback, block-entry counts,
// and cache hit/miss accounting against the visited bitmap.
func (it *Interp) noteUnit(idx int32, u *predUnit) {
	if u.isBlock && it.opCounts != nil {
		it.blockCounts[u.off]++
	}
	if it.Trace != nil {
		it.Trace(u.off)
	}
	if it.cache != nil {
		if !it.visited[idx] {
			it.visited[idx] = true
			if it.opCounts != nil {
				it.cacheMisses++
			}
		} else if it.opCounts != nil {
			it.cacheHits++
		}
	}
}

// recordTrap bumps the telemetry counter for a governor trap and
// trips the flight recorder (via guard.Report). The batched execution
// counters are flushed first so the flight dump shows what the run was
// doing when the limit fired.
func (it *Interp) recordTrap(err error) {
	it.FlushTelemetry()
	guard.Report(it.rec, err)
}

// EnableCache turns on the decoded-unit cache (see the cache field).
// Call before Run; Reset preserves the setting but drops contents.
func (it *Interp) EnableCache() {
	it.cache = make(map[int32]*cachedUnit)
}

// CacheBytes estimates the memory held by the decode cache — the
// interpreter's extra working set. In the predecoded fast path the
// image-wide decode is the cache, so the estimate covers the units the
// current run has actually touched (its working set), plus any units
// the stepwise fallback memoized in the legacy map.
func (it *Interp) CacheBytes() int {
	n := 0
	for _, cu := range it.cache {
		n += 16 + 4*len(cu.vals)
	}
	if it.pre != nil {
		for i, v := range it.visited {
			if v {
				n += 16 + 4*int(it.pre.units[i].nvals)
			}
		}
	}
	if it.xip != nil {
		n += int(it.xip.resident)
	}
	return n
}

// StepUnit decodes and executes one unit (one or more instructions).
func (it *Interp) StepUnit() error {
	if it.blockSet[it.PC] {
		it.ctx = 0
		if it.opCounts != nil {
			it.blockCounts[it.PC]++
		}
	}
	if it.Trace != nil {
		it.Trace(it.PC)
	}
	var pid int
	var vals []int32
	var next int32
	if cu, ok := it.cache[it.PC]; ok {
		pid, vals, next = cu.pid, cu.vals, cu.next
		if it.opCounts != nil {
			it.cacheHits++
		}
	} else {
		var err error
		pid, vals, next, err = it.Obj.decodeUnit(it.PC, it.ctx)
		if err != nil {
			return err
		}
		if it.cache != nil {
			it.cache[it.PC] = &cachedUnit{pid: pid, vals: vals, next: next}
			if it.opCounts != nil {
				it.cacheMisses++
			}
		}
	}
	it.Units++
	p := &it.Obj.Dict[pid]
	// Execute the pattern's instructions with decoded operands.
	vi := 0
	jumped := false
	for si := range p.Seq {
		pi := &p.Seq[si]
		var ins vm.Instr
		ins.Op = pi.Op
		for f := range pi.Fixed {
			if pi.Fixed[f] {
				setField(&ins, f, pi.Val[f])
			} else {
				setField(&ins, f, vals[vi])
				vi++
			}
		}
		if it.opCounts != nil && int(ins.Op) < len(it.opCounts) {
			it.opCounts[ins.Op]++
		}
		taken, err := it.exec(ins, next)
		if err != nil {
			return err
		}
		it.Steps++
		if taken || it.Halted {
			jumped = true
			break
		}
	}
	if !jumped {
		it.ctx = pid + 1
		it.PC = next
	}
	return nil
}

// blockTarget resolves a block index to a byte offset.
func (it *Interp) blockTarget(b int32) (int32, error) {
	if b < 0 || int(b) >= len(it.Obj.Blocks) {
		return 0, fmt.Errorf("%w: block target %d", ErrCorrupt, b)
	}
	return it.Obj.Blocks[b], nil
}

// exec executes one expanded instruction through the handler table.
// next is the byte offset of the following unit (the return address
// for CALL). It reports whether control transferred.
func (it *Interp) exec(ins vm.Instr, next int32) (bool, error) {
	return opHandlers[ins.Op](it, &ins, next)
}

func (it *Interp) jumpBlock(b int32) (bool, error) {
	off, err := it.blockTarget(b)
	if err != nil {
		return false, err
	}
	it.PC = off
	it.ctx = 0
	if it.pre != nil {
		it.unitIdx = it.pre.blockUnit[b]
	}
	return true, nil
}

func (it *Interp) load32(addr int32) (int32, error) {
	if addr < 0 || int(addr)+4 > len(it.Mem) {
		return 0, fmt.Errorf("%w: load32 at %d", ErrMemFault, addr)
	}
	return int32(binary.LittleEndian.Uint32(it.Mem[addr:])), nil
}

func (it *Interp) store32(addr, v int32) error {
	if addr < 0 || int(addr)+4 > len(it.Mem) {
		return fmt.Errorf("%w: store32 at %d", ErrMemFault, addr)
	}
	binary.LittleEndian.PutUint32(it.Mem[addr:], uint32(v))
	return nil
}

func (it *Interp) trap(id int32) error {
	arg := it.Regs[vm.RegArg0]
	switch id {
	case vm.TrapPutint:
		it.print(fmt.Sprintf("%d\n", arg))
	case vm.TrapPutchar:
		it.print(string(rune(byte(arg))))
	case vm.TrapPuts:
		if arg < 0 {
			return fmt.Errorf("%w: string at %d", ErrMemFault, arg)
		}
		end := arg
		for int(end) < len(it.Mem) && it.Mem[end] != 0 {
			end++
		}
		if int(end) >= len(it.Mem) {
			return fmt.Errorf("%w: unterminated string at %d", ErrMemFault, arg)
		}
		it.print(string(it.Mem[arg:end]) + "\n")
	case vm.TrapExit:
		it.Halted = true
		it.ExitCode = arg
	default:
		return fmt.Errorf("%w: unknown trap %d", ErrCorrupt, id)
	}
	it.Regs[vm.RegArg0] = 0
	return nil
}

func (it *Interp) print(s string) {
	if it.Out != nil {
		fmt.Fprint(it.Out, s)
	}
}
