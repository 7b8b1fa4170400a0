package brisc

import (
	"repro/internal/parallel"
	"repro/internal/vm"
)

// The compressor's allocation profile used to be dominated by per-pass
// churn: a fresh candidate map every greedy pass, per-candidate stat
// pointers, per-unit value slices, and per-chunk rewrite buffers. All
// of that state is now bump-allocated from a compressScratch arena that
// is recycled across Compress calls (including concurrent batch-mode
// calls sharing one parallel.Pool) through a parallel.Scratch. Nothing
// reachable from a returned *Object may alias arena memory — finish
// builds the object from fresh allocations — so a scratch is safe to
// reuse the moment its run returns.

// scoredCand is one candidate with its stat and computed benefit,
// collected by adopt for the per-pass top-K sort.
type scoredCand struct {
	key candKey
	st  candStat
	b   int32
}

// mergeRec records one opcode-combination merge: the anchor index in
// the pre-merge unit array and the merged unit's index within its
// chunk's output.
type mergeRec struct {
	oldIdx, outIdx int32
}

// repatChange is one pending unit re-patterning — the slot, its new
// pattern, and its operand values and nibble count under that pattern —
// computed read-only in the parallel repattern scan and applied
// serially so candidate stats can be retracted before the unit mutates.
type repatChange struct {
	idx, pat int
	vals     []int32
	nib      int
}

// int32Arena bump-allocates small int32 slices from chunked backing.
// Slices stay valid until the owning scratch is recycled; reset keeps
// only the current chunk, so steady-state reuse stops allocating.
type int32Arena struct {
	cur []int32
	pos int
}

const int32ArenaChunk = 1 << 14

func (a *int32Arena) alloc(n int) []int32 {
	if a.pos+n > len(a.cur) {
		sz := int32ArenaChunk
		if n > sz {
			sz = n
		}
		a.cur = make([]int32, sz)
		a.pos = 0
	}
	s := a.cur[a.pos : a.pos : a.pos+n]
	a.pos += n
	return s
}

func (a *int32Arena) reset() { a.pos = 0 }

// instrArena is int32Arena's vm.Instr counterpart, backing the merged
// units' concatenated instruction sequences.
type instrArena struct {
	cur []vm.Instr
	pos int
}

const instrArenaChunk = 1 << 12

func (a *instrArena) alloc(n int) []vm.Instr {
	if a.pos+n > len(a.cur) {
		sz := instrArenaChunk
		if n > sz {
			sz = n
		}
		a.cur = make([]vm.Instr, sz)
		a.pos = 0
	}
	s := a.cur[a.pos : a.pos : a.pos+n]
	a.pos += n
	return s
}

func (a *instrArena) reset() { a.pos = 0 }

// compressScratch holds every reusable buffer of one compressor run.
type compressScratch struct {
	units  []unit
	units2 []unit

	// buildUnits arenas: one vm.Instr slot and one operand-value span
	// per seeded unit.
	instrs  []vm.Instr
	valInit []int32
	valOff  []int32

	// Incremental candidate statistics: the per-worker tables and the
	// upkeep's route buffers (route[span][table], emptied after each
	// batch and bounded by upkeepBatch).
	tables []candTable
	route  [][][]candRec

	// Per-pass working sets.
	scored     []scoredCand
	scoreParts [][]scoredCand
	combs      []int
	dirty      []int // anchors to retract (and, for repattern, re-add)
	readd      []int // anchors to re-add after a merge commit
	chunks     [][2]int
	starts     []int
	adopted    []int
	seqIdx     seqIndex // the rewrite's patterns by opcode sequence

	// Per-chunk / per-span rewrite buffers (≤ pool workers of each).
	// Arenas are indexed by chunk, and chunks are disjoint, so workers
	// never contend no matter which goroutine runs which task.
	chunkUnits   [][]unit
	chunkMerges  [][]mergeRec
	catArenas    []instrArena // merged units' instruction sequences
	mergeVals    []int32Arena // merged units' operand values
	changeShards [][]repatChange
	repatVals    []int32Arena // re-patterned units' operand values

	// Compressor-level caches reused as empty slices.
	dict     []Pattern
	flocs    [][]floc
	specs    [][]int
	dictCost []int
	seqOf    []int32
	seqNext  map[seqEdge]int32
}

// compressPool recycles scratch arenas across Compress calls. The
// reset hook drops per-run entries but keeps grown capacity, so batch
// workloads reach a steady state with near-zero scratch allocation.
var compressPool = parallel.NewScratch(
	func() *compressScratch { return new(compressScratch) },
	func(sc *compressScratch) {
		for i := range sc.tables {
			sc.tables[i].reset()
		}
		for i := range sc.repatVals {
			sc.repatVals[i].reset()
		}
		for i := range sc.catArenas {
			sc.catArenas[i].reset()
		}
		for i := range sc.mergeVals {
			sc.mergeVals[i].reset()
		}
		// Slices of pointers/slices must be zeroed where they retain
		// heap references (units hold instr/value slices into arenas
		// that are about to be recycled); plain value slices just get
		// length 0 at next use.
		for i := range sc.dict {
			sc.dict[i] = Pattern{}
		}
		sc.dict = sc.dict[:0]
		for i := range sc.flocs {
			sc.flocs[i] = nil
		}
		sc.flocs = sc.flocs[:0]
		for i := range sc.specs {
			sc.specs[i] = nil
		}
		sc.specs = sc.specs[:0]
		clear(sc.seqNext)
		for i := range sc.units {
			sc.units[i] = unit{}
		}
		for i := range sc.units2 {
			sc.units2[i] = unit{}
		}
		for i := range sc.chunkUnits {
			for j := range sc.chunkUnits[i] {
				sc.chunkUnits[i][j] = unit{}
			}
			sc.chunkUnits[i] = sc.chunkUnits[i][:0]
		}
		for i := range sc.changeShards {
			clear(sc.changeShards[i])
			sc.changeShards[i] = sc.changeShards[i][:0]
		}
	},
)

// seqIndex files dictionary ids in buckets keyed by an opcode-sequence
// id, each entry carrying a second sequence id (sub) the reader
// filters on. A bucket lists its entries in the order they were added.
// head has one slot per sequence id, -1 for an empty bucket; reset
// empties only the buckets the last link filled, so a rewrite pays for
// the patterns it indexes, not for the size of the dictionary.
type seqIndex struct {
	head []int32
	ents []seqEnt
}

type seqEnt struct {
	seq, sub int32 // bucket key and second key
	id       int32 // dictionary id
	next     int32 // next entry in the bucket, -1 at its end
}

func (x *seqIndex) add(seq, sub int32, id int) {
	x.ents = append(x.ents, seqEnt{seq: seq, sub: sub, id: int32(id)})
}

// link chains the added entries into their buckets, for sequence ids
// below n.
func (x *seqIndex) link(n int32) {
	for int32(len(x.head)) < n {
		x.head = append(x.head, -1)
	}
	for k := len(x.ents) - 1; k >= 0; k-- {
		e := &x.ents[k]
		e.next = x.head[e.seq]
		x.head[e.seq] = int32(k)
	}
}

func (x *seqIndex) reset() {
	for _, e := range x.ents {
		x.head[e.seq] = -1
	}
	x.ents = x.ents[:0]
}

// candTables returns n empty candidate tables.
func (sc *compressScratch) candTables(n int) []candTable {
	for len(sc.tables) < n {
		sc.tables = append(sc.tables, candTable{})
	}
	ts := sc.tables[:n]
	for i := range ts {
		ts[i].init()
	}
	return ts
}

// routeBuffers returns empty route buffers for spans scan spans, each
// with n per-table slices.
func (sc *compressScratch) routeBuffers(spans, n int) [][][]candRec {
	for len(sc.route) < spans {
		sc.route = append(sc.route, nil)
	}
	for s := range spans {
		for len(sc.route[s]) < n {
			sc.route[s] = append(sc.route[s], nil)
		}
		sc.route[s] = sc.route[s][:n]
	}
	return sc.route[:spans]
}

// growUnits returns *s resized to length n, reallocating only when
// capacity is short.
func growUnits(s *[]unit, n int) []unit {
	if cap(*s) < n {
		*s = make([]unit, n)
	}
	*s = (*s)[:n]
	return *s
}

func growInstrs(s *[]vm.Instr, n int) []vm.Instr {
	if cap(*s) < n {
		*s = make([]vm.Instr, n)
	}
	*s = (*s)[:n]
	return *s
}

func growInt32(s *[]int32, n int) []int32 {
	if cap(*s) < n {
		*s = make([]int32, n)
	}
	*s = (*s)[:n]
	return *s
}
