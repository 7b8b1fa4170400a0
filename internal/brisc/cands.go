package brisc

import (
	"math/bits"
	"runtime"

	"repro/internal/telemetry"
	"repro/internal/vm"
)

// Candidate statistics.
//
// Every candidate's stat is a sum of independent per-anchor
// contributions: the candidates anchored at unit i depend only on
// units[i], units[i+1], and immutable dictionary entries. The stats
// live in one open-addressing table per pool worker, each candidate in
// the table its key hashes to. upkeep is the single path that changes
// them — the initial scan adds every anchor, and a rewrite retracts the
// anchors it is about to disturb and re-adds them after committing — so
// the tables always hold exactly what a from-scratch serial scan of the
// current unit array would produce. Sums do not depend on the order in
// which their terms are added, and adoption sorts with a total key
// order, so neither the table count nor the scheduling of the sharded
// upkeep can change a greedy choice.

// candKey identifies a candidate without materializing its pattern:
// a source pattern plus an optional one-field specialization for each
// half (f == -1 means no specialization; pid2 == -1 means the candidate
// is a pure specialization of pid1). The layout has no padding, so
// hashing and comparing a key are plain 20-byte memory operations.
type candKey struct {
	pid1, v1 int32
	pid2, v2 int32
	f1, f2   int16
}

// hash mixes the key's 20 bytes through two rounds of 64×64→128-bit
// multiply-fold. The high bits pick the table (shardOf), the low bits
// the slot within it.
func (k candKey) hash() uint32 {
	a := uint64(uint32(k.pid1)) | uint64(uint32(k.v1))<<32
	b := uint64(uint32(k.pid2)) | uint64(uint32(k.v2))<<32
	f := uint64(uint16(k.f1)) | uint64(uint16(k.f2))<<16
	hi, lo := bits.Mul64(a^0xa0761d6478bd642f, b^0xe7037ed1a0b428db)
	hi, lo = bits.Mul64(hi^lo^0x8ebc6af09c88c6e3, f^0x589965cc75374cc3)
	h := hi ^ lo
	return uint32(h ^ h>>32)
}

// shardOf maps a key hash to one of n tables by its high bits.
func shardOf(h uint32, n int) int { return int(uint64(h) * uint64(n) >> 32) }

func candKeyLess(a, b candKey) bool {
	switch {
	case a.pid1 != b.pid1:
		return a.pid1 < b.pid1
	case a.f1 != b.f1:
		return a.f1 < b.f1
	case a.v1 != b.v1:
		return a.v1 < b.v1
	case a.pid2 != b.pid2:
		return a.pid2 < b.pid2
	case a.f2 != b.f2:
		return a.f2 < b.f2
	default:
		return a.v2 < b.v2
	}
}

type candStat struct {
	count   int32 // anchors contributing the candidate; 0 marks an empty slot
	savings int32 // accumulated program-byte reduction across occurrences
}

// candRec is one anchor's contribution to one candidate, as the scan
// emits it: the key with its hash, and the bytes one occurrence saves.
type candRec struct {
	key   candKey
	hash  uint32
	saved int32
}

// candEntry is one slot of a candTable.
type candEntry struct {
	key  candKey
	hash uint32
	candStat
}

// candTable is a linear-probing hash table of candidate stats keyed by
// candKey. Applying a record hashes nothing — the record carries its
// hash — and touches the slot once, whether it inserts, updates, or
// deletes. A stat whose count returns to zero is removed by
// backward-shift deletion, so the table never holds tombstones and its
// contents are exactly the nonzero stats.
type candTable struct {
	slots []candEntry // power-of-two length
	live  int
}

const candTableMin = 1 << 10

func (t *candTable) init() {
	if t.slots == nil {
		t.slots = make([]candEntry, candTableMin)
	}
}

func (t *candTable) reset() {
	clear(t.slots)
	t.live = 0
}

// add folds sign × r into the table.
func (t *candTable) add(r *candRec, sign int32) {
	mask := uint32(len(t.slots) - 1)
	for i := r.hash & mask; ; i = (i + 1) & mask {
		e := &t.slots[i]
		if e.count == 0 {
			if 4*(t.live+1) > 3*len(t.slots) {
				t.grow()
				t.add(r, sign)
				return
			}
			*e = candEntry{key: r.key, hash: r.hash, candStat: candStat{sign, sign * r.saved}}
			t.live++
			return
		}
		if e.hash == r.hash && e.key == r.key {
			e.count += sign
			e.savings += sign * r.saved
			if e.count == 0 {
				t.removeAt(i)
			}
			return
		}
	}
}

// removeAt empties slot i, shifting later members of its probe run
// back so every entry stays reachable from its home slot.
func (t *candTable) removeAt(i uint32) {
	mask := uint32(len(t.slots) - 1)
	for j := (i + 1) & mask; t.slots[j].count != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i when its home slot is
		// no later than i along its probe run.
		if (j-t.slots[j].hash)&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = candEntry{}
	t.live--
}

func (t *candTable) grow() {
	old := t.slots
	t.slots = make([]candEntry, 2*len(old))
	mask := uint32(len(t.slots) - 1)
	for k := range old {
		if old[k].count == 0 {
			continue
		}
		i := old[k].hash & mask
		for t.slots[i].count != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = old[k]
	}
}

// numCands is the number of live candidates across the tables.
func (c *compressor) numCands() int {
	n := 0
	for i := range c.tables {
		n += c.tables[i].live
	}
	return n
}

// Sharding thresholds. Fewer than upkeepMinSharded anchors are cheaper
// to fold on the caller than to fan out twice; upkeepBatch bounds the
// anchors each scan task routes per batch, and with it the memory the
// route buffers hold.
const (
	upkeepMinSharded = 1024
	upkeepBatch      = 2048
)

// fanWidth is how many tasks a fan-out over work of size m should use:
// the caller plus one per idle pool worker, at most one per table and
// one per CPU not already running pooled work. 1 — one table, a short
// list, or a pool with no idle worker or no free CPU (batch mode,
// compressd under load) — means the caller does the work directly,
// paying no routing or barrier cost.
func (c *compressor) fanWidth(m int) int {
	if len(c.tables) <= 1 || m < upkeepMinSharded {
		return 1
	}
	st := c.pool.Stats()
	return max(1, min(len(c.tables), st.Workers-st.Busy+1, runtime.GOMAXPROCS(0)-st.Busy+1))
}

// upkeep folds sign × the candidate contributions of every anchor in
// anchors (ascending, duplicate-free) into the tables. Sharded, it runs
// in bounded batches of two fan-outs each: scan tasks split the batch
// into disjoint anchor spans and route each record into a buffer per
// destination table, then each table's owner applies its records in
// span order. Otherwise the caller scans and applies each anchor
// itself.
func (c *compressor) upkeep(anchors []int, sign int32) {
	if len(anchors) == 0 {
		return
	}
	// The enclosing brisc.commit / brisc.apply spans carry the change
	// counts; only a sharded upkeep records attributes of its own, as
	// building them allocates on every traced call.
	sp := c.rec.StartSpan("brisc.upkeep")
	defer sp.End()
	w := c.fanWidth(len(anchors))
	if w == 1 {
		c.upkeepDirect(anchors, sign)
		return
	}
	batches := 0
	for step := upkeepBatch * w; len(anchors) > 0; batches++ {
		b := anchors[:min(step, len(anchors))]
		anchors = anchors[len(b):]
		c.upkeepSharded(b, sign, w)
	}
	if sp != nil {
		sp.SetAttr(telemetry.Int("width", int64(w)), telemetry.Int("sharded_batches", int64(batches)))
	}
}

// upkeepDirect scans and applies one anchor at a time on the caller,
// so each anchor's records are still in cache when they are applied.
func (c *compressor) upkeepDirect(anchors []int, sign int32) {
	out := c.sc.routeBuffers(1, len(c.tables))[0]
	for _, j := range anchors {
		c.scanAnchor(j, out)
		for t, buf := range out {
			for k := range buf {
				c.tables[t].add(&buf[k], sign)
			}
			out[t] = buf[:0]
		}
	}
}

// upkeepSharded upkeeps one batch in w-wide fan-outs; table task k owns
// tables k, k+w, k+2w, ...
func (c *compressor) upkeepSharded(anchors []int, sign int32, w int) {
	n := len(c.tables)
	route := c.sc.routeBuffers(w, n)
	c.pool.ForEach("brisc.upkeep_scan", w, func(s int) error {
		for _, j := range anchors[s*len(anchors)/w : (s+1)*len(anchors)/w] {
			c.scanAnchor(j, route[s])
		}
		return nil
	})
	c.pool.ForEach("brisc.upkeep_table", w, func(k int) error {
		for t := k; t < n; t += w {
			tb := &c.tables[t]
			for s := range w {
				buf := route[s][t]
				for i := range buf {
					tb.add(&buf[i], sign)
				}
				route[s][t] = buf[:0]
			}
		}
		return nil
	})
}

// scanAnchor appends the candidates anchored at unit i, with the bytes
// one occurrence saves, to out[t] for the table t each key belongs to:
// the one-field specializations of units[i]'s pattern and, unless
// units[i+1] starts a basic block, the crossed zero-or-one-field
// specializations of the pair (i, i+1) (the paper's augmented
// operand-specialized sets). Only candidates that save bytes are
// emitted. It reads units[i] and units[i+1] and never writes, so
// disjoint anchor spans scan concurrently.
func (c *compressor) scanAnchor(i int, out [][]candRec) {
	emit := func(k candKey, saved int) {
		if saved > 0 {
			h := k.hash()
			t := shardOf(h, len(out))
			out[t] = append(out[t], candRec{key: k, hash: h, saved: int32(saved)})
		}
	}
	ceil2 := func(n int) int { return (n + 1) / 2 }

	u := &c.units[i]
	uFlocs := c.flocCache[u.pat]
	uSize := 1 + ceil2(u.nib)

	if !c.opt.NoSpecialize {
		// One-field specializations of the unit's pattern. Code
		// targets are not specialized: burned-in branch
		// destinations almost never repeat.
		for k, fl := range uFlocs {
			if fl.kind == vm.FTgt {
				continue
			}
			newSize := 1 + ceil2(u.nib-fieldNibbles(fl.kind, u.vals[k]))
			emit(candKey{pid1: int32(u.pat), f1: int16(k), v1: u.vals[k], pid2: -1, f2: -1},
				uSize-newSize)
		}
	}
	if c.opt.NoCombine || i+1 >= len(c.units) {
		return
	}
	v := &c.units[i+1]
	if v.block {
		return // never combine across a basic-block boundary
	}
	vFlocs := c.flocCache[v.pat]
	oldSize := uSize + 1 + ceil2(v.nib)
	for _, uc := range c.specCache[u.pat] {
		nibU := u.nib
		if uc >= 0 {
			nibU -= fieldNibbles(uFlocs[uc].kind, u.vals[uc])
		}
		for _, vc := range c.specCache[v.pat] {
			nibV := v.nib
			if vc >= 0 {
				nibV -= fieldNibbles(vFlocs[vc].kind, v.vals[vc])
			}
			k := candKey{pid1: int32(u.pat), f1: int16(uc), pid2: int32(v.pat), f2: int16(vc)}
			if uc >= 0 {
				k.v1 = u.vals[uc]
			}
			if vc >= 0 {
				k.v2 = v.vals[vc]
			}
			emit(k, oldSize-(1+ceil2(nibU+nibV)))
		}
	}
}

// score collects every candidate with positive benefit B, fanning the
// tables out across the pool when they are large enough to be worth it
// (task k scores tables k, k+w, ...). It reports whether it fanned out.
func (c *compressor) score() ([]scoredCand, bool) {
	sc := c.sc
	list := sc.scored[:0]
	floor := benefitFloor(c.opt.AbundantMemory)
	w := c.fanWidth(c.numCands())
	if w == 1 {
		for t := range c.tables {
			list = c.scoreTable(&c.tables[t], floor, list)
		}
		return list, false
	}
	for len(sc.scoreParts) < w {
		sc.scoreParts = append(sc.scoreParts, nil)
	}
	c.pool.ForEach("brisc.score", w, func(k int) error {
		part := sc.scoreParts[k][:0]
		for t := k; t < len(c.tables); t += w {
			part = c.scoreTable(&c.tables[t], floor, part)
		}
		sc.scoreParts[k] = part
		return nil
	})
	for k := range w {
		list = append(list, sc.scoreParts[k]...)
	}
	return list, true
}

// scoreTable appends t's candidates with positive benefit to dst. An
// entry whose savings do not exceed floor (benefitFloor) cannot have
// one and is skipped before its costs are looked up.
func (c *compressor) scoreTable(t *candTable, floor int32, dst []scoredCand) []scoredCand {
	for k := range t.slots {
		e := &t.slots[k]
		if e.savings <= floor {
			continue // also every empty slot: its savings are 0
		}
		b := int(e.savings) - c.dictCostOfKey(e.key)
		if !c.opt.AbundantMemory {
			b -= tableCostW(c.seqLenOfKey(e.key))
		}
		if b > 0 {
			dst = append(dst, scoredCand{key: e.key, st: e.candStat, b: int32(b)})
		}
	}
	return dst
}
