package brisc

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/parallel"
	"repro/internal/telemetry"
	"repro/internal/vm"
	"repro/internal/workload"
)

// optVariants are the option sets the determinism suites cover.
var optVariants = []Options{
	{},
	{AbundantMemory: true},
	{NoSpecialize: true},
	{NoCombine: true},
}

// detWorkers are the worker counts the determinism suites compare;
// 3 gives an odd number of candidate tables.
var detWorkers = []int{1, 2, 3, 8}

// TestParallelObjectIdentical pins the tentpole contract for BRISC:
// the serialized object is byte-identical for every worker count,
// across workloads and option variants. The candidate tables are sums
// of per-anchor contributions, whichever table and order they land in,
// and adoption tie-breaks on a total candidate order, so no table count
// or scheduling can perturb the greedy passes.
func TestParallelObjectIdentical(t *testing.T) {
	sources := map[string]string{
		"wep":  workload.Generate(workload.Wep),
		"fib":  workload.Kernels()["fib"],
		"word": workload.Generate(workload.Word),
	}
	if testing.Short() {
		delete(sources, "word")
	}
	for name, src := range sources {
		prog := compileProg(t, name, src)
		for vi, opt := range optVariants {
			var want []byte
			for _, w := range detWorkers {
				opt.Workers = w
				obj, err := Compress(prog, opt)
				if err != nil {
					t.Fatalf("%s variant %d Workers=%d: %v", name, vi, w, err)
				}
				if w == 1 {
					want = obj.Bytes()
				} else if !bytes.Equal(obj.Bytes(), want) {
					t.Errorf("%s variant %d: object differs between Workers=1 and Workers=%d", name, vi, w)
				}
			}
		}
	}
}

// TestCandidateStatsMatchRescan pins the incremental-statistics
// invariant directly: after the initial scan and after every greedy
// pass, the union of the candidate tables equals a fresh serial scan of
// the current unit array, every entry sits in the table its hash picks,
// and each table's live count matches its occupied slots. Under the race
// detector only wep runs: the determinism suites already drive the
// sharded upkeep there, and word would take minutes.
func TestCandidateStatsMatchRescan(t *testing.T) {
	sources := map[string]string{
		"wep":  workload.Generate(workload.Wep),
		"word": workload.Generate(workload.Word),
	}
	if testing.Short() || raceEnabled {
		delete(sources, "word")
	}
	for name, src := range sources {
		prog := compileProg(t, name, src)
		for vi, opt := range optVariants {
			for _, w := range detWorkers {
				opt.Workers = w
				checks := 0
				afterPass = func(c *compressor) {
					checks++
					if err := checkRescan(c); err != nil {
						t.Fatalf("%s variant %d Workers=%d, check %d: %v", name, vi, w, checks, err)
					}
				}
				_, err := Compress(prog, opt)
				afterPass = nil
				if err != nil {
					t.Fatalf("%s variant %d Workers=%d: %v", name, vi, w, err)
				}
				if checks < 2 {
					t.Fatalf("%s variant %d Workers=%d: hook ran %d times, want the scan and at least one pass", name, vi, w, checks)
				}
			}
		}
	}
}

// checkRescan compares c's candidate tables with a from-scratch serial
// scan of c's unit array, and checks that every candidate costs at
// least the scoring floor, so the floor can never hide one with B > 0.
func checkRescan(c *compressor) error {
	floor := benefitFloor(c.opt.AbundantMemory)
	if len(c.tables) != c.pool.Workers() {
		return fmt.Errorf("%d tables for %d workers", len(c.tables), c.pool.Workers())
	}
	want := map[candKey]candStat{}
	out := make([][]candRec, 1)
	for i := range c.units {
		out[0] = out[0][:0]
		c.scanAnchor(i, out)
		for _, r := range out[0] {
			st := want[r.key]
			st.count++
			st.savings += r.saved
			want[r.key] = st
		}
	}
	got := 0
	for ti := range c.tables {
		tb := &c.tables[ti]
		live := 0
		for _, e := range tb.slots {
			if e.count == 0 {
				continue
			}
			live++
			if e.hash != e.key.hash() {
				return fmt.Errorf("key %+v stored with hash %#x, want %#x", e.key, e.hash, e.key.hash())
			}
			if s := shardOf(e.hash, len(c.tables)); s != ti {
				return fmt.Errorf("key %+v in table %d, hash picks %d", e.key, ti, s)
			}
			if w, ok := want[e.key]; !ok || w != e.candStat {
				return fmt.Errorf("key %+v: table has %+v, rescan has %+v (present %v)", e.key, e.candStat, w, ok)
			}
			cost := c.dictCostOfKey(e.key)
			if !c.opt.AbundantMemory {
				cost += tableCostW(c.seqLenOfKey(e.key))
			}
			if int32(cost) < floor {
				return fmt.Errorf("key %+v costs %d, below the scoring floor %d", e.key, cost, floor)
			}
		}
		if live != tb.live {
			return fmt.Errorf("table %d counts %d live entries, holds %d", ti, tb.live, live)
		}
		got += live
	}
	if got != len(want) {
		return fmt.Errorf("tables hold %d candidates, rescan finds %d", got, len(want))
	}
	return nil
}

// TestReusedScratchConsecutiveIdentity pins the scratch-recycling
// contract: repeated Compress calls on one shared pool — each call
// drawing a compressScratch that previous calls have dirtied and
// returned — still produce bytes identical to the serial path, for
// three consecutive rounds over multiple programs. Any state leaking
// across runs through the recycled arenas (stale candidate stats,
// aliased unit buffers, unreset bit-writer slabs) would surface here,
// and under -race via make check.
func TestReusedScratchConsecutiveIdentity(t *testing.T) {
	sources := map[string]string{
		"wep": workload.Generate(workload.Wep),
		"fib": workload.Kernels()["fib"],
	}
	want := map[string][]byte{}
	progs := map[string]*vm.Program{}
	for name, src := range sources {
		prog := compileProg(t, name, src)
		progs[name] = prog
		obj, err := Compress(prog, Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		want[name] = obj.Bytes()
	}
	pool := parallel.NewTraced(8, telemetry.New())
	for round := 0; round < 3; round++ {
		for name, prog := range progs {
			objS, err := Compress(prog, Options{Workers: 1})
			if err != nil {
				t.Fatalf("round %d %s Workers=1: %v", round, name, err)
			}
			objP, err := Compress(prog, Options{Workers: 8, Pool: pool})
			if err != nil {
				t.Fatalf("round %d %s Workers=8: %v", round, name, err)
			}
			if !bytes.Equal(objS.Bytes(), want[name]) {
				t.Errorf("round %d %s: Workers=1 bytes drifted across reuse", round, name)
			}
			if !bytes.Equal(objP.Bytes(), want[name]) {
				t.Errorf("round %d %s: Workers=8 bytes differ from serial", round, name)
			}
		}
	}
}

// TestSharedPoolConcurrentCompress runs many Compress calls against
// one shared pool concurrently (the batch-mode shape; -race via make
// check) and checks each result against the serial bytes.
func TestSharedPoolConcurrentCompress(t *testing.T) {
	prog := compileProg(t, "wep", workload.Generate(workload.Wep))
	want, err := Compress(prog, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pool := parallel.NewTraced(4, telemetry.New())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := Compress(prog, Options{Pool: pool})
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(want.Bytes(), got.Bytes()) {
				t.Error("shared-pool object differs from serial")
			}
		}()
	}
	wg.Wait()
}
