package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/brisc"
	"repro/internal/compressd"
	"repro/internal/parallel"
	"repro/internal/wire"
	"repro/internal/workload"
)

// serve drives compressd in-process over HTTP/JSON with an open-loop,
// seeded Poisson schedule on at most nproc keep-alive connections. A
// nominal phase well under capacity gives the latency metrics; an
// overload phase above capacity gives goodput. Latency is timed from
// each request's due time, so a stall is charged to every request
// queued behind it. Only the requests reach the server: the schedule,
// the references and the checks stay in the client.
type serve struct {
	seed   int64
	kinds  []reqKind
	inject injection
	// sizeRatio is fixed by the reference encodings made in set-up.
	sizeRatio float64
}

// reqKind is one entry of the request mix: an endpoint, the artifact
// format, a weight, and one prepared body per input with the check its
// response must pass.
type reqKind struct {
	endpoint string
	format   string
	weight   int
	bodies   [][]byte
	checks   []func(body []byte) error
}

const (
	serveModules  = 24 // small modules to compress and decompress
	servePrograms = 12 // short programs to run
	// The nominal rate is well under capacity, the overload rate well
	// above it, on 2 vCPUs; both are fixed so every commit sees the
	// same offered load.
	nominalRate  = 50.0  // requests per second
	overloadRate = 600.0 // requests per second
	nominalShare = 0.7   // share of the run spent at the nominal rate
	latWindow    = 2 * time.Second
	serveLimit   = 250 * time.Millisecond
)

func setupServe(seed int64, inject injection) (runner, error) {
	rng := rand.New(rand.NewSource(seed))
	mods, err := modules(rng, "mod", serveModules, workload.Quick, between(workload.Quick, workload.Wep, 0.25))
	if err != nil {
		return nil, err
	}
	progs, err := modules(rng, "prog", servePrograms, workload.Quick, workload.Quick)
	if err != nil {
		return nil, err
	}
	for _, in := range progs {
		inject.spoil(in)
	}
	cw := reqKind{endpoint: "compress", format: "wire", weight: 3}
	cb := reqKind{endpoint: "compress", format: "brisc", weight: 2}
	dw := reqKind{endpoint: "decompress", format: "wire", weight: 3}
	rb := reqKind{endpoint: "run", format: "brisc", weight: 2}
	artBytes := 0
	for _, in := range mods {
		w, err := wire.Compress(in.module)
		if err != nil {
			return nil, fmt.Errorf("%s: wire reference: %w", in.name, err)
		}
		obj, err := brisc.Compress(in.native, brisc.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s: brisc reference: %w", in.name, err)
		}
		b := obj.Bytes()
		artBytes += len(w) + len(b)
		cw.add(compressd.CompressRequest{Name: in.name, Source: in.src, Format: "wire"}, compressCheck(w))
		cb.add(compressd.CompressRequest{Name: in.name, Source: in.src, Format: "brisc"}, compressCheck(b))
		dw.add(compressd.DecompressRequest{Format: "wire", Artifact: inject.flip(0, w), DumpIR: true},
			decompressCheck(len(in.module.Functions), in.module.String()))
	}
	for _, in := range progs {
		obj, err := brisc.Compress(in.native, brisc.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s: brisc artifact: %w", in.name, err)
		}
		rb.add(compressd.RunRequest{Name: in.name, Artifact: obj.Bytes(), Format: "brisc", Engine: "brisc",
			Limits: compressd.LimitsSpec{TimeoutMS: serveLimit.Milliseconds()}}, runCheck(in.want))
	}
	return &serve{
		seed: seed, kinds: []reqKind{cw, cb, dw, rb}, inject: inject,
		sizeRatio: float64(artBytes) / float64(2*fixedBytes(mods)),
	}, nil
}

func (k *reqKind) add(req any, check func([]byte) error) {
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // the request types always marshal
	}
	k.bodies = append(k.bodies, b)
	k.checks = append(k.checks, check)
}

func compressCheck(want []byte) func([]byte) error {
	return func(body []byte) error {
		var r compressd.CompressResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if !bytes.Equal(r.Artifact, want) {
			return fmt.Errorf("compress artifact differs from the reference encoding (%d vs %d bytes)", len(r.Artifact), len(want))
		}
		return nil
	}
}

func decompressCheck(funcs int, ir string) func([]byte) error {
	return func(body []byte) error {
		var r compressd.DecompressResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.Functions != funcs || r.IR != ir {
			return fmt.Errorf("decompressed %d functions, IR equal %v; want %d functions", r.Functions, r.IR == ir, funcs)
		}
		return nil
	}
}

func runCheck(want reference) func([]byte) error {
	return func(body []byte) error {
		var r compressd.RunResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		return want.check(r.Output, r.ExitCode)
	}
}

func (s *serve) pool() *parallel.Pool { return nil }

// request is one scheduled arrival.
type request struct {
	due  time.Duration // from the phase start
	kind int
	idx  int
}

// outcome is what became of one request.
type outcome struct {
	status  int  // HTTP status; 0 when no response arrived
	expired bool // dropped unsent from the client queue
	err     error
	latency time.Duration // from due time to response
	lag     time.Duration // how late the generator released it
}

// schedule draws Poisson arrivals at rate over d from rng. The mix is
// dealt, not drawn: kinds come from shuffled decks holding each kind
// weight times, and each kind's inputs from shuffled passes over all
// of them, so every stretch of the schedule carries the same mix and a
// seed changes the order of the work, not its amount.
func (s *serve) schedule(rng *rand.Rand, rate float64, d time.Duration) []request {
	var deck []int
	for kind, k := range s.kinds {
		for j := 0; j < k.weight; j++ {
			deck = append(deck, kind)
		}
	}
	inputs := make([][]int, len(s.kinds))
	var out []request
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= d {
			return out
		}
		n := len(out) % len(deck)
		if n == 0 {
			rng.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
		}
		kind := deck[n]
		if len(inputs[kind]) == 0 {
			inputs[kind] = rng.Perm(len(s.kinds[kind].bodies))
		}
		out = append(out, request{due: t, kind: kind, idx: inputs[kind][0]})
		inputs[kind] = inputs[kind][1:]
	}
}

func (s *serve) run(tr *tracer, d time.Duration) *phase {
	srv, err := compressd.Start("127.0.0.1:0", compressd.Config{Workers: runtime.NumCPU()})
	if err != nil {
		return &phase{attempted: 1, failed: 1, notes: []string{"compressd.Start: " + err.Error()}}
	}
	defer srv.Close()
	base := "http://" + srv.Addr() + "/v1/"
	conns := runtime.NumCPU()
	clients := make([]*http.Client, conns)
	for i := range clients {
		clients[i] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
		defer clients[i].CloseIdleConnections()
	}
	rng := rand.New(rand.NewSource(s.seed))
	nomD := time.Duration(nominalShare * float64(d))
	ovD := d - nomD
	nom := s.schedule(rng, nominalRate, nomD)
	// The overload phase is a train of burstLen bursts, each followed
	// by burstGap in which the backlog drains and the host is probed.
	var ov []request
	bursts := max(1, int(ovD/(burstLen+burstGap)))
	for b := 0; b < bursts; b++ {
		off := time.Duration(b) * (burstLen + burstGap)
		for _, r := range s.schedule(rng, overloadRate, burstLen) {
			r.due += off
			ov = append(ov, r)
		}
	}
	nomOut, probes := s.phase(tr, clients, base, nom, false)
	ovOut, ovProbes := s.phase(tr, clients, base, ov, true)

	// Both phases are cut into windows of due time: latency windows of
	// about latWindow in the nominal phase, one window per burst in the
	// overload phase. Latencies are brought to the reference speed by
	// the mean probe of their window, throughputs by the probes in the
	// gap after their burst (probe.go). Other tenants of a shared
	// machine only ever make a window slower, so latency p50 and p90
	// come from the samples of the half of the latency windows with the
	// lowest p50 (a single window holds too few samples for a steady
	// p90). Throughputs are the median over bursts; every burst starts
	// from a drained queue.
	p := &phase{limit: serveLimit, wall: d, sizeRatio: s.sizeRatio}
	latWin := make([][]float64, max(1, int(nomD.Round(latWindow)/latWindow)))
	p.windows = bursts
	okWin, goodWin := make([]float64, bursts), make([]float64, bursts)
	var fails failures
	byEndpoint := map[string][]float64{}
	lags := [2][]float64{}
	sent, shed, timeouts, expired := 0, 0, 0, 0
	for phaseIdx, outs := range [][]outcome{nomOut, ovOut} {
		reqs := [][]request{nom, ov}[phaseIdx]
		overload := phaseIdx == 1
		for i, o := range outs {
			p.attempted++
			lags[phaseIdx] = append(lags[phaseIdx], ms(o.lag))
			k := &s.kinds[reqs[i].kind]
			ep := k.endpoint + "." + k.format
			switch {
			case o.expired:
				expired++
				continue
			case o.status == http.StatusTooManyRequests:
				shed++
			case o.status == http.StatusRequestTimeout:
				timeouts++
			}
			sent++
			lat := float64(o.latency.Nanoseconds()) / 1e6
			// Under overload a shed or timed-out request only misses
			// the limit; anything else that is not a correct 200 is a
			// failure in either phase.
			missed := overload && (o.status == http.StatusTooManyRequests || o.status == http.StatusRequestTimeout)
			if o.err != nil && !missed {
				fails.add(fmt.Sprintf("%s request %d", ep, i), o.err)
			}
			if !overload {
				w := min(int(reqs[i].due*time.Duration(len(latWin))/nomD), len(latWin)-1)
				latWin[w] = append(latWin[w], lat)
				p.lat = append(p.lat, lat)
				byEndpoint[ep] = append(byEndpoint[ep], lat)
				continue
			}
			if o.err == nil {
				w := min(int(reqs[i].due/(burstLen+burstGap)), bursts-1)
				okWin[w]++
				if o.latency <= serveLimit {
					goodWin[w]++
				}
			}
		}
	}
	p.failed = fails.n.Load()
	var all []float64
	winProbes := make([][]float64, len(latWin))
	for _, pr := range probes {
		w := min(int(pr.at*time.Duration(len(latWin))/nomD), len(latWin)-1)
		winProbes[w] = append(winProbes[w], float64(pr.took))
		all = append(all, float64(pr.took))
	}
	runSlow := slow(all)
	var winSlow []float64
	for w := range latWin {
		sl := runSlow
		if len(winProbes[w]) >= 3 {
			sl = slow(winProbes[w])
		}
		winSlow = append(winSlow, sl)
		for j := range latWin[w] {
			latWin[w][j] /= sl
		}
	}
	correct, good := 0.0, 0.0
	burstProbes := make([][]float64, bursts)
	for _, pr := range ovProbes {
		w := min(int(pr.at/(burstLen+burstGap)), bursts-1)
		burstProbes[w] = append(burstProbes[w], float64(pr.took))
	}
	var burstSlow, rawOK []float64
	for w := range okWin {
		correct += okWin[w]
		good += goodWin[w]
		sl := slow(burstProbes[w])
		burstSlow = append(burstSlow, sl)
		rawOK = append(rawOK, okWin[w]/burstLen.Seconds())
		okWin[w] *= sl / burstLen.Seconds()
		goodWin[w] *= sl / burstLen.Seconds()
	}
	rawRate := median(rawOK)
	p.unitsPerS, p.goodputRPS = median(okWin), median(goodWin)
	var p50s []float64
	for _, w := range latWin {
		sort.Float64s(w)
		p50s = append(p50s, quantile(w, 0.5))
	}
	order := make([]int, len(latWin))
	for w := range order {
		order[w] = w
	}
	sort.SliceStable(order, func(a, b int) bool { return p50s[order[a]] < p50s[order[b]] })
	var calm []float64
	for _, w := range order[:(len(order)+1)/2] {
		calm = append(calm, latWin[w]...)
	}
	sort.Float64s(calm)
	p.p50, p.tail = hdQuantile(calm, 0.5), hdQuantile(calm, 0.90)
	p.latNote = fmt.Sprintf("latency: Harrell-Davis p50 and p90 over the %d samples of the calmest %d of %d nominal windows of %v (%d samples in all); window p50s %.3g ms",
		len(calm), (len(order)+1)/2, len(latWin), latWindow, len(p.lat), p50s)
	sort.Float64s(p.lat)
	p.notes = append(p.notes,
		fmt.Sprintf("host slowness (mean probe of a window over %v, from %d probes): %.3g; whole nominal phase %.3g; after each overload burst %.3g", probeRef, len(probes), winSlow, runSlow, burstSlow),
		fmt.Sprintf("as measured, unscaled: %.4g responses/s in the median overload burst, nominal p50 %.4g ms, p90 %.4g ms over all windows",
			rawRate, hdQuantile(p.lat, 0.5), hdQuantile(p.lat, 0.9)))
	p.layer = map[string]float64{
		"compressd.shed_ratio":    float64(shed) / float64(max(sent, 1)),
		"compressd.timeout_ratio": float64(timeouts) / float64(max(sent, 1)),
	}
	sort.Float64s(lags[0])
	sort.Float64s(lags[1])
	p.notes = append(p.notes,
		fmt.Sprintf("schedule: %d nominal requests at %g/s over %.1fs, %d overload requests at %g/s in %d bursts of %v, %d connections",
			len(nom), nominalRate, nomD.Seconds(), len(ov), overloadRate, bursts, burstLen, conns),
		fmt.Sprintf("harness.gen_lag_p99_ms %.3f ms nominal, %.3f ms overload (p50 %.3f, %.3f)",
			quantile(lags[0], 0.99), quantile(lags[1], 0.99), quantile(lags[0], 0.5), quantile(lags[1], 0.5)),
		fmt.Sprintf("overload: %d sent, %d expired in the client queue, %d shed, %d timed out, %.0f correct, %.0f within %v",
			len(ov)-expired, expired, shed, timeouts, correct, good, serveLimit))
	eps := make([]string, 0, len(byEndpoint))
	for ep := range byEndpoint {
		eps = append(eps, ep)
	}
	sort.Strings(eps)
	for _, ep := range eps {
		v := byEndpoint[ep]
		sort.Float64s(v)
		tv, tq, _ := tail(v, 0.95)
		p.notes = append(p.notes, fmt.Sprintf("compressd.%s.p50_ms %.3f, tail_ms %.3f (p%g of %d)", ep, quantile(v, 0.5), tv, tq*100, len(v)))
	}
	return p
}

// phase releases reqs on schedule into a client-side queue served by
// one worker per connection, and waits for every outcome. In overload,
// a request that has waited more than half the limit when a connection
// frees up is dropped unsent and counts as missing the limit. Without
// the drop the queue, and every request's wait, would grow for the
// whole phase; with it, sent requests can still make the limit, and
// goodput measures what the server completes in time at saturation.
//
// The generator also times the probe (probe.go) and returns the probes
// with their offsets: outside overload whenever it has probeSlack
// before the next release and has not probed for probeEvery; in
// overload only in the gap after each burst, once the backlog has
// drained, since under saturation a probe would time the queue for the
// CPU, not the host's speed.
func (s *serve) phase(tr *tracer, clients []*http.Client, base string, reqs []request, overload bool) ([]outcome, []probeSample) {
	outs := make([]outcome, len(reqs))
	var (
		probes    []probeSample
		pr        = newProber()
		lastProbe time.Duration
	)
	queue := make(chan int, len(reqs)) // sized to the number of sends, so release never blocks
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for i := range queue {
				r := reqs[i]
				due := start.Add(r.due)
				if overload && time.Since(due) > serveLimit/2 {
					outs[i].expired = true
					outs[i].latency = time.Since(due)
					continue
				}
				outs[i].status, outs[i].err = s.send(tr, c, base, r)
				outs[i].latency = time.Since(due)
			}
		}(c)
	}
	for i, r := range reqs {
		if overload && i > 0 && r.due-reqs[i-1].due >= burstGap/2 {
			// A burst ended: let its backlog drain, then probe.
			time.Sleep(time.Until(start.Add(reqs[i-1].due + burstDrain)))
			for j := 0; j < burstProbes; j++ {
				probes = append(probes, probeSample{at: time.Since(start), took: pr.run()})
			}
		}
		if at := time.Since(start); !overload && r.due-at > probeSlack && at-lastProbe >= probeEvery {
			probes = append(probes, probeSample{at: at, took: pr.run()})
			lastProbe = at
		}
		if wait := time.Until(start.Add(r.due)); wait > 0 {
			time.Sleep(wait)
		}
		outs[i].lag = time.Since(start.Add(r.due))
		queue <- i
	}
	if overload && len(reqs) > 0 {
		time.Sleep(time.Until(start.Add(reqs[len(reqs)-1].due + burstDrain)))
		for j := 0; j < burstProbes; j++ {
			probes = append(probes, probeSample{at: time.Since(start), took: pr.run()})
		}
	}
	close(queue)
	wg.Wait()
	return outs, probes
}

// probeSample is one probe of the nominal phase.
type probeSample struct {
	at, took time.Duration // offset from the phase start; probe time
}

const (
	probeSlack = 10 * time.Millisecond
	probeEvery = 100 * time.Millisecond

	// Overload comes in bursts; after each, burstDrain lets the
	// backlog (dropped after serveLimit/2) and the requests in flight
	// finish, and burstProbes probes time the host.
	burstLen    = time.Second
	burstGap    = 400 * time.Millisecond
	burstDrain  = 200 * time.Millisecond
	burstProbes = 4
)

// send issues one request and checks its response.
func (s *serve) send(tr *tracer, c *http.Client, base string, r request) (int, error) {
	k := &s.kinds[r.kind]
	u := tr.root("serve.request")
	var (
		status int
		body   []byte
	)
	err := call(u, "compressd."+k.endpoint, func(sp *span) error {
		resp, err := c.Post(base+k.endpoint, "application/json", bytes.NewReader(k.bodies[r.idx]))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		status = resp.StatusCode
		body, err = io.ReadAll(resp.Body)
		sp.set("status", int64(status))
		return err
	})
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(body))
	}
	if err == nil {
		err = k.checks[r.idx](body)
	}
	u.end(err)
	return status, err
}
