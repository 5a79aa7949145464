package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/tree"
)

// runConfig is what one workload run needs besides the workload.
type runConfig struct {
	xpqd   string // path of the built daemon
	outDir string // cmd/xpqbench/out: daemon stderr, traces, temp corpora
	seed   int64
	// warm, open and closed are the phase lengths, in the order they
	// run. Both timed phases are cut into slices of length slice: the
	// daemon is read at every boundary, and the closed phase's rates are
	// quartiles over its slices.
	warm, open, closed time.Duration
	slice              time.Duration
	// clientTimeout fails a request that has no complete reply by then.
	clientTimeout time.Duration
	jan           *janitor
	progress      io.Writer // human-readable progress; never the result
}

// outcome is everything one socket run produced.
type outcome struct {
	e2e       *report // end-to-end metrics
	layers    *report // source-S per-layer metrics
	attempted int
	failed    int
	// stale counts continuations of a write workload answered 410
	// because their generation was patched away before its lease: an
	// answer the daemon documents, not a failure.
	stale int
	// openP50 is the open-phase latency median in seconds, which the
	// traced run subtracts the in-process handler time from.
	openP50 float64
	// openSamples is the number of open-phase requests behind the
	// latency percentiles; p99Used is the percentile net.latency_p99_ms
	// really is (lower when fewer than ten samples lie beyond p99).
	openSamples int
	p99Used     float64
}

// phaseTally is what one client goroutine saw in one phase.
type phaseTally struct {
	attempted, failed int
	completed         int       // replies fully read inside the phase
	nodes             int64     // node ids carried by those replies
	slice             []int     // closed phase: completed, per slice
	sliceNodes        []int64   // closed phase: node ids, per slice
	latency           []float64 // open phase: due → last byte, seconds (+Inf when failed)
	firstByte         []float64 // open phase: due → first byte, seconds
	writeLatency      []float64 // open phase, PATCH only
	lag               []float64 // open phase: how late the generator woke, seconds
}

func (t *phaseTally) merge(o *phaseTally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.completed += o.completed
	t.nodes += o.nodes
	for i, n := range o.slice {
		t.slice[i] += n
		t.sliceNodes[i] += o.sliceNodes[i]
	}
	t.latency = append(t.latency, o.latency...)
	t.firstByte = append(t.firstByte, o.firstByte...)
	t.writeLatency = append(t.writeLatency, o.writeLatency...)
	t.lag = append(t.lag, o.lag...)
}

// client is one connection with its request list.
type client struct {
	c *conn
	p *player
}

// send issues the player's next renderable slot and reports what
// happened. A slot that resumes a token which was never issued (the
// first page already held the whole answer) is passed over, so a phase
// sends exactly as many requests as it has turns.
func (cl *client) send() (r *request, rep reply, nodes int, bad bool) {
	for {
		var pos int
		r, pos = cl.p.next()
		method, path, body, ok := cl.p.render(r)
		if !ok {
			continue
		}
		rep, err := cl.c.roundTrip(method, path, body)
		if err != nil {
			return r, rep, 0, true
		}
		nodes, bad = cl.p.observe(r, pos, rep.status, rep.body)
		return r, rep, nodes, bad
	}
}

// closedLoop sends the next request as soon as the previous reply is
// fully read, until start+dur. Replies completed before then are
// counted into the slice of their completion time.
func (cl *client) closedLoop(start time.Time, dur time.Duration, slices int) *phaseTally {
	t := &phaseTally{slice: make([]int, slices), sliceNodes: make([]int64, slices)}
	end := start.Add(dur)
	for time.Now().Before(end) {
		_, rep, nodes, bad := cl.send()
		t.attempted++
		if bad {
			t.failed++
			continue
		}
		if rep.last.Before(end) {
			i := int(rep.last.Sub(start) * time.Duration(slices) / dur)
			t.completed++
			t.nodes += int64(nodes)
			t.slice[i]++
			t.sliceNodes[i] += int64(nodes)
		}
	}
	return t
}

// openLoop runs do(i) at start+offset+i*interval for every such instant
// before start+dur, one call at a time: when a call is still running at
// the next due time, the next call starts late and the lateness is its
// to bear. do receives the due time it must measure from. lag collects,
// for calls that started on time, how late the generator itself woke.
func openLoop(start time.Time, dur, interval, offset time.Duration, do func(due time.Time)) (lag []float64) {
	end := start.Add(dur)
	for i := 0; ; i++ {
		due := start.Add(offset + time.Duration(i)*interval)
		if !due.Before(end) {
			return lag
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
			lag = append(lag, time.Since(due).Seconds())
		}
		do(due)
	}
}

// openPhase drives the client's list at a fixed rate for warm+dur,
// timing every request from the instant it was due. Requests due
// during warm are sent and checked like the others but not timed: a
// warm-up at the very load that is then measured.
func (cl *client) openPhase(start time.Time, warm, dur, interval, offset time.Duration) *phaseTally {
	t := &phaseTally{}
	measured := start.Add(warm)
	lag := openLoop(start, warm+dur, interval, offset, func(due time.Time) {
		r, rep, nodes, bad := cl.send()
		t.attempted++
		if bad {
			t.failed++
		}
		if due.Before(measured) {
			return
		}
		lat, first := rep.last.Sub(due).Seconds(), rep.first.Sub(due).Seconds()
		if bad {
			// A failed request misses every latency percentile.
			lat, first = math.Inf(1), math.Inf(1)
		} else {
			t.completed++
			t.nodes += int64(nodes)
		}
		t.latency = append(t.latency, lat)
		t.firstByte = append(t.firstByte, first)
		if r.kind == kindPatch {
			t.writeLatency = append(t.writeLatency, lat)
		}
	})
	// The generator's lateness is a property of the harness, warm or not.
	t.lag = lag
	return t
}

// both runs fn on the two clients concurrently and merges their
// tallies. A panic in a client goroutine is returned as an error, so
// the caller's cleanup still runs.
func both(clients []*client, slices int, fn func(i int, cl *client) *phaseTally) (*phaseTally, error) {
	tallies := make([]*phaseTally, len(clients))
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[i] = fmt.Errorf("client %d panicked: %v", i, p)
				}
			}()
			tallies[i] = fn(i, cl)
		}()
	}
	wg.Wait()
	total := &phaseTally{slice: make([]int, slices), sliceNodes: make([]int64, slices)}
	for i, t := range tallies {
		if errs[i] != nil {
			return nil, errs[i]
		}
		total.merge(t)
	}
	// Reads of a write workload are matched to generations only now,
	// with every PATCH reply in.
	for _, cl := range clients {
		if cl.p.wl != nil {
			total.failed += cl.p.settle()
		}
	}
	return total, nil
}

// scrape is one reading of everything the daemon and the kernel expose.
type scrape struct {
	at       time.Time
	stats    service.Stats
	gcCycles float64
	heapLive float64
	cpu      time.Duration // daemon
	selfCPU  time.Duration // harness
	rssMB    float64
	steal    time.Duration // host-wide: time the hypervisor ran something else
}

// scraper reads /stats, /metrics and /proc over its own connection.
type scraper struct {
	c   *conn
	pid int
}

// get fetches one of the daemon's own pages; the body is valid until
// the scraper's next request.
func (s *scraper) get(path string) ([]byte, error) {
	rep, err := s.c.roundTrip("GET", path, nil)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if rep.status != 200 {
		return nil, fmt.Errorf("GET %s: status %d", path, rep.status)
	}
	return rep.body, nil
}

func (s *scraper) stats() (service.Stats, error) {
	var st service.Stats
	body, err := s.get("/stats")
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, fmt.Errorf("GET /stats: %w", err)
	}
	return st, nil
}

// promValue sums the samples of one family in a Prometheus text page.
func promValue(page []byte, family string) float64 {
	sum := 0.0
	for _, line := range bytes.Split(page, []byte{'\n'}) {
		rest, ok := bytes.CutPrefix(line, []byte(family))
		if !ok || len(rest) == 0 || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		if i := bytes.LastIndexByte(rest, ' '); i >= 0 {
			if v, err := strconv.ParseFloat(string(rest[i+1:]), 64); err == nil {
				sum += v
			}
		}
	}
	return sum
}

func (s *scraper) read() (scrape, error) {
	sc := scrape{at: time.Now(), selfCPU: selfCPU()}
	var err error
	if sc.stats, err = s.stats(); err != nil {
		return sc, err
	}
	page, err := s.get("/metrics")
	if err != nil {
		return sc, err
	}
	sc.gcCycles = promValue(page, "go_gc_cycles_total")
	sc.heapLive = promValue(page, "go_heap_objects_bytes")
	if sc.cpu, err = procCPU(s.pid); err != nil {
		return sc, err
	}
	if sc.rssMB, err = procMemMB(s.pid, "VmRSS"); err != nil {
		return sc, err
	}
	sc.steal, err = hostSteal()
	return sc, err
}

// tick is one reading of the daemon at a slice boundary.
type tick struct {
	cpu      time.Duration
	rssMB    float64
	liveGens int // read every gensEvery-th boundary only; 0 otherwise
}

// gensEvery spaces the /stats readings of a watched phase: /stats costs
// the daemon far more than a /proc reading costs the kernel (and sweeps
// expired cursor leases, as any monitoring of the daemon would).
const gensEvery = 4

// watch reads the daemon at the n+1 boundaries of the n slices of the
// phase [start, start+dur): its CPU time and RSS from /proc and, with
// gens, its live generations from /stats. The returned function waits
// for the last reading.
func (s *scraper) watch(start time.Time, dur time.Duration, n int, gens bool) func() ([]tick, error) {
	ticks := make([]tick, 0, n+1)
	done := make(chan error, 1)
	go func() {
		for i := 0; i <= n; i++ {
			time.Sleep(time.Until(start.Add(dur * time.Duration(i) / time.Duration(n))))
			var t tick
			var err error
			if t.cpu, err = procCPU(s.pid); err != nil {
				done <- err
				return
			}
			if t.rssMB, err = procMemMB(s.pid, "VmRSS"); err != nil {
				done <- err
				return
			}
			if gens && i%gensEvery == 0 {
				st, err := s.stats()
				if err != nil {
					done <- err
					return
				}
				t.liveGens = st.MVCC.LiveGenerations
			}
			ticks = append(ticks, t)
		}
		done <- nil
	}()
	return func() ([]tick, error) { return ticks, <-done }
}

// precheck asks the daemon for the whole answer of every distinct
// (document, query) and compares count and node-id checksum with the
// step-wise oracle. On write workloads it also learns each document's
// starting generation.
func precheck(c *conn, w *workload, corp *corpus, wl *writeLog) (attempted, failed int, err error) {
	var reply struct {
		Gen   uint64        `json:"gen"`
		Count int           `json:"count"`
		Nodes []tree.NodeID `json:"nodes"`
	}
	for d, id := range corp.ids {
		for q, text := range w.queries {
			body, err := json.Marshal(service.Request{Doc: id, Query: text})
			if err != nil {
				return attempted, failed, err
			}
			rep, err := c.roundTrip("POST", "/query", body)
			attempted++
			if err != nil {
				return attempted, failed + 1, fmt.Errorf("pre-check %s %q: %w", id, text, err)
			}
			reply.Nodes = reply.Nodes[:0]
			if rep.status != 200 || json.Unmarshal(rep.body, &reply) != nil ||
				reply.Count != corp.counts[d][q] || len(reply.Nodes) != reply.Count ||
				checksum(reply.Nodes) != corp.sums[d][q] {
				failed++
				fmt.Fprintf(os.Stderr, "xpqbench: pre-check mismatch: %s %q: status %d, count %d, oracle %d\n",
					id, text, rep.status, reply.Count, corp.counts[d][q])
				continue
			}
			if wl != nil {
				wl.states[d][reply.Gen] = 0
			}
		}
	}
	return attempted, failed, nil
}

// inputs are the generated inputs of one run.
type inputs struct {
	corp  *corpus
	lists [2][]request
	rng   *rng   // the run's stream, for further forks
	tmp   string // temp directory holding the corpus
}

// generate makes w's corpus and request lists from cfg.seed in a fresh
// temp directory; the caller removes it with cfg.jan.removeDir(in.tmp).
func generate(w *workload, cfg runConfig) (*inputs, error) {
	in := &inputs{rng: newRng(cfg.seed).fork(w.name)}
	var err error
	if in.tmp, err = os.MkdirTemp(cfg.outDir, "tmp-"); err != nil {
		return nil, err
	}
	cfg.jan.addDir(in.tmp)
	fmt.Fprintf(cfg.progress, "%s: generating corpus (seed %d)\n", w.name, cfg.seed)
	if in.corp, err = buildCorpus(w, filepath.Join(in.tmp, "corpus"), in.rng); err != nil {
		cfg.jan.removeDir(in.tmp)
		return nil, err
	}
	in.lists = w.lists(w, in.corp, in.rng.fork("lists"))
	return in, nil
}

// runWorkload is one complete socket run of w: corpus, set-up, checks,
// open phase (its head the warm-up), closed phase, shutdown.
func runWorkload(w *workload, cfg runConfig) (*outcome, error) {
	in, err := generate(w, cfg)
	if err != nil {
		return nil, err
	}
	defer cfg.jan.removeDir(in.tmp)
	return runSocket(w, cfg, in.corp, in.lists)
}

// timeSetup starts the daemon and returns it with the time from spawn
// to its first 200 on /healthz.
func timeSetup(cfg runConfig, args []string, stderrPath string) (*daemon, float64, error) {
	d, err := startDaemon(cfg.jan, cfg.xpqd, args, stderrPath)
	if err != nil {
		return nil, 0, err
	}
	took, err := d.waitHealthy(60 * time.Second)
	if err != nil {
		d.kill()
		return nil, 0, err
	}
	return d, took.Seconds(), nil
}

// runSocket measures one prepared corpus and request lists at the
// daemon's socket.
func runSocket(w *workload, cfg runConfig, corp *corpus, lists [2][]request) (out *outcome, err error) {
	stderrPath := filepath.Join(cfg.outDir, w.name+".xpqd.stderr")
	_ = os.Remove(stderrPath) // each run starts its own log
	args := corp.daemonArgs(w)

	// Set-up is timed setupReps times, half of them now and half after
	// the measured daemon has stopped, so that they sample the machine
	// at both ends of the run; setup_s is their lower quartile (the
	// machine slows a set-up down, it never speeds one up). A daemon started only to time its set-up
	// has served nothing: it is killed, not drained. (SIGTERM that early
	// can also arrive before xpqd has installed its handler.)
	var d *daemon
	var setups []float64
	before := (w.setupReps + 1) / 2
	for i := 0; i < before; i++ {
		var took float64
		if d, took, err = timeSetup(cfg, args, stderrPath); err != nil {
			return nil, err
		}
		setups = append(setups, took)
		if i < before-1 {
			d.kill()
		}
	}
	defer func() {
		// Any exit that did not reach the orderly stop below.
		if d.alive() {
			d.kill()
		}
	}()
	fmt.Fprintf(cfg.progress, "%s: daemon up (pid %d)\n", w.name, d.pid)

	sc := &scraper{c: newConn(d.addr, 10*time.Second), pid: d.pid}
	defer sc.c.close()
	afterSetup, err := sc.stats()
	if err != nil {
		return nil, err
	}

	out = &outcome{e2e: newReport(w.name, endToEnd), layers: newReport(w.name, perLayer)}
	var wl *writeLog
	if w.writes {
		wl = newWriteLog(w.docs)
	}
	out.attempted, out.failed, err = precheck(sc.c, w, corp, wl)
	if err != nil {
		return nil, err
	}
	if out.failed > 0 {
		return nil, fmt.Errorf("%s: pre-check: %d of %d answers differ from the oracle", w.name, out.failed, out.attempted)
	}

	clients := make([]*client, 2)
	for i := range clients {
		clients[i] = &client{c: newConn(d.addr, cfg.clientTimeout), p: newPlayer(w, corp, lists[i], wl)}
		defer clients[i].c.close()
	}
	count := func(t *phaseTally) {
		out.attempted += t.attempted
		out.failed += t.failed
	}

	// Warm-up: caches fill, the Auto selector probes every strategy (each
	// first use allocates a context arena), lazy set-up ends. A read-only
	// workload warms up closed-loop, which gets there fastest. A write
	// workload warms up at the open phase's own rate instead, as the
	// untimed head of that phase: a closed loop would leave it with five
	// times the generations that rate sustains, and their memory takes
	// longer than the phase to return to the system.
	openWarm := cfg.warm
	if !w.writes {
		openWarm = 0
		start := time.Now()
		warm, err := both(clients, 1, func(_ int, cl *client) *phaseTally { return cl.closedLoop(start, cfg.warm, 1) })
		if err != nil {
			return nil, err
		}
		count(warm)
	}
	a, err := sc.read()
	if err != nil {
		return nil, err
	}

	// Open phase, first: every commit is measured under the same arrival
	// rate, so the daemon's memory (runtime.rss_mb) is read here too,
	// before the closed phase has run at whatever speed the machine
	// allows. Each connection gets
	// half the rate, the two schedules half an interval apart.
	fmt.Fprintf(cfg.progress, "%s: open phase %v+%v at %g req/s\n", w.name, openWarm, cfg.open, w.rate)
	interval := time.Duration(float64(time.Second) * float64(len(clients)) / w.rate)
	openSlices := max(2, int(cfg.open/cfg.slice))
	start := time.Now()
	watched := sc.watch(start.Add(openWarm), cfg.open, openSlices, w.writes)
	open, err := both(clients, 1, func(i int, cl *client) *phaseTally {
		return cl.openPhase(start, openWarm, cfg.open, interval, interval*time.Duration(i)/time.Duration(len(clients)))
	})
	openTicks, werr := watched()
	if err == nil {
		err = werr
	}
	if err != nil {
		return nil, err
	}
	count(open)
	b, err := sc.read()
	if err != nil {
		return nil, err
	}

	// Closed phase.
	fmt.Fprintf(cfg.progress, "%s: closed phase %v\n", w.name, cfg.closed)
	closedSlices := max(2, int(cfg.closed/cfg.slice)) // quartiles need two
	start = time.Now()
	watched = sc.watch(start, cfg.closed, closedSlices, w.writes)
	closed, err := both(clients, closedSlices, func(_ int, cl *client) *phaseTally {
		return cl.closedLoop(start, cfg.closed, closedSlices)
	})
	closedTicks, werr := watched()
	if err == nil {
		err = werr
	}
	if err != nil {
		return nil, err
	}
	count(closed)
	fmt.Fprintf(cfg.progress, "%s: closed phase completed %v requests per slice\n", w.name, closed.slice)
	c, err := sc.read()
	if err != nil {
		return nil, err
	}

	// A write workload must leave every document with the node count
	// of the shadow's state.
	if wl != nil {
		byID := map[string]int{}
		for _, doc := range c.stats.Documents {
			byID[doc.ID] = doc.Nodes
		}
		for di, id := range corp.ids {
			out.attempted++
			if byID[id] != corp.plan.nodes[di][wl.applied[di]%patchCycle] {
				out.failed++
				fmt.Fprintf(os.Stderr, "xpqbench: %s: document %s ends with %d nodes, shadow has %d\n",
					w.name, id, byID[id], corp.plan.nodes[di][wl.applied[di]%patchCycle])
			}
		}
	}
	for _, cl := range clients {
		out.stale += cl.p.stale
	}

	peak, err := procMemMB(d.pid, "VmHWM")
	if err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	for i := before; i < w.setupReps; i++ {
		extra, took, err := timeSetup(cfg, args, stderrPath)
		if err != nil {
			return nil, err
		}
		extra.kill()
		setups = append(setups, took)
	}
	fmt.Fprintf(cfg.progress, "%s: %d set-ups: %.4g s\n", w.name, len(setups), setups)

	// --- end-to-end metrics: set-up and the corpus ---
	e := out.e2e
	setupQ1, _, _ := quartiles(setups)
	e.set("setup_s", setupQ1)
	var docBytes, nodes float64
	for _, sh := range afterSetup.Shards {
		docBytes += float64(sh.DocBytes)
	}
	for _, doc := range afterSetup.Documents {
		nodes += float64(doc.Nodes)
	}
	e.set("resident_bytes_per_node", ratio(docBytes, nodes))

	// --- per-layer metrics of the socket run (source S) ---
	l := out.layers
	out.openP50 = median(open.latency)
	l.set("net.latency_p50_ms", out.openP50*1e3)
	l.set("net.first_byte_p50_ms", median(open.firstByte)*1e3)
	// The closed phase's rates are quartiles over its slices, on the
	// side of the undisturbed machine: what slows a slice down (the
	// hypervisor taking a processor away, a neighbour in the cache) is
	// outside the program; nothing outside it speeds a slice up.
	sliceLen := cfg.closed.Seconds() / float64(closedSlices)
	var rps, nps, cpuPerReq []float64
	for i, n := range closed.slice {
		rps = append(rps, float64(n)/sliceLen)
		nps = append(nps, float64(closed.sliceNodes[i])/sliceLen)
		if n > 0 {
			cpuPerReq = append(cpuPerReq, float64(closedTicks[i+1].cpu-closedTicks[i].cpu)/float64(time.Millisecond)/float64(n))
		}
	}
	_, _, rpsQ3 := quartiles(rps)
	_, _, npsQ3 := quartiles(nps)
	cpuQ1, _, _ := quartiles(cpuPerReq)
	l.set("net.throughput_rps", rpsQ3)
	l.set("net.nodes_per_s", npsQ3)
	l.set("runtime.cpu_ms_per_req", cpuQ1)
	l.set("net.open_rate_rps", float64(len(open.latency))/cfg.open.Seconds())
	reqs := float64(c.stats.Queries.Total-a.stats.Queries.Total) + float64(c.stats.MVCC.Patches-a.stats.MVCC.Patches)
	out.openSamples = len(open.latency)
	p95, _ := tailPercentile(open.latency, 0.95)
	p99, used := tailPercentile(open.latency, 0.99)
	out.p99Used = used
	l.set("net.latency_p95_ms", p95*1e3)
	l.set("net.latency_p99_ms", p99*1e3)
	l.set("net.write_latency_p50_ms", median(open.writeLatency)*1e3)
	var lockNS, lockN float64
	for i := range c.stats.Shards {
		lockNS += float64(c.stats.Shards[i].LockWaitTotalNS - a.stats.Shards[i].LockWaitTotalNS)
		lockN += float64(c.stats.Shards[i].LockAcquires - a.stats.Shards[i].LockAcquires)
	}
	l.set("service.lock_wait_mean_ns", ratio(lockNS, lockN))
	l.set("service.allocs_per_req", ratio(float64(c.stats.HeapAllocObjects-a.stats.HeapAllocObjects), reqs))
	hits := float64(c.stats.Cache.Hits - a.stats.Cache.Hits)
	misses := float64(c.stats.Cache.Misses - a.stats.Cache.Misses)
	l.set("qcache.hit_ratio", ratio(hits, hits+misses))
	l.set("qcache.evictions_per_kreq", ratio(1e3*float64(c.stats.Cache.Evictions-a.stats.Cache.Evictions), reqs))
	strat := func(name string) float64 {
		return float64(c.stats.Queries.ByStrategy[name] - a.stats.Queries.ByStrategy[name])
	}
	answered := float64(c.stats.Queries.Total-c.stats.Queries.Errors) - float64(a.stats.Queries.Total-a.stats.Queries.Errors)
	l.set("core.auto_share.optimized", ratio(strat("optimized"), answered))
	l.set("core.auto_share.hybrid", ratio(strat("hybrid"), answered))
	l.set("core.auto_share.topdowndet", ratio(strat("topdown-det"), answered))
	// Selector and pool tables belong to live engines and vanish with
	// retired generations, so these two are end-of-run readings, not
	// deltas.
	l.set("core.auto_explore_ratio", c.stats.Auto.ExplorationRate)
	l.set("core.ctxpool_hit_ratio", c.stats.PoolHitRate)
	l.set("core.ctxpool_arena_mb", float64(c.stats.Pool.ArenaBytes)/(1<<20))
	l.set("store.map_faults_per_kreq", ratio(1e3*float64(c.stats.Mapped.MapFaults-a.stats.Mapped.MapFaults), reqs))
	liveGensMax := max(a.stats.MVCC.LiveGenerations, b.stats.MVCC.LiveGenerations, c.stats.MVCC.LiveGenerations)
	for _, t := range append(openTicks, closedTicks...) {
		liveGensMax = max(liveGensMax, t.liveGens)
	}
	l.set("store.mvcc_live_gens_max", float64(liveGensMax))
	l.set("store.mvcc_retired_per_patch", ratio(float64(c.stats.MVCC.Retired-a.stats.MVCC.Retired), float64(c.stats.MVCC.Patches-a.stats.MVCC.Patches)))
	l.set("runtime.gc_cycles_per_s", (c.gcCycles-a.gcCycles)/c.at.Sub(a.at).Seconds())
	l.set("runtime.heap_live_mb", c.heapLive/(1<<20))
	openRSS := make([]float64, len(openTicks))
	for i, t := range openTicks {
		openRSS[i] = t.rssMB
	}
	l.set("runtime.rss_mb", median(openRSS))
	l.set("runtime.rss_peak_mb", peak)
	lag, _ := tailPercentile(open.lag, 0.99)
	l.set("bench.sched_lag_p99_ms", lag*1e3)
	driver, daemonCPU := float64(c.selfCPU-b.selfCPU), float64(c.cpu-b.cpu)
	l.set("bench.driver_cpu_share", ratio(driver, driver+daemonCPU))
	// Memory that grows under a constant load shows as the last reading
	// of a phase over the reading a quarter into it (by then the phase's
	// own load has replaced what the previous phase left behind).
	l.set("bench.rss_drift_open", ratio(openTicks[len(openTicks)-1].rssMB, openTicks[len(openTicks)/4].rssMB))
	l.set("bench.rss_drift_closed", ratio(closedTicks[len(closedTicks)-1].rssMB, closedTicks[len(closedTicks)/4].rssMB))
	l.set("bench.steal_share", ratio(float64(c.steal-a.steal), float64(runtime.NumCPU())*float64(c.at.Sub(a.at))))
	return out, nil
}

// printOutcome writes the human-readable form of a socket run.
func printOutcome(w io.Writer, name string, out *outcome) {
	out.e2e.print(w)
	fmt.Fprintf(w, "%s/latency.samples %d count\n", name, out.openSamples)
	fmt.Fprintf(w, "%s/net.latency_p99_ms.percentile %s ratio\n", name, formatValue(out.p99Used))
	fmt.Fprintf(w, "%s/ops_attempted %d count\n", name, out.attempted)
	fmt.Fprintf(w, "%s/ops_failed %d count\n", name, out.failed)
	fmt.Fprintf(w, "%s/ops_stale %d count\n", name, out.stale)
	out.layers.print(w)
}
