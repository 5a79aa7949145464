package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/tree"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = float64(i + 1)
		}
		return vs
	}
	// 2000 samples: p99 is the 1980th value, 20 beyond it.
	if v, p := tailPercentile(seq(2000), 0.99); v != 1980 || p != 0.99 {
		t.Errorf("2000 samples: got value %v percentile %v, want 1980 at 0.99", v, p)
	}
	// 500 samples: p99 would leave 5 beyond, so the 490th value (p98)
	// is reported instead.
	if v, p := tailPercentile(seq(500), 0.99); v != 490 || p != 0.98 {
		t.Errorf("500 samples: got value %v percentile %v, want 490 at 0.98", v, p)
	}
	// Too few samples for any tail: the minimum, never a panic.
	if v, _ := tailPercentile(seq(8), 0.99); v != 1 {
		t.Errorf("8 samples: got %v, want the minimum", v)
	}
	// A failed request is +Inf and sorts last: it pushes real samples
	// out of the percentile instead of vanishing.
	withFailure := append(seq(1999), math.Inf(1))
	if v, _ := tailPercentile(withFailure, 0.99); v != 1980 {
		t.Errorf("with a failure: got %v, want 1980", v)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("got %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median: got %v, want 2.5", m)
	}
}

// A server that stalls once must raise the latency of the requests that
// were due during the stall: they are timed from when they were due,
// not from when the connection was free to send them.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stallAt, stall, interval = 5, 200 * time.Millisecond, 10 * time.Millisecond
	var served atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == stallAt+1 {
			time.Sleep(stall)
		}
		io.WriteString(w, "ok")
	}))
	defer srv.Close()
	c := newConn(strings.TrimPrefix(srv.URL, "http://"), 5*time.Second)
	defer c.close()

	var latency, service []time.Duration
	openLoop(time.Now(), 600*time.Millisecond, interval, 0, func(due time.Time) {
		sent := time.Now()
		rep, err := c.roundTrip("GET", "/", nil)
		if err != nil || rep.status != 200 {
			t.Errorf("request failed: %v (status %d)", err, rep.status)
			return
		}
		latency = append(latency, rep.last.Sub(due))
		service = append(service, rep.last.Sub(sent))
	})
	if len(latency) < stallAt+15 {
		t.Fatalf("only %d requests ran", len(latency))
	}
	if latency[stallAt] < stall {
		t.Errorf("stalled request: latency %v, want at least %v", latency[stallAt], stall)
	}
	// The next requests were due 10, 20, 30 ms into the 200 ms stall.
	// Their latency must carry the wait, which a clock started at send
	// time would have lost. (Only lower bounds: a loaded test machine
	// makes everything slower, never faster.)
	for k := 1; k <= 3; k++ {
		i := stallAt + k
		want := stall - time.Duration(k)*interval - 5*time.Millisecond
		if latency[i] < want {
			t.Errorf("request %d queued behind the stall: latency %v, want at least %v", i, latency[i], want)
		}
		if waited := latency[i] - service[i]; waited < want/2 {
			t.Errorf("request %d: only %v of its latency is time spent waiting for the connection, want at least %v", i, waited, want/2)
		}
	}
}

// A slot that resumes a token which was never issued is passed over
// inside the turn that reached it: the turn still sends a request, so an
// open phase keeps its arrival rate whatever the answers' sizes.
func TestSendPassesOverUnrenderableSlots(t *testing.T) {
	gen, err := store.ParseGen("7")
	if err != nil {
		t.Fatal(err)
	}
	var served atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		// The whole answer fits the page: no next token.
		json.NewEncoder(w).Encode(service.Response{Doc: "d000", Query: "/a", Strategy: "optimized", Gen: gen, Count: 2, Nodes: []tree.NodeID{1, 2}})
	}))
	defer srv.Close()
	w := &workload{name: "test", queries: []string{"/a"}}
	corp := &corpus{ids: []string{"d000"}, counts: [][]int{{2}}}
	list := []request{
		{kind: kindQuery, limit: 100, from: -1, keep: true},
		{kind: kindQuery, limit: 100, page: 1, from: 0}, // resumes slot 0, which issues no token
		{kind: kindQuery, limit: 100, from: -1},
	}
	cl := &client{c: newConn(strings.TrimPrefix(srv.URL, "http://"), 5*time.Second), p: newPlayer(w, corp, list, nil)}
	defer cl.c.close()
	for turn := 0; turn < 2; turn++ {
		if _, _, nodes, bad := cl.send(); bad || nodes != 2 {
			t.Fatalf("turn %d: bad=%v nodes=%d", turn, bad, nodes)
		}
	}
	if got := served.Load(); got != 2 {
		t.Errorf("two turns sent %d requests", got)
	}
	if cl.p.pos != 0 {
		t.Errorf("after two turns the player stands at slot %d, want 0 (slot 1 passed over)", cl.p.pos)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{}
	add := func(name string, parent, req int32, start, end int64) int32 {
		tr.spans = append(tr.spans, span{Name: name, Parent: parent, Req: req, StartNS: start, EndNS: end})
		return int32(len(tr.spans) - 1)
	}
	h := add("http.handler", -1, 0, 0, 100_000)
	e := add("service.eval", h, 0, 10_000, 80_000)
	add("core.evalcursor.auto", e, 0, 20_000, 60_000)
	add("core.cursor.nextbatch", e, 0, 60_000, 70_000)
	add("service.encode", h, 0, 80_000, 95_000)
	add("http.handler", -1, 1, 200_000, 250_000)  // a PATCH: no children
	add("service.eval", -1, -1, 300_000, 400_000) // a probe span
	add("core.evalcursor.auto", int32(len(tr.spans)-1), -1, 310_000, 390_000)

	total, self := tr.nested("http.handler")
	if len(total) != 1 || total[0] != 100 || self[0] != 15 {
		t.Errorf("handler: total %v self %v, want [100] [15]", total, self)
	}
	if _, self := tr.nested("service.eval"); len(self) != 1 || self[0] != 20 {
		t.Errorf("eval: self %v, want [20] (probe spans excluded)", self)
	}
	if ds := tr.durations("http.handler"); len(ds) != 2 || ds[1] != 50 {
		t.Errorf("durations: %v, want the PATCH span included", ds)
	}
}

func TestProcParsing(t *testing.T) {
	// A command name with spaces and parentheses must not shift fields.
	stat := []byte("4242 (xpqd (odd) name) S 1 4242 4242 0 -1 4194560 1234 0 0 0 1500 250 0 0 20 0 5 0 100 1000000 300 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n")
	ticks, err := parseProcStat(stat)
	if err != nil || ticks != 1750 {
		t.Errorf("parseProcStat: got %d, %v; want 1750", ticks, err)
	}
	if _, err := parseProcStat([]byte("garbage")); err == nil {
		t.Error("parseProcStat accepted garbage")
	}
	status := []byte("Name:\txpqd\nVmPeak:\t  900000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t   65536 kB\nThreads:\t5\n")
	if kb, err := parseStatusKB(status, "VmHWM"); err != nil || kb != 123456 {
		t.Errorf("VmHWM: got %d, %v", kb, err)
	}
	if kb, err := parseStatusKB(status, "VmRSS"); err != nil || kb != 65536 {
		t.Errorf("VmRSS: got %d, %v", kb, err)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("parseStatusKB found a line that is not there")
	}
	// And against the real thing.
	if cpu, err := procCPU(os.Getpid()); err != nil || cpu < 0 {
		t.Errorf("procCPU(self): %v, %v", cpu, err)
	}
	if mb, err := procMemMB(os.Getpid(), "VmHWM"); err != nil || mb <= 0 {
		t.Errorf("procMemMB(self): %v, %v", mb, err)
	}
}

// The reply scanners depend on the field order of the daemon's JSON;
// encode the real types the way the handler does and read them back.
func TestScannersReadTheServiceTypes(t *testing.T) {
	encode := func(vs ...any) []byte {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		for _, v := range vs {
			if err := enc.Encode(v); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	gen, err := store.ParseGen("4503599627370495")
	if err != nil {
		t.Fatal(err)
	}
	// A query text that mentions field names must not confuse the scan.
	const query = `//a[ "count": ]/"nodes":[1,2]`
	page := encode(service.Response{Doc: "d000", Query: query, Strategy: "optimized", Gen: gen,
		Count: 7, Nodes: []tree.NodeID{3, 5, 8}, Visited: 9, ElapsedUS: 11, Next: "dG9rZW4"})
	a, ok := scanQueryReply(page)
	if !ok || a.gen != 4503599627370495 || a.count != 7 || a.nodes != 3 || string(a.next) != "dG9rZW4" {
		t.Errorf("query reply: got %+v ok=%v", a, ok)
	}
	last := encode(service.Response{Doc: "d000", Query: query, Strategy: "hybrid", Gen: gen, Count: 0, Nodes: []tree.NodeID{}})
	if a, ok := scanQueryReply(last); !ok || a.count != 0 || a.nodes != 0 || a.next != nil {
		t.Errorf("empty query reply: got %+v ok=%v", a, ok)
	}

	stream := encode(
		service.StreamHeader{Doc: "d000", Query: query, Strategy: "optimized", Gen: gen, Count: 5, Visited: 6},
		service.StreamChunk{Nodes: []tree.NodeID{1, 2, 3}},
		service.StreamChunk{Nodes: []tree.NodeID{4, 5}},
		service.StreamTrailer{Done: true, Chunks: 2, Nodes: 5, ElapsedUS: 3},
	)
	if a, ok := scanStreamReply(stream); !ok || a.count != 5 || a.nodes != 5 || a.gen != 4503599627370495 {
		t.Errorf("stream reply: got %+v ok=%v", a, ok)
	}
	// A stream without its trailer was truncated.
	truncated := stream[:bytes.LastIndex(stream[:len(stream)-1], []byte{'\n'})+1]
	if _, ok := scanStreamReply(truncated); ok {
		t.Error("a stream without trailer was accepted")
	}

	patched := encode(store.Stats{ID: "d000", Gen: gen, Nodes: 1234, Labels: 70, MemBytes: 1})
	if g, n, ok := scanPatchReply(patched); !ok || g != 4503599627370495 || n != 1234 {
		t.Errorf("patch reply: got gen %d nodes %d ok=%v", g, n, ok)
	}
}

// listHashes pins the request lists of seed 1. They change only when a
// workload is redefined, which is a change to the benchmark itself.
var listHashes = map[string]uint64{
	"paper-mix":    0x2d760776d2a3f3ed,
	"point-lookup": 0xdec7c16e88a5a984,
	"bulk-stream":  0xd5f5204c342b5f24,
	"patch-mix":    0xa30de60518cefd9a,
}

// listsFor builds w's request lists for seed the way a run does. Only
// bulk-stream's lists depend on the corpus (page counts come from the
// oracle), so only its corpus is generated.
func listsFor(t *testing.T, w *workload, seed int64) [2][]request {
	t.Helper()
	r := newRng(seed).fork(w.name)
	var corp *corpus
	if w.name == "bulk-stream" {
		var err error
		if corp, err = buildCorpus(w, t.TempDir(), r); err != nil {
			t.Fatal(err)
		}
	}
	return w.lists(w, corp, r.fork("lists"))
}

func TestRequestListsDependOnSeedAlone(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			got := hashLists(listsFor(t, w, 1))
			if got != listHashes[w.name] {
				t.Errorf("seed 1: request-list hash %#x, pinned %#x", got, listHashes[w.name])
			}
			if again := hashLists(listsFor(t, w, 1)); again != got {
				t.Errorf("seed 1 twice: %#x then %#x", got, again)
			}
			if other := hashLists(listsFor(t, w, 2)); other == got {
				t.Errorf("seed 2 gives the same lists as seed 1")
			}
		})
	}
}

// fileDigest hashes every file of a corpus plus its patch bodies.
func corpusDigest(t *testing.T, c *corpus) string {
	t.Helper()
	h := sha256.New()
	for _, p := range c.paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(data)
	}
	if c.plan != nil {
		for _, doc := range c.plan.bodies {
			for _, body := range doc {
				h.Write(body)
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestCorpusDependsOnSeedAlone(t *testing.T) {
	for _, w := range workloads() {
		w := w.quickened()
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			build := func(seed int64) string {
				c, err := buildCorpus(w, t.TempDir(), newRng(seed).fork(w.name))
				if err != nil {
					t.Fatal(err)
				}
				return corpusDigest(t, c)
			}
			first := build(1)
			if again := build(1); again != first {
				t.Error("seed 1 twice gives different corpora")
			}
			if other := build(2); other == first {
				t.Error("seed 2 gives the same corpus as seed 1")
			}
		})
	}
}

// The program under test receives generated files and requests only:
// neither the seed nor the workload's name may reach its command line.
func TestDaemonCommandLineCarriesNoSeedOrWorkloadName(t *testing.T) {
	const seed = 987654321
	for _, w := range workloads() {
		w := w.quickened()
		// Not t.TempDir: its path would carry this test's name, which
		// is not what a run uses either (out/tmp-*).
		dir, err := os.MkdirTemp("", "tmp-")
		if err != nil {
			t.Fatal(err)
		}
		defer os.RemoveAll(dir)
		corp, err := buildCorpus(w, filepath.Join(dir, "corpus"), newRng(seed).fork(w.name))
		if err != nil {
			t.Fatal(err)
		}
		args := append(baseArgs("127.0.0.1:1"), corp.daemonArgs(w)...)
		for _, arg := range args {
			if strings.Contains(arg, w.name) || strings.Contains(arg, fmt.Sprint(seed)) || strings.Contains(arg, "seed") {
				t.Errorf("%s: daemon argument %q leaks the workload name or the seed", w.name, arg)
			}
		}
		for _, kv := range daemonEnv() {
			if strings.Contains(kv, w.name) || strings.Contains(kv, fmt.Sprint(seed)) {
				t.Errorf("%s: daemon environment %q leaks the workload name or the seed", w.name, kv)
			}
		}
	}
}

// BENCHMARK.json and the tables in metrics.go/workload.go describe the
// same benchmark.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var decl struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Paths) != 1 || decl.Paths[0] != "cmd/xpqbench" {
		t.Errorf("paths: %v", decl.Paths)
	}
	if decl.RunSeconds < 20 {
		t.Errorf("run_seconds %d: each phase must last at least 10 s", decl.RunSeconds)
	}
	ws := workloads()
	if len(decl.Workloads) != len(ws) {
		t.Fatalf("%d workloads declared, %d in the code", len(decl.Workloads), len(ws))
	}
	for i, w := range ws {
		if decl.Workloads[i].Name != w.name || decl.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %+v, code has %q: %q", i, decl.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, at most 200 allowed", w.name, len(w.why))
		}
	}
	same := func(kind string, declared []metric, defs []metricDef, bounded bool) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: %d metrics declared, %d in the code", kind, len(declared), len(defs))
		}
		for i, d := range defs {
			m := declared[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s metric %d: declared %+v, code has %+v", kind, i, m, d)
			}
			if bounded != (m.Bound != nil) {
				t.Errorf("%s metric %s: bound presence is wrong", kind, m.Name)
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd, true)
	same("per_layer", decl.PerLayer, perLayer, false)
	var setup, largest float64
	for _, m := range decl.EndToEnd {
		if *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, *m.Bound)
		}
		largest = math.Max(largest, *m.Bound)
		if m.Name == "setup_s" {
			setup = *m.Bound
		}
	}
	if setup != largest {
		t.Errorf("setup_s has bound %v, the largest is %v", setup, largest)
	}
}

// testDaemon is cmd/xpqd compiled once per test binary, into a
// directory TestMain removes.
var testDaemon struct {
	once sync.Once
	dir  string
	bin  string
	err  error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if testDaemon.dir != "" {
		os.RemoveAll(testDaemon.dir)
	}
	os.Exit(code)
}

// buildTestDaemon returns a quick-sized run configuration over the
// compiled daemon, with outputs in a directory of the calling test.
func buildTestDaemon(t *testing.T) runConfig {
	t.Helper()
	testDaemon.once.Do(func() {
		var root string
		if root, testDaemon.err = moduleRoot(); testDaemon.err != nil {
			return
		}
		if testDaemon.dir, testDaemon.err = os.MkdirTemp("", "xpqbench-test-"); testDaemon.err != nil {
			return
		}
		testDaemon.bin, testDaemon.err = buildDaemon(root, testDaemon.dir)
	})
	if testDaemon.err != nil {
		t.Fatal(testDaemon.err)
	}
	cfg, _ := runConfig{xpqd: testDaemon.bin, outDir: t.TempDir(), progress: io.Discard}.sized(2, false, true)
	cfg.seed = 1
	return cfg
}

// The smoke test: every workload against a real xpqd with tiny corpora
// and 1-second phases, so a broken route, flag or wire format fails
// `go test ./...`; then one traced run, which exercises the in-process
// replay and every probe.
func TestQuickRunAgainstRealDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns xpqd")
	}
	base := buildTestDaemon(t)
	// A self time is a difference of separate executions and may come
	// out slightly negative on a tiny corpus; every value must be set
	// and finite.
	check := func(t *testing.T, out *outcome, rep *report) {
		if out.failed != 0 || out.attempted == 0 {
			t.Errorf("attempted %d, failed %d", out.attempted, out.failed)
		}
		for _, d := range rep.defs {
			v, ok := rep.values[d.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: value %v (set: %v)", d.name, v, ok)
			}
		}
	}
	for _, w := range workloads() {
		w := w.quickened()
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			cfg := base
			cfg.jan = newJanitor()
			defer cfg.jan.sweep()
			out, err := runWorkload(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			check(t, out, out.e2e)
			for _, d := range endToEnd {
				if out.e2e.values[d.name] <= 0 {
					t.Errorf("%s is %v: an end-to-end metric is never 0", d.name, out.e2e.values[d.name])
				}
			}
			// A slot whose continuation token was never issued (here: the
			// second page of an answer that fits the first) must not use
			// up a turn of the open phase: the arrival rate is the frozen
			// one whatever the data.
			if got := out.layers.values["net.open_rate_rps"]; got < 0.95*w.rate || got > 1.05*w.rate {
				t.Errorf("open phase ran at %v req/s, frozen rate is %v", got, w.rate)
			}
			res, err := json.Marshal(resultOf(out, out.e2e))
			if err != nil || !json.Valid(res) {
				t.Errorf("result line: %s, %v", res, err)
			}
		})
	}
	t.Run("trace", func(t *testing.T) {
		t.Parallel()
		w, err := findWorkload("patch-mix")
		if err != nil {
			t.Fatal(err)
		}
		cfg, tb := base.sized(2, true, true)
		cfg.seed = 1
		cfg.jan = newJanitor()
		defer cfg.jan.sweep()
		out, err := runTrace(w.quickened(), cfg, tb)
		if err != nil {
			t.Fatal(err)
		}
		check(t, out, out.layers)
		if _, err := os.Stat(filepath.Join(cfg.outDir, w.name+".trace.json")); err != nil {
			t.Errorf("trace file: %v", err)
		}
	})
}

// Every exit path must leave no daemon and no temp directory behind.
func TestJanitorKillsDaemonAndRemovesTempDirs(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns xpqd")
	}
	cfg := buildTestDaemon(t)
	jan := newJanitor()
	tmp, err := os.MkdirTemp(cfg.outDir, "tmp-")
	if err != nil {
		t.Fatal(err)
	}
	jan.addDir(tmp)
	d, err := startDaemon(jan, cfg.xpqd, nil, filepath.Join(cfg.outDir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.waitHealthy(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	jan.sweep()
	if d.alive() {
		t.Error("daemon survived the sweep")
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Errorf("temp directory survived the sweep: %v", err)
	}
	// A daemon that is already dead is an error at shutdown, not a pass.
	d2, err := startDaemon(jan, cfg.xpqd, nil, filepath.Join(cfg.outDir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d2.waitHealthy(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	_ = d2.cmd.Process.Kill()
	<-d2.done
	if err := d2.stop(); err == nil {
		t.Error("stop() of a daemon that died reported success")
	}
}
