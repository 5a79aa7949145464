package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/xmark"
)

// TestFlagList pins the daemon's exact flag set as `xpqd -h` prints it,
// so a new knob (or a quietly removed one) shows up in review.
func TestFlagList(t *testing.T) {
	var usage bytes.Buffer
	if err := run(context.Background(), []string{"-h"}, &usage); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run -h: err = %v, want flag.ErrHelp", err)
	}
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^  -([a-z-]+)`).FindAllStringSubmatch(usage.String(), -1) {
		got = append(got, m[1])
	}
	want := []string{
		"addr", "allow-file-loads", "cache-size", "cursor-ttl", "load",
		"log-level", "mmap", "pprof", "resident-budget", "shards",
		"slow-query-ms", "stream-chunk", "verify-resident", "workers", "xmark",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("xpqd -h lists %d flags:\n  %v\nwant %d:\n  %v", len(got), got, len(want), want)
	}
}

// logBuf is a concurrency-safe stderr capture.
type logBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *logBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *logBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestRunCancelBeforeListen: a shutdown request that is already pending
// when the daemon starts (the early-SIGTERM case) ends it cleanly — the
// preload stops between documents and no listener is ever opened.
func TestRunCancelBeforeListen(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var log logBuf
	err := run(ctx, []string{"-addr", "127.0.0.1:0", "-xmark", "a=0.001", "-xmark", "b=0.001"}, &log)
	if err != nil {
		t.Fatalf("run with a cancelled context: %v", err)
	}
	if out := log.String(); strings.Contains(out, "loaded document") || strings.Contains(out, "listening") {
		t.Errorf("cancelled daemon kept going:\n%s", out)
	}
	// Without anything to preload the cancellation is seen at the
	// serve/drain select instead; still a clean exit.
	if err := run(ctx, []string{"-addr", "127.0.0.1:0", "-log-level", "error"}, io.Discard); err != nil {
		t.Fatalf("run with a cancelled context, no preload: %v", err)
	}
}

// TestRunCancelAfterListen: a serving daemon drains and returns nil
// when its context is cancelled.
func TestRunCancelAfterListen(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var log logBuf
	done := make(chan error, 1)
	go func() { done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-xmark", "a=0.001"}, &log) }()

	addrRE := regexp.MustCompile(`msg=listening addr=(\S+)`)
	var addr string
	for deadline := time.Now().Add(10 * time.Second); addr == ""; time.Sleep(5 * time.Millisecond) {
		if m := addrRE.FindStringSubmatch(log.String()); m != nil {
			addr = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("daemon never listened:\n%s", log.String())
		}
		select {
		case err := <-done:
			t.Fatalf("daemon exited before listening: %v\n%s", err, log.String())
		default:
		}
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: status %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon did not drain:\n%s", log.String())
	}
	if !strings.Contains(log.String(), "bye") {
		t.Errorf("no clean-drain log line:\n%s", log.String())
	}
}

// TestMmapRejectsXQO1: preloading a file in the removed XQO1 format
// fails startup with an error naming the format and the re-save command
// — not a panic, not a bare checksum or bad-magic failure.
func TestMmapRejectsXQO1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.xqo2")
	if err := os.WriteFile(path, []byte("XQO1"+strings.Repeat("\x01", 64)), 0o644); err != nil {
		t.Fatal(err)
	}
	var log logBuf
	err := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-mmap", "old=" + path}, &log)
	if err == nil || !strings.Contains(err.Error(), "XQO1") || !strings.Contains(err.Error(), "-save") {
		t.Fatalf("run -mmap <XQO1 file>: err = %v, want one naming XQO1 and the re-save command", err)
	}
	if strings.Contains(log.String(), "listening") {
		t.Error("daemon listened despite a failed preload")
	}
}

// preloadFiles writes n small XML documents and returns their -load
// specs, ids d0..d(n-1).
func preloadFiles(t *testing.T, n int) []string {
	t.Helper()
	dir := t.TempDir()
	specs := make([]string, n)
	for i := range specs {
		path := filepath.Join(dir, fmt.Sprintf("d%d.xml", i))
		doc := "<r>" + strings.Repeat("<e>t</e>", 200+i) + "</r>"
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		specs[i] = fmt.Sprintf("d%d=%s", i, path)
	}
	return specs
}

var loadedRE = regexp.MustCompile(`msg="loaded document" doc=(\S+)`)

func loadedDocs(log string) []string {
	var ids []string
	for _, m := range loadedRE.FindAllStringSubmatch(log, -1) {
		ids = append(ids, m[1])
	}
	return ids
}

func testLogger(w io.Writer) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, nil))
}

// TestPreloadDuplicateIDs: an id named twice, by whatever flags, is
// refused before any document is loaded, and the error names both specs.
func TestPreloadDuplicateIDs(t *testing.T) {
	files := preloadFiles(t, 2)
	xqo2 := filepath.Join(t.TempDir(), "m.xqo2")
	if err := store.SaveXQO2File(xqo2, xmark.Generate(xmark.Config{Scale: 0.001, Seed: 1})); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name                 string
		loads, mmaps, xmarks []string
		want                 []string
	}{
		{"load twice", []string{files[0], "d0=" + strings.SplitN(files[1], "=", 2)[1]}, nil, nil, []string{`"d0"`, "-load", files[0]}},
		{"load and xmark", files[:1], nil, []string{"d0=0.001"}, []string{`"d0"`, "-load", `-xmark "d0=0.001"`}},
		{"mmap and xmark", nil, []string{"x=" + xqo2}, []string{"x=0.001:3"}, []string{`"x"`, "-mmap", `-xmark "x=0.001:3"`}},
		{"mmap directory and load", []string{"m=" + strings.SplitN(files[0], "=", 2)[1]}, []string{filepath.Dir(xqo2)}, nil, []string{`"m"`, "-load", "-mmap"}},
	} {
		var log logBuf
		st := store.New()
		err := preload(context.Background(), st, testLogger(&log), tc.loads, tc.mmaps, tc.xmarks)
		if err == nil || !strings.Contains(err.Error(), "duplicate document id") {
			t.Errorf("%s: err = %v, want a duplicate-id error", tc.name, err)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not mention %s", tc.name, err, w)
			}
		}
		if st.Len() != 0 || len(loadedDocs(log.String())) != 0 {
			t.Errorf("%s: %d documents loaded before the duplicate was refused", tc.name, st.Len())
		}
	}
}

// mappedCorpus writes n copies of one XMark document at the given scale
// as dir/m000.xqo2, dir/m001.xqo2, ... and returns dir: ids m000, m001,
// ... in flag order, all files the same size.
func mappedCorpus(tb testing.TB, n int, scale float64) string {
	tb.Helper()
	dir := tb.TempDir()
	var buf bytes.Buffer
	if _, err := store.WriteXQO2(&buf, xmark.Generate(xmark.Config{Scale: scale, Seed: 1})); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("m%03d.xqo2", i)), buf.Bytes(), 0o644); err != nil {
			tb.Fatal(err)
		}
	}
	return dir
}

// TestPreloadOrder: documents built and opened concurrently are still
// logged, and listed by /docs, in flag order — -load, then -mmap (a
// directory's files by name, and an id=path spec where it stands), then
// -xmark.
func TestPreloadOrder(t *testing.T) {
	files := preloadFiles(t, 8)
	mdir := mappedCorpus(t, 6, 0.001)
	mmaps := []string{mdir, "solo=" + filepath.Join(mdir, "m000.xqo2")}
	xmarks := []string{"x0=0.004", "x1=0.001", "x2=0.002:5"}
	want := "d0 d1 d2 d3 d4 d5 d6 d7 m000 m001 m002 m003 m004 m005 solo x0 x1 x2"
	for round := 0; round < 10; round++ {
		var log logBuf
		st := store.New()
		if err := preload(context.Background(), st, testLogger(&log), files, mmaps, xmarks); err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(loadedDocs(log.String()), " "); got != want {
			t.Fatalf("round %d: logged order:\n got %s\nwant %s", round, got, want)
		}
		var listed []string
		for _, s := range st.List() {
			listed = append(listed, s.ID)
		}
		if got := strings.Join(listed, " "); got != want {
			t.Fatalf("round %d: /docs order:\n got %s\nwant %s", round, got, want)
		}
	}
}

// flipPayloadByte corrupts the first payload byte of an XQO2 file, which
// its open reports as a checksum mismatch.
func flipPayloadByte(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	count := int(binary.LittleEndian.Uint32(b[16:]))
	b[(24+24*count+63)&^63] ^= 0x5a
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestPreloadFirstFailureInFlagOrder: with two bad files among eight,
// the error is the earlier one's however the workers interleave, and
// nothing after it is reported as loaded — two bad XML files among the
// -load documents, or two corrupt XQO2 files among the -mmap ones, with
// a bad -xmark spec behind them.
func TestPreloadFirstFailureInFlagOrder(t *testing.T) {
	badXML := preloadFiles(t, 8)
	for _, bad := range []int{2, 6} {
		path := strings.SplitN(badXML[bad], "=", 2)[1]
		if err := os.WriteFile(path, []byte(fmt.Sprintf("<r><bad%d></r>", bad)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	badXQO2 := mappedCorpus(t, 8, 0.001)
	for _, bad := range []string{"m003", "m006"} {
		flipPayloadByte(t, filepath.Join(badXQO2, bad+".xqo2"))
	}
	for _, tc := range []struct {
		name                 string
		loads, mmaps, xmarks []string
		says                 []string
		logged               string
	}{
		{"load", badXML, []string{badXQO2}, []string{"x=0.001"}, []string{`"d2"`, "bad2"}, "d0 d1"},
		{"mmap", preloadFiles(t, 2), []string{badXQO2}, []string{"x=-1"}, []string{`"m003"`, "checksum mismatch"}, "d0 d1 m000 m001 m002"},
	} {
		for round := 0; round < 20; round++ {
			var log logBuf
			err := preload(context.Background(), store.New(), testLogger(&log), tc.loads, tc.mmaps, tc.xmarks)
			for _, w := range tc.says {
				if err == nil || !strings.Contains(err.Error(), w) {
					t.Fatalf("%s: err = %v, want one saying %s", tc.name, err, strings.Join(tc.says, " and "))
				}
			}
			if got := strings.Join(loadedDocs(log.String()), " "); got != tc.logged {
				t.Fatalf("%s: logged %q before failing, want %q", tc.name, got, tc.logged)
			}
		}
	}
}

// TestPreloadCancel: cancelling mid-preload returns without starting the
// remaining documents, and no worker outlives the call. What
// cancellation guarantees is counted from the instant of the cancel: no
// worker takes a job after it, so each can only finish the one it holds.
// (How far the workers had run ahead of the in-order logger by then is
// timing, and is not asserted.) A mapped document is published by
// preload itself, which checks for cancellation before each one, so for
// -mmap jobs no document at all is published after the cancel.
func TestPreloadCancel(t *testing.T) {
	var xmarks []string
	for i := 0; i < 200; i++ {
		xmarks = append(xmarks, fmt.Sprintf("x%03d=0.01", i))
	}
	for _, tc := range []struct {
		name          string
		mmaps, xmarks []string
		slack         int // documents a worker may still publish after the cancel
	}{
		{"xmark", nil, xmarks, runtime.GOMAXPROCS(0)},
		{"mmap", []string{mappedCorpus(t, 200, 0.001)}, nil, 0},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		// Cancel from inside the first "loaded document" log line.
		st := store.New()
		log := &cancelOnWrite{cancel: cancel, published: st.Len}
		before := runtime.NumGoroutine()
		start := time.Now()
		err := preload(ctx, st, testLogger(log), nil, tc.mmaps, tc.xmarks)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", tc.name, err)
		}
		if took := time.Since(start); took > 5*time.Second {
			t.Errorf("%s: cancelled preload took %v", tc.name, took)
		}
		loaded := st.Len()
		if loaded == 0 || loaded >= 200 || loaded > log.atCancel+tc.slack {
			t.Errorf("%s: %d of 200 documents loaded, %d of them by the cancellation: %d more may be published after it",
				tc.name, loaded, log.atCancel, tc.slack)
		}
		// A worker's wg.Done runs before the goroutine is gone: give the
		// scheduler a moment to retire what preload already waited for.
		after := runtime.NumGoroutine()
		for wait := time.Now().Add(time.Second); after > before && time.Now().Before(wait); after = runtime.NumGoroutine() {
			time.Sleep(time.Millisecond)
		}
		if after > before {
			t.Errorf("%s: %d goroutines before preload, %d after", tc.name, before, after)
		}
		if st.Len() != loaded {
			t.Errorf("%s: a document was published after preload returned", tc.name)
		}
	}
}

// cancelOnWrite cancels at its first write and records how many
// documents were published by then — counted after the cancel, so a
// worker that published between the two is counted here, not against
// the one-more-each bound.
type cancelOnWrite struct {
	once      sync.Once
	cancel    context.CancelFunc
	published func() int
	atCancel  int
	first     func() // if set, runs before the cancel
}

func (c *cancelOnWrite) Write(p []byte) (int, error) {
	c.once.Do(func() {
		if c.first != nil {
			c.first()
		}
		c.cancel()
		c.atCancel = c.published()
	})
	return len(p), nil
}

// TestPreloadHotSet pins what is hot after preloading a corpus larger
// than the resident budget: exactly the last k files in flag order, on
// every run, whichever worker opened which file first — DESIGN
// "Preload": the flag order is the budget's first LRU order. A charged
// mapping is read without a map fault.
func TestPreloadHotSet(t *testing.T) {
	const n, k = 24, 8
	mdir := mappedCorpus(t, n, 0.001)
	fi, err := os.Stat(filepath.Join(mdir, "m000.xqo2"))
	if err != nil {
		t.Fatal(err)
	}
	var hot []string
	for i := n - k; i < n; i++ {
		hot = append(hot, fmt.Sprintf("m%03d", i))
	}
	for round := 0; round < 20; round++ {
		st := store.New()
		st.SetResidentBudget(k * fi.Size())
		if err := preload(context.Background(), st, testLogger(io.Discard), nil, []string{mdir}, nil); err != nil {
			t.Fatal(err)
		}
		if got, want := st.Mapped().ChargedBytes, int64(k)*fi.Size(); got != want {
			t.Fatalf("round %d: %d bytes charged, want %d (%v)", round, got, want, hot)
		}
		for _, id := range hot {
			faults := st.Mapped().MapFaults
			if _, ok := st.Get(id); !ok || st.Mapped().MapFaults != faults {
				t.Fatalf("round %d: %s is not hot; the hot set should be %v", round, id, hot)
			}
		}
	}
}

// BenchmarkPreloadMapped is point-lookup's set-up in process: 256 XMark
// 0.002 files preloaded from one -mmap directory under a resident budget
// of a quarter of the corpus, logging at warn as the benchmark's daemon
// does.
func BenchmarkPreloadMapped(b *testing.B) {
	const n = 256
	mdir := mappedCorpus(b, n, 0.002)
	fi, err := os.Stat(filepath.Join(mdir, "m000.xqo2"))
	if err != nil {
		b.Fatal(err)
	}
	logger := slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelWarn}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := store.New()
		st.SetResidentBudget(n * fi.Size() / 4)
		if err := preload(context.Background(), st, logger, nil, []string{mdir}, nil); err != nil {
			b.Fatal(err)
		}
		// The last round's mappings are unmapped by their finalizers,
		// outside the timed region.
		b.StopTimer()
		runtime.GC()
		b.StartTimer()
	}
}
