package main

import (
	"bytes"
	"context"
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

	"repro/internal/shard"
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
		"addr", "allow-file-loads", "cache-bytes", "cache-bytes-total",
		"cache-size", "cursor-ttl", "flight-records", "load", "log-level", "mmap",
		"pprof", "resident-budget", "shards", "slow-query-ms", "stream-chunk",
		"verify-resident", "workers", "xmark",
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
		st := shard.NewStore(2)
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

// TestPreloadOrder: documents built concurrently are still logged, and
// listed by /docs, in flag order — -load, then -mmap, then -xmark.
func TestPreloadOrder(t *testing.T) {
	files := preloadFiles(t, 8)
	mdir := t.TempDir()
	for _, id := range []string{"m0", "m1", "m2"} {
		if err := store.SaveXQO2File(filepath.Join(mdir, id+".xqo2"), xmark.Generate(xmark.Config{Scale: 0.001, Seed: 1})); err != nil {
			t.Fatal(err)
		}
	}
	xmarks := []string{"x0=0.004", "x1=0.001", "x2=0.002:5"}
	var log logBuf
	st := shard.NewStore(4)
	if err := preload(context.Background(), st, testLogger(&log), files, []string{mdir}, xmarks); err != nil {
		t.Fatal(err)
	}
	want := "d0 d1 d2 d3 d4 d5 d6 d7 m0 m1 m2 x0 x1 x2"
	if got := strings.Join(loadedDocs(log.String()), " "); got != want {
		t.Errorf("logged order:\n got %s\nwant %s", got, want)
	}
	var listed []string
	for _, s := range st.List() {
		listed = append(listed, s.ID)
	}
	if got := strings.Join(listed, " "); got != want {
		t.Errorf("/docs order:\n got %s\nwant %s", got, want)
	}
}

// TestPreloadFirstFailureInFlagOrder: with two bad files among eight,
// the error is the earlier one's however the workers interleave, and
// nothing after it is reported as loaded.
func TestPreloadFirstFailureInFlagOrder(t *testing.T) {
	files := preloadFiles(t, 8)
	for _, bad := range []int{2, 6} {
		path := strings.SplitN(files[bad], "=", 2)[1]
		if err := os.WriteFile(path, []byte(fmt.Sprintf("<r><bad%d></r>", bad)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 20; round++ {
		var log logBuf
		err := preload(context.Background(), shard.NewStore(4), testLogger(&log), files, nil, []string{"x=0.001"})
		if err == nil || !strings.Contains(err.Error(), `"d2"`) || !strings.Contains(err.Error(), "bad2") {
			t.Fatalf("err = %v, want the parse error of d2", err)
		}
		if got := strings.Join(loadedDocs(log.String()), " "); got != "d0 d1" {
			t.Fatalf("logged %q before failing, want d0 d1", got)
		}
	}
}

// TestPreloadCancel: cancelling mid-preload returns without starting the
// remaining documents, and no worker outlives the call. What
// cancellation guarantees is counted from the instant of the cancel: no
// worker takes a job after it, so each can only finish the one it holds.
// (How far the workers had run ahead of the in-order logger by then is
// timing, and is not asserted.)
func TestPreloadCancel(t *testing.T) {
	var xmarks []string
	for i := 0; i < 200; i++ {
		xmarks = append(xmarks, fmt.Sprintf("x%03d=0.01", i))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel from inside the first "loaded document" log line.
	st := shard.NewStore(4)
	log := &cancelOnWrite{cancel: cancel, published: st.Len}
	before := runtime.NumGoroutine()
	start := time.Now()
	err := preload(ctx, st, testLogger(log), nil, nil, xmarks)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("cancelled preload took %v", took)
	}
	loaded := st.Len()
	if loaded == 0 || loaded >= len(xmarks) || loaded > log.atCancel+runtime.GOMAXPROCS(0) {
		t.Errorf("%d of %d documents loaded, %d of them by the cancellation: each of %d workers may finish one more",
			loaded, len(xmarks), log.atCancel, runtime.GOMAXPROCS(0))
	}
	// A worker's wg.Done runs before the goroutine is gone: give the
	// scheduler a moment to retire what preload already waited for.
	after := runtime.NumGoroutine()
	for wait := time.Now().Add(time.Second); after > before && time.Now().Before(wait); after = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if after > before {
		t.Errorf("%d goroutines before preload, %d after", before, after)
	}
	if st.Len() != loaded {
		t.Errorf("a document was published after preload returned")
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
}

func (c *cancelOnWrite) Write(p []byte) (int, error) {
	c.once.Do(func() {
		c.cancel()
		c.atCancel = c.published()
	})
	return len(p), nil
}
