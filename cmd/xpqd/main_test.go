package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
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
		"addr", "allow-file-loads", "cache-size", "cursor-ttl", "load",
		"log-level", "mmap", "pprof", "resident-budget", "shards",
		"slow-query-ms", "verify-resident", "workers", "xmark",
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

var listeningRE = regexp.MustCompile(`msg=listening addr=(\S+) documents=(\d+)`)

// serve runs the daemon with args on a free local port until it logs
// its listening line, and returns the address, the number of documents
// it preloaded, and a stop function that cancels it and fails the test
// unless it drains cleanly.
func serve(t *testing.T, args ...string) (addr, documents string, stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var log logBuf
	done := make(chan error, 1)
	go func() { done <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), &log) }()
	for deadline := time.Now().Add(10 * time.Second); addr == ""; time.Sleep(5 * time.Millisecond) {
		if m := listeningRE.FindStringSubmatch(log.String()); m != nil {
			addr, documents = m[1], m[2]
		} else if time.Now().After(deadline) {
			cancel()
			t.Fatalf("daemon never listened:\n%s", log.String())
		}
		select {
		case err := <-done:
			cancel()
			t.Fatalf("daemon exited before listening: %v\n%s", err, log.String())
		default:
		}
	}
	return addr, documents, func() {
		t.Helper()
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
}

// TestRunCancelAfterListen: a serving daemon drains and returns nil
// when its context is cancelled.
func TestRunCancelAfterListen(t *testing.T) {
	addr, _, stop := serve(t, "-xmark", "a=0.001")
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: status %d", resp.StatusCode)
	}
	stop()
}

// TestHarnessFlagsParse: the argument shapes cmd/xpqbench hands the
// daemon still parse, preload and listen — the mapped corpus beside the
// ignored -resident-budget and a -cursor-ttl, the -load documents, and
// the ignored -shards.
func TestHarnessFlagsParse(t *testing.T) {
	mdir := mappedCorpus(t, 3, 0.001)
	loads := preloadFiles(t, 2)
	for _, tc := range []struct {
		args      []string
		documents string
	}{
		{[]string{"-mmap", mdir, "-resident-budget", "12345", "-cursor-ttl", "2s"}, "3"},
		{[]string{"-load", loads[0], "-load", loads[1]}, "2"},
		{[]string{"-shards", "4", "-load", loads[0]}, "1"},
	} {
		_, documents, stop := serve(t, tc.args...)
		stop()
		if documents != tc.documents {
			t.Errorf("%v: listening with %s documents, want %s", tc.args, documents, tc.documents)
		}
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

// TestPreloadMappedBytes pins /stats mapped.mapped_bytes: after preload
// it is the sum of the -mmap files' sizes (a -load document adds
// nothing), and once every mapped document is evicted it reads 0.
func TestPreloadMappedBytes(t *testing.T) {
	mdir := mappedCorpus(t, 4, 0.001)
	other := filepath.Join(t.TempDir(), "other.xqo2")
	if err := store.SaveXQO2File(other, xmark.Generate(xmark.Config{Scale: 0.002, Seed: 2})); err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(mdir, "*.xqo2"))
	if err != nil {
		t.Fatal(err)
	}
	var mapped []string // ids: the files' base names
	var want int64
	for _, path := range append(paths, other) {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		mapped = append(mapped, strings.TrimSuffix(fi.Name(), ".xqo2"))
		want += fi.Size()
	}
	st := store.New()
	if err := preload(context.Background(), st, testLogger(io.Discard), preloadFiles(t, 1), []string{mdir, "other=" + other}, nil); err != nil {
		t.Fatal(err)
	}
	h := service.NewHandler(service.New(&shard.Store{Store: st}, service.Options{}), service.HandlerOptions{})
	mappedBytes := func() int64 {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
		var stats struct {
			Mapped struct {
				MappedBytes *int64 `json:"mapped_bytes"`
			} `json:"mapped"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil || stats.Mapped.MappedBytes == nil {
			t.Fatalf("/stats has no mapped.mapped_bytes (%v): %s", err, rec.Body)
		}
		return *stats.Mapped.MappedBytes
	}
	if got := mappedBytes(); got != want {
		t.Fatalf("after preload mapped_bytes = %d, want the files' %d", got, want)
	}
	for _, id := range mapped {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("DELETE", "/docs/"+id, nil))
		if rec.Code != http.StatusNoContent {
			t.Fatalf("DELETE /docs/%s: status %d", id, rec.Code)
		}
	}
	if got := mappedBytes(); got != 0 || st.Len() != 1 {
		t.Fatalf("with every mapped document evicted mapped_bytes = %d over %d documents, want 0 over the -load one", got, st.Len())
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

// BenchmarkPreloadMapped is point-lookup's set-up in process: 256 XMark
// 0.002 files preloaded from one -mmap directory, logging at warn as the
// benchmark's daemon does.
func BenchmarkPreloadMapped(b *testing.B) {
	const n = 256
	mdir := mappedCorpus(b, n, 0.002)
	logger := slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelWarn}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := preload(context.Background(), store.New(), logger, nil, []string{mdir}, nil); err != nil {
			b.Fatal(err)
		}
		// The last round's mappings are unmapped by their finalizers,
		// outside the timed region.
		b.StopTimer()
		runtime.GC()
		b.StartTimer()
	}
}
