package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
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
		"addr", "allow-file-loads", "auto-epsilon", "cache-bytes", "cache-bytes-total",
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
