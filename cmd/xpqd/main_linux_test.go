package main

import (
	"context"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/store"
)

// mappedIn lists the files in dir the process has mapped, by base name,
// from /proc/self/maps.
func mappedIn(t *testing.T, dir string) []string {
	t.Helper()
	b, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, line := range strings.Split(string(b), "\n") {
		if _, path, ok := strings.Cut(line, dir+string(filepath.Separator)); ok {
			names[path] = true
		}
	}
	return slices.Sorted(maps.Keys(names))
}

// waitMapped waits up to ten seconds for the process to map n files of
// dir, and reports whether it did.
func waitMapped(t *testing.T, dir string, n int) bool {
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if len(mappedIn(t, dir)) == n {
			return true
		}
	}
	return false
}

// TestPreloadUnmapsUnpublished: a file preload opened and did not
// publish — because a document before it failed, or because preload was
// cancelled — is unmapped by the time preload returns, not left to the
// mapping's finalizer. The collector is off for the test, so no finalizer
// runs: whatever is no longer mapped, preload unmapped.
func TestPreloadUnmapsUnpublished(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Two workers: in the failure case one is held on the failing job
	// while the other opens every mapped file.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const n = 32

	t.Run("failure", func(t *testing.T) {
		mdir := mappedCorpus(t, n, 0.001)
		// The -load file is a named pipe: the worker that takes it blocks
		// opening it until the test opens the other end, and the document
		// it then reads is empty, which fails first in flag order.
		fifo := filepath.Join(t.TempDir(), "pipe.xml")
		if err := syscall.Mkfifo(fifo, 0o600); err != nil {
			t.Fatal(err)
		}
		st := store.New()
		errc := make(chan error, 1)
		go func() {
			errc <- preload(context.Background(), st, testLogger(io.Discard), []string{"pipe=" + fifo}, []string{mdir}, nil)
		}()
		opened := waitMapped(t, mdir, n)
		w, err := os.OpenFile(fifo, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		w.Close()
		if err := <-errc; err == nil || !strings.Contains(err.Error(), `"pipe"`) {
			t.Fatalf("err = %v, want the load error of pipe", err)
		}
		if !opened {
			t.Fatalf("the mapped files were not all opened while the load was held")
		}
		if got := mappedIn(t, mdir); len(got) != 0 || st.Len() != 0 {
			t.Errorf("after the failure %d documents are published and %v still mapped, want none", st.Len(), got)
		}
	})

	t.Run("cancel", func(t *testing.T) {
		mdir := mappedCorpus(t, n, 0.001)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		st := store.New()
		// The first "loaded document" line waits until every file is open,
		// then cancels: the rest are opened and never published.
		opened := false
		log := &cancelOnWrite{cancel: cancel, published: st.Len, first: func() { opened = waitMapped(t, mdir, n) }}
		if err := preload(ctx, st, testLogger(log), nil, []string{mdir}, nil); err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if !opened {
			t.Fatalf("the mapped files were not all opened before the cancel")
		}
		if got := mappedIn(t, mdir); st.Len() != 1 || !slices.Equal(got, []string{"m000.xqo2"}) {
			t.Errorf("after the cancel %d documents are published and %v mapped, want m000.xqo2 alone", st.Len(), got)
		}
	})
}
