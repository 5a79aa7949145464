//go:build unix

package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/store"
)

// TestPreloadCancel: cancelling mid-preload returns without starting the
// remaining documents, and no worker outlives the call. What
// cancellation guarantees is counted from the instant of the cancel: no
// worker takes a job after it, so each can only finish the one it holds.
// (How far the workers had run ahead of the in-order logger by then is
// timing, and is not asserted.) -mmap jobs publish on their worker as
// -xmark jobs do, so both may publish one document a worker after it.
// Opening a small file is quicker than writing a log line, so the mmap
// case holds every worker at a FIFO after the first document until the
// cancel has landed; otherwise they could open all 200 files before it.
func TestPreloadCancel(t *testing.T) {
	var xmarks []string
	for i := 0; i < 200; i++ {
		xmarks = append(xmarks, fmt.Sprintf("x%03d=0.01", i))
	}
	slack := runtime.GOMAXPROCS(0) // documents the workers may still publish after the cancel
	mdir := mappedCorpus(t, 200, 0.001)
	for _, tc := range []struct {
		name          string
		mmaps, xmarks []string
		release       func()
	}{
		{"xmark", nil, xmarks, nil},
		{"mmap", []string{mdir}, nil, holdWorkers(t, mdir, "m000", slack)},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		// Cancel from inside the first "loaded document" log line.
		st := store.New()
		log := &cancelOnWrite{cancel: cancel, published: st.Len, release: tc.release}
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
		if loaded == 0 || loaded >= 200 || loaded > log.atCancel+slack {
			t.Errorf("%s: %d of 200 documents loaded, %d of them by the cancellation: %d more may be published after it",
				tc.name, loaded, log.atCancel, slack)
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

// holdWorkers puts n FIFOs in dir, named to sort right after first's
// file, so that a preload worker taking one blocks in its open until
// release opens them all for writing. They stay open until the test
// ends, so a worker that reaches one later does not block either; its
// open then fails as an empty file would.
func holdWorkers(t *testing.T, dir, first string, n int) (release func()) {
	var fifos []string
	for i := 0; i < n; i++ {
		p := filepath.Join(dir, fmt.Sprintf("%s_hold%d.xqo2", first, i))
		if err := syscall.Mkfifo(p, 0o600); err != nil {
			t.Fatal(err)
		}
		fifos = append(fifos, p)
	}
	return func() {
		for _, p := range fifos {
			// Read-write does not wait for a reader, as write-only would.
			f, err := os.OpenFile(p, os.O_RDWR, 0)
			if err != nil {
				t.Error(err)
				continue
			}
			t.Cleanup(func() { f.Close() })
		}
	}
}

// cancelOnWrite cancels at its first write and records how many
// documents were published by then — counted after the cancel, so a
// worker that published between the two is counted here, not against
// the one-more-each bound — and then releases the workers it held.
type cancelOnWrite struct {
	once      sync.Once
	cancel    context.CancelFunc
	published func() int
	atCancel  int
	release   func()
}

func (c *cancelOnWrite) Write(p []byte) (int, error) {
	c.once.Do(func() {
		c.cancel()
		c.atCancel = c.published()
		if c.release != nil {
			c.release()
		}
	})
	return len(p), nil
}
