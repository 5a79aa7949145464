// Command xpqd is the XPath query daemon: an HTTP/JSON front end over
// the multi-document query service (document store + compiled-query LRU
// + batch evaluation + metrics).
//
//	xpqd [-addr localhost:8714] [-cache-size 1024] [-workers N]
//	     [-allow-file-loads] [-log-level info]
//	     [-slow-query-ms N] [-pprof] [-cursor-ttl 60s]
//	     [-verify-resident] [-load id=file.xml ...]
//	     [-mmap id=file.xqo2 | -mmap corpusdir ...] [-xmark id=scale[:seed] ...]
//
// Every document lives in one store and shares one compiled-query LRU
// of -cache-size entries; no compiled query exceeds 64 states. The
// kernel pages -mmap documents like any mapped file. -shards and
// -resident-budget are still accepted and ignored. GET /stats reports
// cache, lock-wait and latency metrics.
//
// Endpoints:
//
//	POST   /query      {"doc":"xm","query":"//listitem//keyword","strategy":"auto"}
//	                   optional "limit" + "cursor" page the preorder answer; the
//	                   response's "next" token resumes against the generation it
//	                   pinned (410 once that generation is garbage-collected);
//	                   "asof"/?asof=<gen> time-travels to an older generation;
//	                   ?explain=1 attaches a span-tree profile
//	POST   /query/stream  same body; an NDJSON header line, chunk lines of up
//	                   to 512 nodes (service.DefaultStreamChunk) and a trailer,
//	                   flushed per chunk so large answers stream in bounded memory
//	POST   /batch      {"requests":[{...},{...}]}
//	GET    /docs       list resident documents with stats
//	POST   /docs       {"id":"xm","xmark_scale":0.1} | {"id":"d","xml":"<r/>"} |
//	                   {"id":"d","file":"doc.xml"} (requires -allow-file-loads)
//	PATCH  /docs/{id}  {"op":"insert|delete|replace","node":N,"before":M,
//	                   "xml":"<frag/>","base_gen":G} — mutate a subtree,
//	                   publishing a new MVCC generation with incrementally
//	                   maintained indexes; open cursors and asof readers keep
//	                   their generation; base_gen makes it compare-and-swap (409)
//	DELETE /docs/{id}  evict a document
//	GET    /stats      store + cache + latency metrics
//	GET    /metrics    the same numbers in Prometheus text exposition
//	GET    /debug/queries  flight recorder: last queries, ?slow=1 filters
//	GET    /healthz    liveness
//	GET    /debug/pprof/   profiling (only with -pprof)
//
// Logs are structured (log/slog, text format): every query carries its
// request id and document; queries at or above -slow-query-ms
// are logged at Warn with their engine counters. -log-level debug logs
// every query.
//
// SIGINT/SIGTERM drain in-flight requests and exit (graceful shutdown),
// whenever they arrive: the handler is installed before preload starts.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/store"
)

// multiFlag collects repeated flag occurrences.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// parseLevel maps a -log-level value to a slog.Level.
func parseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", s)
}

// errUsage marks command-line mistakes (exit status 2, like the flag
// package's own ExitOnError).
var errUsage = errors.New("usage")

func main() {
	// The handler is installed before anything else runs, so a signal
	// that arrives during preload or before the listener is up drains
	// like any other instead of killing the process.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	err := run(ctx, os.Args[1:], os.Stderr)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		os.Exit(1)
	}
}

// run is the whole daemon: parse args, preload, serve until ctx is
// cancelled, drain. It returns nil after a clean drain — including a
// cancellation that arrives before the listener exists. Failures are
// logged to stderr before they are returned.
func run(ctx context.Context, args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("xpqd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	// TestFlagList pins this list, so a new knob shows up in review.
	var (
		addr        = fs.String("addr", "localhost:8714", "listen address")
		cacheSize   = fs.Int("cache-size", service.DefaultCacheSize, "compiled-query LRU capacity (entries)")
		workers     = fs.Int("workers", 0, "batch worker pool size (0 = GOMAXPROCS)")
		allowFiles  = fs.Bool("allow-file-loads", false, "let POST /docs read server-side file paths")
		logLevel    = fs.String("log-level", "info", "log verbosity: debug, info, warn, error (debug logs every query)")
		slowQueryMS = fs.Int64("slow-query-ms", 100, "flag queries at or above this many milliseconds as slow (0 disables)")
		pprofFlag   = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		cursorTTL   = fs.Duration("cursor-ttl", service.DefaultCursorTTL, "how long an unconsumed page/stream cursor keeps its MVCC generation alive")
		verifyRes   = fs.Bool("verify-resident", false, "structurally validate every value in -mmap files at open (for files not written by this server; checksums are always verified)")
		loads       multiFlag
		mmaps       multiFlag
		xmarks      multiFlag
	)
	fs.Int("shards", 1, "ignored: the store has one partition")
	fs.Int64("resident-budget", 0, "ignored: the kernel pages mmap'd documents")
	fs.Var(&loads, "load", "preload an XML document, id=path (repeatable)")
	fs.Var(&mmaps, "mmap", "open an XQO2 resident file zero-copy, id=path, or a directory of .xqo2 files (repeatable)")
	fs.Var(&xmarks, "xmark", "pregenerate an XMark document, id=scale[:seed] (repeatable)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	level, err := parseLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(stderr, "xpqd: %v\n", err)
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	logger := slog.New(slog.NewTextHandler(stderr, &slog.HandlerOptions{Level: level}))

	st := shard.NewStore(1)
	st.SetVerifyResident(*verifyRes)
	if err := preload(ctx, st.Store, logger, loads, mmaps, xmarks); err != nil {
		if ctx.Err() != nil {
			logger.Info("cancelled during preload")
			return nil
		}
		logger.Error("preload failed", slog.Any("err", err))
		return err
	}
	svc := service.New(st, service.Options{
		CacheSize: *cacheSize,
		Workers:   *workers,
		SlowQuery: time.Duration(*slowQueryMS) * time.Millisecond,
		Logger:    logger,
		CursorTTL: *cursorTTL,
	})

	srv := &http.Server{
		Handler: service.NewHandler(svc, service.HandlerOptions{
			AllowFileLoads: *allowFiles,
			EnablePprof:    *pprofFlag,
		}),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", slog.Any("err", err))
		return err
	}
	logger.Info("listening",
		slog.String("addr", ln.Addr().String()),
		slog.Int("documents", st.Len()),
		slog.Int64("slow_query_ms", *slowQueryMS),
		slog.Bool("pprof", *pprofFlag))
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		logger.Error("server failed", slog.Any("err", err))
		return err
	case <-ctx.Done():
		logger.Info("draining")
		sctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			logger.Warn("shutdown", slog.Any("err", err))
		}
		<-errc // Serve has returned http.ErrServerClosed: no goroutine outlives run
		logger.Info("bye")
		return nil
	}
}

// preloadJob is one document named on the command line.
type preloadJob struct {
	flag, spec string // as given, for error messages
	id         string
	// load runs on a worker: it builds, generates or opens the document
	// and publishes it.
	load func(*store.Store) (*store.Handle, error)
	// Set by the worker that ran the job, read after done is closed.
	h    *store.Handle
	err  error
	done chan struct{}
}

// planPreload turns the flag values into jobs, in the order they are
// reported: -load, -mmap (a directory expands to its *.xqo2 files, id =
// base name), -xmark. Malformed specs and duplicate ids are rejected
// here, before any document is touched.
func planPreload(loads, mmaps, xmarks []string) ([]*preloadJob, error) {
	var jobs []*preloadJob
	add := func(flag, spec, id string, load func(*store.Store) (*store.Handle, error)) {
		jobs = append(jobs, &preloadJob{flag: flag, spec: spec, id: id, load: load})
	}
	for _, spec := range loads {
		id, path, err := splitSpec(spec, "-load")
		if err != nil {
			return nil, err
		}
		add("-load", spec, id, func(st *store.Store) (*store.Handle, error) { return st.LoadXMLFile(id, path) })
	}
	for _, spec := range mmaps {
		addMapped := func(id, path string) {
			add("-mmap", spec, id, func(st *store.Store) (*store.Handle, error) { return st.LoadMapped(id, path) })
		}
		if fi, err := os.Stat(spec); err == nil && fi.IsDir() {
			entries, err := os.ReadDir(spec)
			if err != nil {
				return nil, fmt.Errorf("-mmap %q: %w", spec, err)
			}
			for _, e := range entries {
				if name := e.Name(); !e.IsDir() && strings.HasSuffix(name, ".xqo2") {
					addMapped(strings.TrimSuffix(name, ".xqo2"), filepath.Join(spec, name))
				}
			}
			continue
		}
		id, path, err := splitSpec(spec, "-mmap")
		if err != nil {
			return nil, err
		}
		addMapped(id, path)
	}
	for _, spec := range xmarks {
		id, arg, err := splitSpec(spec, "-xmark")
		if err != nil {
			return nil, err
		}
		scaleStr, seedStr, hasSeed := strings.Cut(arg, ":")
		scale, err := strconv.ParseFloat(scaleStr, 64)
		if err != nil {
			return nil, fmt.Errorf("-xmark %q: bad scale: %w", spec, err)
		}
		seed := int64(1)
		if hasSeed {
			if seed, err = strconv.ParseInt(seedStr, 10, 64); err != nil {
				return nil, fmt.Errorf("-xmark %q: bad seed: %w", spec, err)
			}
		}
		add("-xmark", spec, id, func(st *store.Store) (*store.Handle, error) { return st.GenerateXMark(id, scale, seed) })
	}
	first := map[string]*preloadJob{}
	for _, j := range jobs {
		if f, dup := first[j.id]; dup {
			return nil, fmt.Errorf("duplicate document id %q: %s %q and %s %q", j.id, f.flag, f.spec, j.flag, j.spec)
		}
		first[j.id] = j
	}
	return jobs, nil
}

// preload loads every -load/-mmap/-xmark document before serving, so
// first queries never pay parse, index or checksum latency. The jobs run
// on up to GOMAXPROCS workers, handed out in flag order, and are
// reported — logged, or failed — in flag order whatever order they
// finish in. A worker parses, generates or opens a document and
// publishes it. Preloading a whole corpus directory is how the daemon
// serves more documents than fit in RAM, with the kernel paging each
// document's working set on demand. Once ctx is cancelled no further
// document is started; preload returns when the ones under way are done,
// so no worker outlives it.
func preload(ctx context.Context, st *store.Store, logger *slog.Logger, loads, mmaps, xmarks []string) error {
	jobs, err := planPreload(loads, mmaps, xmarks)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, j := range jobs {
		j.done = make(chan struct{})
	}
	var (
		wg   sync.WaitGroup
		next atomic.Int64
		// stop is set once preload is going to fail: jobs not yet handed
		// out are left alone. A job handed out always runs, and every
		// job before a failed one has been handed out already, so the
		// first failure in flag order is always one that ran and every
		// job the loop below waits for closes its done.
		stop atomic.Bool
	)
	for w := min(runtime.GOMAXPROCS(0), len(jobs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if stop.Load() || ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				j := jobs[i]
				if j.h, j.err = j.load(st); j.err != nil {
					stop.Store(true)
				}
				close(j.done)
			}
		}()
	}
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()
	for _, j := range jobs {
		select {
		case <-j.done:
		case <-ctx.Done():
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if j.err != nil {
			return j.err
		}
		logLoaded(logger, j.h)
	}
	return nil
}

func splitSpec(spec, flagName string) (id, rest string, err error) {
	id, rest, ok := strings.Cut(spec, "=")
	if !ok || id == "" || rest == "" {
		return "", "", fmt.Errorf("%s %q: want id=value", flagName, spec)
	}
	return id, rest, nil
}

func logLoaded(logger *slog.Logger, h *store.Handle) {
	logger.Info("loaded document",
		slog.String("doc", h.ID),
		slog.Int("nodes", h.Stats.Nodes),
		slog.Int("labels", h.Stats.Labels),
		slog.Int64("mem_bytes", h.Stats.MemBytes),
		slog.String("source", string(h.Stats.Source)))
}
