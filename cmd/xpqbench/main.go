// Command xpqbench is the repository's benchmark: it builds cmd/xpqd,
// generates each workload's corpus and request lists from -seed, runs
// the real daemon as a child process and measures it at its socket —
// set-up time, an open phase (a fixed arrival rate, every request timed
// from the instant it was due) and a closed phase (two keep-alive
// connections, each sending its next request when the previous reply is
// fully read) — checks every answer against the step-wise oracle, and
// prints every metric by name. With -trace 1 it instead produces the
// per-layer metrics: a short socket run for the daemon's own counters,
// then an in-process replay of the same request lists with a span around
// every call into a layer. See README.md beside this file.
//
//	go run ./cmd/xpqbench [-workload name] [-seed 1] [-seconds 20] [-trace 0|1]
//	go run ./cmd/xpqbench -aa 10        # spread of every metric over ten runs of one seed
//	go run ./cmd/xpqbench -aa 10 -vary-seed   # … over ten seeds, as the driver runs it
//	go run ./cmd/xpqbench -quick        # the smoke test's sizes
//
// The last line of standard output is one JSON object per workload:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"syscall"
	"time"
)

// runLimit is how long one workload run may take before the harness
// gives up, kills the daemon and exits non-zero.
const runLimit = 170 * time.Second

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload (default: all four)")
		seed         = flag.Int64("seed", 1, "seed of the corpus, the request lists, the zipf draws and the patch sequence")
		seconds      = flag.Int("seconds", 20, "measured seconds per run: half open phase, half closed phase")
		trace        = flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
		quick        = flag.Bool("quick", false, "smoke-test sizes: tiny corpora and half-second phases")
		aa           = flag.Int("aa", 0, "run every workload this many times with -seed and print the spread of each metric")
		varySeed     = flag.Bool("vary-seed", false, "with -aa: run i uses seed+i, as the driver's ten runs do")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 2 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: xpqbench [-workload name] [-seed n] [-seconds n] [-trace 0|1] [-quick] [-aa n [-vary-seed]]")
		os.Exit(2)
	}
	// The driver allocates little but steadily; a lazier collector
	// keeps its pauses out of the latencies it measures.
	debug.SetGCPercent(400)

	jan := newJanitor()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigc
		jan.sweep()
		os.Exit(130)
	}()
	code := 0
	func() {
		// Runs on return and on a panic of this goroutine alike.
		defer jan.sweep()
		if err := run(jan, *workloadName, *seed, *seconds, *trace == 1, *quick, *aa, *varySeed); err != nil {
			fmt.Fprintln(os.Stderr, "xpqbench:", err)
			code = 1
		}
	}()
	os.Exit(code)
}

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}

// buildDaemon compiles cmd/xpqd from the checkout into outDir.
func buildDaemon(root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "bin", "xpqd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/xpqd")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/xpqd: %v\n%s", err, msg)
	}
	return bin, nil
}

// prepare resolves the directories and builds the daemon.
func prepare(jan *janitor) (runConfig, error) {
	root, err := moduleRoot()
	if err != nil {
		return runConfig{}, err
	}
	outDir := filepath.Join(root, "cmd", "xpqbench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return runConfig{}, err
	}
	bin, err := buildDaemon(root, outDir)
	if err != nil {
		return runConfig{}, err
	}
	return runConfig{xpqd: bin, outDir: outDir, jan: jan, progress: os.Stderr}, nil
}

// sized fills in the phase lengths of a run.
func (cfg runConfig) sized(seconds int, trace, quick bool) (runConfig, traceBudget) {
	total := time.Duration(seconds) * time.Second
	cfg.warm, cfg.open, cfg.closed = 3*time.Second, total/2, total/2
	cfg.slice, cfg.clientTimeout = 500*time.Millisecond, 2*time.Second
	tb := traceBudget{replay: total / 4, untraced: total / 10, requests: 4000}
	if trace {
		// The traced run's socket part only feeds counters, which need
		// no long window; the time goes to the in-process replay.
		cfg.warm, cfg.open, cfg.closed = 2*time.Second, total/5, total/5
	}
	if quick {
		cfg.warm, cfg.open, cfg.closed = 100*time.Millisecond, 500*time.Millisecond, 500*time.Millisecond
		cfg.slice = 100 * time.Millisecond
		// A loaded test machine must not turn a slow reply into a
		// failure of the smoke test.
		cfg.clientTimeout = 10 * time.Second
		tb = traceBudget{replay: 500 * time.Millisecond, untraced: 200 * time.Millisecond, requests: 300}
	}
	return cfg, tb
}

// result is the last-line JSON of one workload run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value json.Number `json:"value"`
	Unit  string      `json:"unit"`
}

func resultOf(out *outcome, rep *report) result {
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, d := range rep.defs {
		res.Metrics[d.name] = metricValue{Value: json.Number(formatValue(rep.values[d.name])), Unit: d.unit}
	}
	return res
}

// withWatchdog runs fn under the per-run time limit.
func withWatchdog(jan *janitor, name string, fn func() error) error {
	wd := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "xpqbench: %s did not finish within %v\n", name, runLimit)
		jan.sweep()
		os.Exit(3)
	})
	defer wd.Stop()
	return fn()
}

func run(jan *janitor, name string, seed int64, seconds int, trace, quick bool, aa int, varySeed bool) error {
	ws := workloads()
	if name != "" {
		w, err := findWorkload(name)
		if err != nil {
			return err
		}
		ws = []*workload{w}
	}
	if quick {
		for i, w := range ws {
			ws[i] = w.quickened()
		}
	}
	base, err := prepare(jan)
	if err != nil {
		return err
	}
	cfg, tb := base.sized(seconds, trace, quick)
	cfg.seed = seed
	if aa > 0 {
		return runAA(os.Stdout, ws, cfg, aa, varySeed)
	}
	for _, w := range ws {
		err := withWatchdog(jan, w.name, func() error {
			if trace {
				out, err := runTrace(w, cfg, tb)
				if err != nil {
					return err
				}
				out.layers.print(os.Stdout)
				return printResult(os.Stdout, resultOf(out, out.layers))
			}
			out, err := runWorkload(w, cfg)
			if err != nil {
				return err
			}
			printOutcome(os.Stdout, w.name, out)
			return printResult(os.Stdout, resultOf(out, out.e2e))
		})
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
	}
	return nil
}

func printResult(w io.Writer, res result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
