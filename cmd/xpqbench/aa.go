package main

import (
	"fmt"
	"io"
	"math"
)

// runAA is the A/A mode: n full runs of every workload by this one
// binary, the workloads alternating so that drift of the machine spreads
// over all of them. Every run uses the same seed, so corpus and request
// order are identical and what differs between runs is the machine —
// unless varySeed is set, which gives run i the seed cfg.seed+i: the
// driver's procedure, whose spread also contains what the order of the
// work adds.
//
// For every workload and metric it prints the median, the quartiles,
// the distance between the quartiles as a share of the median (the
// spread the benchmark's bounds are judged against) and the worst
// deviation of a single run from the median. The runs also form two
// sets, A (runs 0, 2, 4, …) and B (runs 1, 3, 5, …), interleaved in
// time; a table sets their medians side by side, and the last one lists
// every run's end-to-end values. The tables are markdown: AA.md carries
// this output.
func runAA(w io.Writer, ws []*workload, cfg runConfig, n int, varySeed bool) error {
	if n < 2 {
		return fmt.Errorf("-aa needs at least 2 runs")
	}
	values := map[string]map[string][]float64{}
	failed := map[string]int{}
	for _, wl := range ws {
		values[wl.name] = map[string][]float64{}
	}
	for i := 0; i < n; i++ {
		for _, wl := range ws {
			c := cfg
			if varySeed {
				c.seed = cfg.seed + int64(i)
			}
			err := withWatchdog(cfg.jan, wl.name, func() error {
				out, err := runWorkload(wl, c)
				if err != nil {
					return err
				}
				failed[wl.name] += out.failed
				for _, rep := range []*report{out.e2e, out.layers} {
					for name, v := range rep.values {
						values[wl.name][name] = append(values[wl.name][name], v)
					}
				}
				return nil
			})
			if err != nil {
				return fmt.Errorf("%s, run %d: %w", wl.name, i, err)
			}
		}
	}
	table := func(defs []metricDef) {
		fmt.Fprintf(w, "| workload | metric | unit | median | q1 | q3 | (q3-q1)/median | worst run vs median | ops_failed |\n")
		fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|---|\n")
		for _, wl := range ws {
			for _, d := range defs {
				vs := append([]float64(nil), values[wl.name][d.name]...)
				if len(vs) == 0 {
					continue
				}
				q1, q2, q3 := quartiles(vs)
				worst := 0.0
				for _, v := range vs {
					worst = math.Max(worst, ratio(math.Abs(v-q2), q2))
				}
				fmt.Fprintf(w, "| %s | %s | %s | %.6g | %.6g | %.6g | %.2f%% | %.2f%% | %d |\n",
					wl.name, d.name, d.unit, q2, q1, q3, 100*ratio(q3-q1, q2), 100*worst, failed[wl.name])
			}
		}
	}
	if varySeed {
		fmt.Fprintf(w, "End-to-end metrics, %d runs per workload, seeds %d to %d:\n\n", n, cfg.seed, cfg.seed+int64(n)-1)
	} else {
		fmt.Fprintf(w, "End-to-end metrics, %d runs per workload, all with seed %d:\n\n", n, cfg.seed)
	}
	table(endToEnd)
	fmt.Fprintf(w, "\nPer-layer metrics of the same runs (source S):\n\n")
	table(perLayer)

	// Set A against set B: how far the medians of two interleaved sets
	// of runs of the same code lie apart, in the direction that counts
	// as worse.
	fmt.Fprintf(w, "\nSet A (even runs) against set B (odd runs), %d and %d runs:\n\n", (n+1)/2, n/2)
	fmt.Fprintf(w, "| workload | metric | median A | median B | B worse than A by |\n|---|---|---|---|---|\n")
	for _, wl := range ws {
		for _, d := range endToEnd {
			var a, b []float64
			for i, v := range values[wl.name][d.name] {
				if i%2 == 0 {
					a = append(a, v)
				} else {
					b = append(b, v)
				}
			}
			ma, mb := median(a), median(b)
			worse := ratio(mb-ma, ma)
			if d.better == "higher" {
				worse = -worse
			}
			fmt.Fprintf(w, "| %s | %s | %.6g | %.6g | %+.2f%% |\n", wl.name, d.name, ma, mb, 100*worse)
		}
	}

	// Every run made, in the order made.
	fmt.Fprintf(w, "\nEnd-to-end values of every run, in order:\n\n| workload | metric | runs |\n|---|---|---|\n")
	for _, wl := range ws {
		for _, d := range endToEnd {
			fmt.Fprintf(w, "| %s | %s |", wl.name, d.name)
			for _, v := range values[wl.name][d.name] {
				fmt.Fprintf(w, " %.5g", v)
			}
			fmt.Fprintf(w, " |\n")
		}
	}
	return nil
}
