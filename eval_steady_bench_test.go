// BenchmarkEvalSteadyState pins the win of the pooled evaluation
// memory model (PR 5): the full paper-query matrix (Q01-Q15) over
// three XMark sizes, evaluated with the optimized ASTA engine under
// two context regimes —
//
//	cold: a fresh asta.Context per evaluation, the pre-pool behavior
//	      (every run rebuilds interning tables, memo maps, arenas,
//	      cursors from scratch);
//	warm: one Context reused across evaluations, the serving layers'
//	      steady state (memo world persists, arenas rewind in place).
//
// Run with -benchmem: the warm rows are the contract — near-zero
// allocs/op and ≥30% less ns/op than cold on the memo-dominated
// queries. BENCH_eval.json is seeded from this benchmark and the CI
// bench smoke gates the warm-path allocation ceiling.
//
// The warm-traced variant adds the per-query observability work the
// serving layers now do on every (non-explain) request: the nil-trace
// span calls threaded through the engine, the counter lifts, and one
// flight-recorder admission. BENCH_obsv.json is seeded from it and CI
// gates the paired geomean warm-traced/warm at 1.05 with the same ≤5
// allocs/op ceiling — observability must not give back the pooled
// memory model. A warm iteration evaluates a row as many times as it
// takes to last 10 µs, so the ceiling holds over all of them. The two
// warm variants of a row are read in turn, steadyReadings times each
// (Go names the repeats #01, #02, …), so both see the same stretch of
// a noisy machine; the gate runs -count 1 and folds the readings.
package repro_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/asta"
	"repro/internal/compile"
	"repro/internal/exp"
	"repro/internal/obsv"
	"repro/internal/xmark"
)

// steadyScales are the three XMark sizes of the matrix (~22k, ~110k,
// ~220k nodes).
var steadyScales = []float64{0.01, 0.05, 0.1}

// steadyReadings is how many times each warm variant of a row is read.
const steadyReadings = 15

// steadyIteration is the shortest a warm iteration lasts: one
// evaluation of Q01 or Q10 takes well under a microsecond, and a reading
// of single evaluations that short is mostly the machine's noise.
const steadyIteration = 10 * time.Microsecond

var (
	steadyMu        sync.Mutex
	steadyWorkloads = map[float64]*exp.Workload{}
)

func steadyWorkload(b *testing.B, scale float64) *exp.Workload {
	b.Helper()
	steadyMu.Lock()
	defer steadyMu.Unlock()
	w, ok := steadyWorkloads[scale]
	if !ok {
		w = exp.NewWorkload(scale, 1)
		steadyWorkloads[scale] = w
	}
	return w
}

func BenchmarkEvalSteadyState(b *testing.B) {
	for _, scale := range steadyScales {
		w := steadyWorkload(b, scale)
		for _, q := range xmark.Queries() {
			aut, err := compile.Compile(q.XPath, w.Doc.Names())
			if err != nil {
				b.Fatal(err)
			}
			name := fmt.Sprintf("s=%g/%s", scale, q.ID)
			b.Run(name+"/cold", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					_ = aut.Eval(w.Doc, w.Index, asta.Opt())
				}
			})
			// One context serves both warm variants and every reading of
			// them: bound and sized here, outside the measurement, so even
			// -benchtime 1x sees the steady state, and the two variants
			// evaluate over the same arenas at the same addresses.
			ctx := aut.NewContext(asta.Opt())
			_ = ctx.Eval(w.Doc, w.Index)
			// An iteration is reps evaluations, the same count for both
			// variants; ns/op is per evaluation, allocs/op per iteration.
			reps := 0
			for start := time.Now(); reps == 0 || time.Since(start) < steadyIteration; reps++ {
				_ = ctx.Eval(w.Doc, w.Index)
			}
			perEval := func(b *testing.B) {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*reps), "ns/op")
			}
			warm := func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for range reps {
						_ = ctx.Eval(w.Doc, w.Index)
					}
				}
				perEval(b)
			}
			// The always-on observability of the serving path: a nil
			// trace (non-explain requests never allocate one — Begin and
			// End are nil-checked no-ops), counters lifted off the result,
			// one flight-recorder admission.
			flight := obsv.NewFlight(obsv.DefaultFlightRecords, 100*time.Millisecond)
			var tr *obsv.Trace
			rec := obsv.Record{
				Doc:     "xm",
				Query:   q.XPath,
				Outcome: obsv.OutcomeOK,
				Run:     obsv.Run{Strategy: "optimized", QCacheHit: true, CtxPoolHit: true},
			}
			traced := func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for range reps {
						sp := tr.Begin(obsv.SpanEngine)
						tr.End(sp)
						sp = tr.Begin(obsv.SpanCompile)
						tr.End(sp)
						sp = tr.Begin(obsv.SpanRun)
						res := ctx.Eval(w.Doc, w.Index)
						tr.End(sp)
						rec.Work = res.Work
						flight.Add(&rec)
					}
				}
				perEval(b)
			}
			for range steadyReadings {
				b.Run(name+"/warm", warm)
				b.Run(name+"/warm-traced", traced)
			}
		}
	}
}
