// BenchmarkAutoSelector pins the cost contract of the observed-latency
// Auto selector (PR 7): the full paper-query matrix over three XMark
// sizes, each query evaluated through the Auto cursor path under two
// regimes —
//
//	static:   the paper's §5 count heuristic decides every time (the
//	          reference arm, core.AutoConfig{Adaptive: false}; no
//	          daemon mode runs it); the selector still measures so the
//	          bookkeeping cost is identical;
//	adaptive: the per-shape EWMA model decides, with the default
//	          epsilon-greedy exploration floor.
//
// Both variants are warmed past the probe phase before the timer
// starts, so the adaptive rows measure the steady state: a learned
// table lookup plus the same observe() both modes pay. BENCH_auto.json
// is seeded from this benchmark and CI gates the paired geomean of
// adaptive/static ns/op at ≤ 1.00 — learning from observed latency
// must pay for itself on the paper's own workload.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/qcache"
	"repro/internal/xmark"
)

// autoWarmup runs enough Auto evaluations to exhaust the probe phase of
// every eligible candidate and settle the EWMA estimates.
const autoWarmup = 12

func BenchmarkAutoSelector(b *testing.B) {
	for _, scale := range steadyScales {
		w := steadyWorkload(b, scale)
		for _, q := range xmark.Queries() {
			name := fmt.Sprintf("s=%g/%s", scale, q.ID)
			for _, mode := range []struct {
				name     string
				adaptive bool
			}{{"static", false}, {"adaptive", true}} {
				b.Run(name+"/"+mode.name, func(b *testing.B) {
					eng := core.NewWithIndex(w.Doc, w.Index, qcache.New(qcache.DefaultCapacity), "")
					eng.ConfigureAuto(core.AutoConfig{Adaptive: mode.adaptive})
					for i := 0; i < autoWarmup; i++ {
						cur, err := eng.EvalCursor(q.XPath, core.Auto)
						if err != nil {
							b.Fatal(err)
						}
						_ = cur.Count()
						cur.Close()
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						cur, err := eng.EvalCursor(q.XPath, core.Auto)
						if err != nil {
							b.Fatal(err)
						}
						_ = cur.Count()
						cur.Close()
					}
				})
			}
		}
	}
}
