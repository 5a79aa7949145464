// BenchmarkAutoSelector pins what Auto's route is worth: the full
// paper-query matrix over three XMark sizes, each query evaluated
// through the cursor path under two arms —
//
//	optimized: the ASTA evaluator forced, the engine Auto would run
//	           everywhere if it did not route;
//	auto:      Auto, which sends label chains to the hybrid run, the
//	           rest of the child/descendant fragment to the TDSTA and
//	           everything else to the optimized ASTA.
//
// Both arms are warmed before the timer starts. BENCH_auto.json is
// seeded from this benchmark and CI gates the paired geomean of
// auto/optimized ns/op at ≤ 1.00 — the route must pay for itself on
// the paper's own workload.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/qcache"
	"repro/internal/xmark"
)

// autoWarmup fills the query cache and the context pool before timing.
const autoWarmup = 3

func BenchmarkAutoSelector(b *testing.B) {
	for _, scale := range steadyScales {
		w := steadyWorkload(b, scale)
		for _, q := range xmark.Queries() {
			name := fmt.Sprintf("s=%g/%s", scale, q.ID)
			for _, arm := range []struct {
				name     string
				strategy core.Strategy
			}{{"optimized", core.Optimized}, {"auto", core.Auto}} {
				b.Run(name+"/"+arm.name, func(b *testing.B) {
					eng := core.NewWithIndex(w.Doc, w.Index, qcache.New(qcache.DefaultCapacity), "")
					for i := 0; i < autoWarmup; i++ {
						cur, err := eng.EvalCursor(q.XPath, arm.strategy)
						if err != nil {
							b.Fatal(err)
						}
						_ = cur.Count()
						cur.Close()
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						cur, err := eng.EvalCursor(q.XPath, arm.strategy)
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
