// Benchmarks regenerating the paper's tables and figures (testing.B
// form; cmd/experiments prints the full tables). One benchmark family
// per experiment:
//
//	BenchmarkFigure3Counts   — E1: node-count table (reported via metrics)
//	BenchmarkFigure4/...     — E2: the four evaluation strategies × Q01-Q15
//	BenchmarkFigure5/...     — E3: hybrid vs regular on configs A-D
//	BenchmarkFigure8/...     — E4: engine vs step-wise baseline
//	BenchmarkExampleC1       — E5: ASTA compilation at growing predicate width
//	BenchmarkAblation/...    — E6: factorial ablation of jump/memo/infoprop
//
// Run with:  go test -bench=. -benchmem
package repro_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/asta"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/hybrid"
	"repro/internal/index"
	"repro/internal/stepwise"
	"repro/internal/xmark"
	"repro/internal/xpath"
)

// benchScale sizes the shared XMark document; ~0.05 ≈ 110k nodes keeps
// the full suite fast on one core while preserving the paper's shapes.
const benchScale = 0.05

var (
	workloadOnce sync.Once
	workload     *exp.Workload
)

func benchWorkload(b *testing.B) *exp.Workload {
	b.Helper()
	workloadOnce.Do(func() {
		workload = exp.NewWorkload(benchScale, 1)
	})
	return workload
}

// BenchmarkFigure3Counts measures one pass of the Figure 3 table and
// reports the headline counts of Q05 (the paper's tight-approximation
// showcase) as custom metrics.
func BenchmarkFigure3Counts(b *testing.B) {
	w := benchWorkload(b)
	var rows []exp.Fig3Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = exp.Figure3(w)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.ID == "Q05" {
			b.ReportMetric(float64(r.Selected), "Q05-selected")
			b.ReportMetric(float64(r.VisitedJump), "Q05-visited+j")
			b.ReportMetric(float64(r.VisitedNoJump), "Q05-visited-nj")
		}
	}
}

// BenchmarkFigure4 runs every query under every strategy series of the
// figure, with the options core and exp.Figure4 give each series.
func BenchmarkFigure4(b *testing.B) {
	w := benchWorkload(b)
	for _, s := range []core.Strategy{core.Naive, core.Jumping, core.Memoized, core.Optimized} {
		opt := s.ASTAOptions()
		for _, q := range xmark.Queries() {
			aut, err := compile.Compile(q.XPath, w.Doc.Names())
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/%s", s, q.ID), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_ = aut.Eval(w.Doc, w.Index, opt)
				}
			})
		}
	}
}

// BenchmarkFigure5 compares the hybrid and regular strategies on the
// four synthetic configurations.
func BenchmarkFigure5(b *testing.B) {
	p := xpath.MustParse(xmark.HybridQuery)
	for _, cfg := range xmark.Fig5Configs() {
		d := cfg.Build(0.2)
		ix := index.New(d)
		aut, err := compile.ToASTA(p, d.Names())
		if err != nil {
			b.Fatal(err)
		}
		chain, err := hybrid.Compile(p, d.Names())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(cfg.Name+"/Hybrid", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				chain.Eval(d, ix, nil)
			}
		})
		b.Run(cfg.Name+"/Regular", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = aut.Eval(d, ix, asta.Opt())
			}
		})
	}
}

// BenchmarkFigure8 compares the optimized engine against the step-wise
// baseline on every query.
func BenchmarkFigure8(b *testing.B) {
	w := benchWorkload(b)
	for _, q := range xmark.Queries() {
		p := xpath.MustParse(q.XPath)
		aut, err := compile.ToASTA(p, w.Doc.Names())
		if err != nil {
			b.Fatal(err)
		}
		b.Run("Engine/"+q.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = aut.Eval(w.Doc, w.Index, asta.Opt())
			}
		})
		b.Run("Baseline/"+q.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = stepwise.Eval(w.Doc, p, stepwise.Default())
			}
		})
	}
}

// BenchmarkExampleC1 measures compilation of the wide-predicate query of
// Example C.1 (the runtime stays linear in n where an alternation-free
// automaton would be exponential).
func BenchmarkExampleC1(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := exp.ExampleC1([]int{n})
				if err != nil {
					b.Fatal(err)
				}
				if rows[0].DNFTerms == 0 {
					b.Fatal("no DNF terms")
				}
			}
		})
	}
}

// BenchmarkAblation is the factorial ablation of the three §4.4
// techniques on a representative query mix.
func BenchmarkAblation(b *testing.B) {
	w := benchWorkload(b)
	queries := []string{"Q05", "Q08", "Q12"}
	byID := map[string]string{}
	for _, q := range xmark.Queries() {
		byID[q.ID] = q.XPath
	}
	configs := []struct {
		name string
		opt  asta.Options
	}{
		{"none", asta.Options{}},
		{"jump", asta.Options{Jump: true}},
		{"memo", asta.Options{Memo: true}},
		{"infoprop", asta.Options{InfoProp: true}},
		{"jump+memo", asta.Options{Jump: true, Memo: true}},
		{"jump+infoprop", asta.Options{Jump: true, InfoProp: true}},
		{"memo+infoprop", asta.Options{Memo: true, InfoProp: true}},
		{"all", asta.Opt()},
	}
	for _, qid := range queries {
		aut, err := compile.Compile(byID[qid], w.Doc.Names())
		if err != nil {
			b.Fatal(err)
		}
		for _, cfg := range configs {
			b.Run(qid+"/"+cfg.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_ = aut.Eval(w.Doc, w.Index, cfg.opt)
				}
			})
		}
	}
}

// BenchmarkIndexBuild measures index construction, the one-time cost the
// jumping strategies amortize.
func BenchmarkIndexBuild(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = index.New(w.Doc)
	}
}
