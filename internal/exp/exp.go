// Package exp regenerates the paper's experimental tables and figures
// (§5 and Appendix D): Figure 3 (selected/visited node counts and memo
// table sizes per query), Figure 4 (evaluation time for the four
// optimization levels), Figure 5 (hybrid vs regular evaluation on the
// synthetic configurations A–D), Figure 8 (the engine against the
// step-wise baseline standing in for MonetDB/XQuery) and the
// ASTA-vs-STA succinctness table of Example C.1.
//
// Absolute times depend on the host and on this reproduction's Go
// substrate; the shapes the paper reports — which strategy wins, by
// what order of magnitude, where the crossovers sit — are the claims
// these harnesses check; run cmd/experiments to capture them on the
// current host.
package exp

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/asta"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/hybrid"
	"repro/internal/index"
	"repro/internal/stepwise"
	"repro/internal/tree"
	"repro/internal/xmark"
	"repro/internal/xpath"
)

// Workload bundles a document with its prebuilt index.
type Workload struct {
	Doc   *tree.Document
	Index *index.Index
}

// NewWorkload generates the XMark document at the given scale and
// indexes it.
func NewWorkload(scale float64, seed int64) *Workload {
	d := xmark.Generate(xmark.Config{Scale: scale, Seed: seed})
	return &Workload{Doc: d, Index: index.New(d)}
}

// --- Figure 3 ---

// Fig3Row is one column of the Figure 3 table.
type Fig3Row struct {
	ID string
	// Selected is line (1): the number of selected nodes.
	Selected int
	// VisitedJump is line (2): nodes visited with jumping.
	VisitedJump int
	// VisitedNoJump is line (3): nodes visited without jumping (the
	// evaluator still skips subtrees whose state set is empty).
	VisitedNoJump int
	// MemoEntries is line (4): memoized configurations.
	MemoEntries int
	// Ratio is line (5): selected / visited-with-jumping, in percent.
	Ratio float64
}

// Figure3 computes the table for all fifteen queries.
func Figure3(w *Workload) ([]Fig3Row, error) {
	var rows []Fig3Row
	for _, q := range xmark.Queries() {
		aut, err := compile.Compile(q.XPath, w.Doc.Names())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.ID, err)
		}
		// The paper's jumping evaluator always applies the existential
		// semantics of §4.4 ("only one witness is checked"), which is
		// what lets Q13–Q15 prune their predicate states after the
		// first witness; InfoProp is that technique, and the Jumping
		// series carries it.
		jump := aut.Eval(w.Doc, w.Index, core.Jumping.ASTAOptions())
		plain := aut.Eval(w.Doc, nil, core.Naive.ASTAOptions())
		// Line (4) is the size of the transition memo alone, not of
		// the Memoized series: information propagation memoizes its
		// own restrictions (keyed by a transition row and the first
		// child's outcome) and hands second children other state
		// sets, so core.Memoized counts more entries for the same run
		// (Q08: 296 → 476 at XMark 0.05).
		memo := aut.Eval(w.Doc, nil, asta.Options{Memo: true})
		row := Fig3Row{
			ID:            q.ID,
			Selected:      len(jump.Selected),
			VisitedJump:   jump.Visited,
			VisitedNoJump: plain.Visited,
			MemoEntries:   memo.MemoEntries,
		}
		if row.VisitedJump > 0 {
			row.Ratio = 100 * float64(row.Selected) / float64(row.VisitedJump)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatFigure3 renders the table like the paper's Figure 3.
func FormatFigure3(rows []Fig3Row, totalNodes int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 3: selected and visited nodes (document: %d nodes)\n", totalNodes)
	fmt.Fprintf(&sb, "%-4s %12s %12s %14s %8s %8s\n",
		"Q", "(1)selected", "(2)visited+j", "(3)visited-nj", "(4)memo", "(5)%")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-4s %12d %12d %14d %8d %8.1f\n",
			r.ID, r.Selected, r.VisitedJump, r.VisitedNoJump, r.MemoEntries, r.Ratio)
	}
	return sb.String()
}

// --- Figure 4 ---

// Fig4Row is one query's timings across the four optimization levels.
type Fig4Row struct {
	ID                     string
	Naive, Jump, Memo, Opt time.Duration
}

// Figure4 times each query under each strategy; each measurement is the
// best of `repeats` runs (the paper takes the best of 5).
func Figure4(w *Workload, repeats int) ([]Fig4Row, error) {
	if repeats < 1 {
		repeats = 1
	}
	// The figure's series are the four ASTA strategies ("Naive" is the
	// bare Algorithm 4.1).
	modes := []core.Strategy{core.Naive, core.Jumping, core.Memoized, core.Optimized}
	var rows []Fig4Row
	for _, q := range xmark.Queries() {
		aut, err := compile.Compile(q.XPath, w.Doc.Names())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.ID, err)
		}
		var ts [4]time.Duration
		for mi, s := range modes {
			best := time.Duration(0)
			for rep := 0; rep < repeats; rep++ {
				start := time.Now()
				_ = aut.Eval(w.Doc, w.Index, s.ASTAOptions())
				el := time.Since(start)
				if rep == 0 || el < best {
					best = el
				}
			}
			ts[mi] = best
		}
		rows = append(rows, Fig4Row{ID: q.ID, Naive: ts[0], Jump: ts[1], Memo: ts[2], Opt: ts[3]})
	}
	return rows, nil
}

// FormatFigure4 renders the timing table (milliseconds, log-plot data in
// the paper).
func FormatFigure4(rows []Fig4Row) string {
	var sb strings.Builder
	sb.WriteString("Figure 4: query evaluation time (ms)\n")
	fmt.Fprintf(&sb, "%-4s %12s %12s %12s %12s\n", "Q", "Naive", "Jumping", "Memo.", "Opt.")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-4s %12.3f %12.3f %12.3f %12.3f\n",
			r.ID, ms(r.Naive), ms(r.Jump), ms(r.Memo), ms(r.Opt))
	}
	return sb.String()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// --- Figure 5 ---

// Fig5Row reports hybrid vs regular evaluation on one configuration.
type Fig5Row struct {
	Config string
	// Selected is row (1) of the figure's table.
	Selected int
	// HybridVisited is row (2): nodes visited by the hybrid run.
	HybridVisited int
	// RegularVisited is row (3): nodes visited by the regular
	// top-down+bottom-up (jumping) run.
	RegularVisited int
	// Times for both strategies.
	HybridTime, RegularTime time.Duration
	// TotalNodes sizes the document.
	TotalNodes int
}

// Figure5 builds the four configurations at the given scale and runs
// //listitem//keyword//emph both ways.
func Figure5(scale float64, repeats int) ([]Fig5Row, error) {
	if repeats < 1 {
		repeats = 1
	}
	p := xpath.MustParse(xmark.HybridQuery)
	var rows []Fig5Row
	for _, cfg := range xmark.Fig5Configs() {
		d := cfg.Build(scale)
		ix := index.New(d)
		aut, err := compile.ToASTA(p, d.Names())
		if err != nil {
			return nil, err
		}
		var hRes hybrid.Result
		var hTime time.Duration
		for rep := 0; rep < repeats; rep++ {
			start := time.Now()
			hRes, err = hybrid.Eval(d, ix, p)
			el := time.Since(start)
			if err != nil {
				return nil, err
			}
			if rep == 0 || el < hTime {
				hTime = el
			}
		}
		var rRes asta.Result
		var rTime time.Duration
		for rep := 0; rep < repeats; rep++ {
			start := time.Now()
			rRes = aut.Eval(d, ix, core.Optimized.ASTAOptions())
			el := time.Since(start)
			if rep == 0 || el < rTime {
				rTime = el
			}
		}
		if len(hRes.Selected) != len(rRes.Selected) {
			return nil, fmt.Errorf("config %s: hybrid selected %d, regular %d",
				cfg.Name, len(hRes.Selected), len(rRes.Selected))
		}
		rows = append(rows, Fig5Row{
			Config:         cfg.Name,
			Selected:       len(hRes.Selected),
			HybridVisited:  hRes.Visited,
			RegularVisited: rRes.Visited,
			HybridTime:     hTime,
			RegularTime:    rTime,
			TotalNodes:     d.NumNodes(),
		})
	}
	return rows, nil
}

// FormatFigure5 renders the hybrid-vs-regular table.
func FormatFigure5(rows []Fig5Row) string {
	var sb strings.Builder
	sb.WriteString("Figure 5: hybrid vs regular, query //listitem//keyword//emph\n")
	fmt.Fprintf(&sb, "%-4s %10s %12s %12s %12s %12s %10s\n",
		"Cfg", "(1)sel", "(2)hyb-vis", "(3)reg-vis", "hybrid(ms)", "regular(ms)", "nodes")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-4s %10d %12d %12d %12.3f %12.3f %10d\n",
			r.Config, r.Selected, r.HybridVisited, r.RegularVisited,
			ms(r.HybridTime), ms(r.RegularTime), r.TotalNodes)
	}
	return sb.String()
}

// --- Figure 8 (Appendix D) ---

// Fig8Row compares the optimized engine against the step-wise baseline.
type Fig8Row struct {
	ID       string
	Engine   time.Duration
	Baseline time.Duration
	Selected int
}

// Figure8 runs all queries under both engines; the baseline stands in
// for MonetDB/XQuery (see DESIGN.md).
func Figure8(w *Workload, repeats int) ([]Fig8Row, error) {
	if repeats < 1 {
		repeats = 1
	}
	for _, q := range xmark.Queries() {
		if _, err := xpath.Parse(q.XPath); err != nil {
			return nil, err
		}
	}
	var rows []Fig8Row
	for _, q := range xmark.Queries() {
		p := xpath.MustParse(q.XPath)
		aut, err := compile.ToASTA(p, w.Doc.Names())
		if err != nil {
			return nil, err
		}
		var eng, base time.Duration
		var sel int
		for rep := 0; rep < repeats; rep++ {
			start := time.Now()
			res := aut.Eval(w.Doc, w.Index, core.Optimized.ASTAOptions())
			el := time.Since(start)
			if rep == 0 || el < eng {
				eng = el
			}
			sel = len(res.Selected)
		}
		for rep := 0; rep < repeats; rep++ {
			start := time.Now()
			res := stepwise.Eval(w.Doc, p, stepwise.Default())
			el := time.Since(start)
			if rep == 0 || el < base {
				base = el
			}
			if len(res.Selected) != sel {
				return nil, fmt.Errorf("%s: engines disagree (%d vs %d)", q.ID, sel, len(res.Selected))
			}
		}
		rows = append(rows, Fig8Row{ID: q.ID, Engine: eng, Baseline: base, Selected: sel})
	}
	return rows, nil
}

// FormatFigure8 renders the engine-vs-baseline table.
func FormatFigure8(rows []Fig8Row) string {
	var sb strings.Builder
	sb.WriteString("Figure 8: automata engine vs step-wise baseline (MonetDB stand-in)\n")
	fmt.Fprintf(&sb, "%-4s %12s %12s %9s %10s\n", "Q", "engine(ms)", "baseline(ms)", "speedup", "selected")
	for _, r := range rows {
		speed := 0.0
		if r.Engine > 0 {
			speed = float64(r.Baseline) / float64(r.Engine)
		}
		fmt.Fprintf(&sb, "%-4s %12.3f %12.3f %8.1fx %10d\n",
			r.ID, ms(r.Engine), ms(r.Baseline), speed, r.Selected)
	}
	return sb.String()
}
