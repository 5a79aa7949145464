package exp

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/xmark"
)

// The scaling experiment makes the |D|-optimization claim of §1
// measurable: as the document grows, the naive evaluator's visits grow
// linearly with |D| while the jumping evaluator's visits track the
// result size. It is not a figure of the paper, but it is the paper's
// central asymptotic argument.

// ScalingRow reports one document size.
type ScalingRow struct {
	Scale                     float64
	Nodes                     int
	Selected                  int
	NaiveVisited, JumpVisited int
	NaiveTime, JumpTime       time.Duration
}

// Scaling runs the query at each scale.
func Scaling(query string, scales []float64, seed int64) ([]ScalingRow, error) {
	var rows []ScalingRow
	for _, sc := range scales {
		d := xmark.Generate(xmark.Config{Scale: sc, Seed: seed})
		ix := index.New(d)
		aut, err := compile.Compile(query, d.Names())
		if err != nil {
			return nil, err
		}
		start := time.Now()
		naive := aut.Eval(d, nil, core.Naive.ASTAOptions())
		naiveTime := time.Since(start)
		start = time.Now()
		jump := aut.Eval(d, ix, core.Jumping.ASTAOptions())
		jumpTime := time.Since(start)
		if len(naive.Selected) != len(jump.Selected) {
			return nil, fmt.Errorf("scaling: engines disagree at scale %g", sc)
		}
		rows = append(rows, ScalingRow{
			Scale:        sc,
			Nodes:        d.NumNodes(),
			Selected:     len(jump.Selected),
			NaiveVisited: naive.Visited,
			JumpVisited:  jump.Visited,
			NaiveTime:    naiveTime,
			JumpTime:     jumpTime,
		})
	}
	return rows, nil
}

// FormatScaling renders the scaling table.
func FormatScaling(query string, rows []ScalingRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Scaling of %s: naive visits grow with |D|, jumping visits with the result\n", query)
	fmt.Fprintf(&sb, "%-8s %10s %10s %12s %12s %12s %12s\n",
		"scale", "nodes", "selected", "naive-vis", "jump-vis", "naive(ms)", "jump(ms)")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8g %10d %10d %12d %12d %12.3f %12.3f\n",
			r.Scale, r.Nodes, r.Selected, r.NaiveVisited, r.JumpVisited,
			ms(r.NaiveTime), ms(r.JumpTime))
	}
	return sb.String()
}
