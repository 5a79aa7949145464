package repro_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/qcache"
	"repro/internal/xmark"
)

var updateLedger = flag.Bool("update", false, "rewrite testdata/work.txt from this build")

const ledgerPath = "testdata/work.txt"

// ledgerStrategies are the engines whose work the ledger pins: every
// forced one, then Auto, whose row names the route it took
// ("auto=hybrid").
var ledgerStrategies = []core.Strategy{
	core.Naive, core.Jumping, core.Memoized, core.Optimized,
	core.Hybrid, core.TopDownDet, core.Stepwise, core.Auto,
}

// ledgerQueries are the fifteen paper queries plus the bulk-stream
// shapes that are not among them (Q11 is the fourth; Q01-Q04 are the
// point-lookup mix). Paper queries are named by id, the others by text.
func ledgerQueries() [][2]string {
	var out [][2]string
	for _, q := range xmark.Queries() {
		out = append(out, [2]string{q.ID, q.XPath})
	}
	for _, q := range []string{"/site//text", "/site//listitem", "/site//emph"} {
		out = append(out, [2]string{q, q})
	}
	return out
}

// TestWorkLedger pins the exact work of every engine on every ledger
// query: visited nodes, index jumps, memo entries and hits, and the
// answer size, each from a fresh engine (cold query cache, cold
// contexts) on XMark seed 1 at two scales. Counts repeat to the digit
// between runs where wall time does not, so a change that claims "same
// work" is held to it here: any difference fails, and
// `go test -run TestWorkLedger -update .` rewrites testdata/work.txt
// for the diff to be reviewed.
func TestWorkLedger(t *testing.T) {
	var b strings.Builder
	b.WriteString("# scale query strategy visited jumps memo_entries memo_hits selected\n")
	for _, scale := range []float64{0.01, 0.05} {
		d := xmark.Generate(xmark.Config{Scale: scale, Seed: 1})
		ix := index.New(d)
		for _, q := range ledgerQueries() {
			for _, s := range ledgerStrategies {
				e := core.NewWithIndex(d, ix, qcache.New(qcache.DefaultCapacity), "")
				cur, err := e.EvalCursor(q[1], s)
				if err != nil {
					if fragmentLimited(s) {
						continue
					}
					t.Fatalf("%s %v: %v", q[0], s, err)
				}
				w, name := cur.Work(), s.String()
				if s == core.Auto {
					name += "=" + cur.Strategy().String()
				}
				fmt.Fprintf(&b, "%g %s %s %d %d %d %d %d\n", scale, q[0], name,
					w.Visited, w.Jumps, w.MemoEntries, w.MemoHits, cur.Count())
				cur.Close()
			}
		}
	}
	got := b.String()
	if *updateLedger {
		if err := os.WriteFile(ledgerPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(raw) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(raw), "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			t.Fatalf("%s line %d:\n got  %q\n want %q\n(rewrite it with -update and review the diff)", ledgerPath, i+1, g[i], w[i])
		}
	}
	t.Fatalf("%s has %d lines, this build %d (rewrite it with -update and review the diff)", ledgerPath, len(w), len(g))
}
