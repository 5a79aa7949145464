// Automata inspection: compiles queries to the paper's automata and
// prints them — the ASTA of Example 4.1, its state-set jump analysis,
// and a minimized deterministic TDSTA with its relevant-node run. This
// example imports internal packages (it lives inside the module) to
// expose the machinery the public API wraps.
//
//	go run ./examples/automata
package main

import (
	"fmt"
	"log"

	"repro/internal/asta"
	"repro/internal/compile"
	"repro/internal/index"
	"repro/internal/sta"
	"repro/internal/tree"
	"repro/internal/xmlparse"
	"repro/internal/xpath"
)

func main() {
	doc, err := xmlparse.ParseString(
		`<x><a><b><c/></b></a><d><b><e/></b><a><b><c/><c/></b></a></d></x>`)
	if err != nil {
		log.Fatal(err)
	}
	ix := index.New(doc)

	// 1. The ASTA of Example 4.1.
	fmt.Println("=== ASTA for //a//b[c] (Example 4.1) ===")
	aut, err := compile.Compile("//a//b[c]", doc.Names())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(aut.String(doc.Names()))

	fmt.Println("\nstate roles:")
	for q := asta.State(0); int(q) < aut.NumStates; q++ {
		role := "search"
		if !aut.Marking(q) {
			role = "predicate check (cannot mark nodes)"
		}
		fmt.Printf("  q%d: %s\n", q, role)
	}

	// 2. The minimized TDSTA for a restricted query, with its jumping
	// run (Theorem 3.1: only relevant nodes are touched).
	fmt.Println("\n=== minimal TDSTA for //a//b ===")
	p := xpath.MustParse("//a//b")
	tdsta, err := compile.ToTDSTA(p, doc.Names())
	if err != nil {
		log.Fatal(err)
	}
	min := tdsta.MinimizeTopDown()
	fmt.Printf("states before/after minimization: %d -> %d\n", tdsta.NumStates, min.NumStates)
	fmt.Println(min.String(doc.Names()))

	full := min.EvalTopDownDet(doc)
	run := make(sta.Run, doc.NumNodes())
	jump := min.EvalTopDownJump(doc, ix.NewCursors(), run, nil)
	fmt.Printf("\nfull run visited %d of %d nodes; topdown_jump visited %d\n",
		full.Visited, doc.NumNodes(), jump.Visited)
	fmt.Printf("selected: %v (both runs agree: %v)\n",
		jump.Selected, equalNodes(full.Selected, jump.Selected))
	relevant := min.RelevantTopDown(doc, full.Run)
	fmt.Printf("top-down relevant nodes (Lemma 3.1): %v\n", relevant)
	for _, v := range relevant {
		fmt.Printf("  node %-3d %-12s state q%d (jumping run: q%d)\n", v, doc.Path(v), full.Run[v], run[v])
	}
}

func equalNodes(a, b []tree.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
