package sta

import (
	"repro/internal/labels"
	"repro/internal/tree"
)

// This file provides the automata used as running examples in the paper;
// they anchor the test suite to the text. Their names start in lower
// case: go test would take an Example function for a testable example.

// exampleDescADescB builds A_//a//b of Example 2.1: the top-down
// deterministic STA selecting all b-descendants of a-nodes.
//
//	q0, {a}    -> (q1, q0)
//	q0, Σ\{a}  -> (q0, q0)
//	q1, {b}    => (q1, q1)
//	q1, Σ\{b}  -> (q1, q1)
func exampleDescADescB(a, b tree.LabelID) *STA {
	const q0, q1 = 0, 1
	return (&STA{
		NumStates: 2,
		Top:       []State{q0},
		Bottom:    []State{q0, q1},
		Trans: []Transition{
			{From: q0, Guard: labels.Of(a), Dest: Pair{q1, q0}},
			{From: q0, Guard: labels.Not(a), Dest: Pair{q0, q0}},
			{From: q1, Guard: labels.Of(b), Dest: Pair{q1, q1}, Selecting: true},
			{From: q1, Guard: labels.Not(b), Dest: Pair{q1, q1}},
		},
	}).Finalize()
}

// exampleRootA builds the recognizer of §3 for the DTD
// "<!ELEMENT a ANY>": accepts exactly the trees whose root is labeled a.
// Only the root is relevant; everything else is skipped via q⊤.
//
//	q0, {a}   -> (q⊤, q⊤)
//	q0, Σ\{a} -> (q⊥, q⊥)
//	q⊤, Σ     -> (q⊤, q⊤)
//	q⊥, Σ     -> (q⊥, q⊥)
func exampleRootA(a tree.LabelID) *STA {
	const q0, qTop, qBot = 0, 1, 2
	return (&STA{
		NumStates: 3,
		Top:       []State{q0},
		Bottom:    []State{qTop},
		Trans: []Transition{
			{From: q0, Guard: labels.Of(a), Dest: Pair{qTop, qTop}},
			{From: q0, Guard: labels.Not(a), Dest: Pair{qBot, qBot}},
			{From: qTop, Guard: labels.Any, Dest: Pair{qTop, qTop}},
			{From: qBot, Guard: labels.Any, Dest: Pair{qBot, qBot}},
		},
	}).Finalize()
}

// exampleAWithDescB builds the bottom-up deterministic STA for //a[.//b]
// (Example A.1 / B.1 of the paper): it selects all a-nodes with a
// b-labeled node among their proper XML descendants — their *left*
// subtree under the fcns encoding.
//
// The two-state automaton printed in Example A.1 reads only the left
// child state, which loses b-occurrences that reach a node through its
// right (next-sibling) edge; three states are needed to both propagate
// "b occurs somewhere below-or-right" upward and select only on "b
// occurs in the left subtree":
//
//	q0: no b in the node's self∪binary-subtree region,
//	qR: b in the region but not in the left subtree (self or right only),
//	qL: b in the left subtree (selection fires here on label a).
//
// q0 is the bottom state; all states are top (the automaton accepts
// every tree and is bottom-up complete).
func exampleAWithDescB(a, b tree.LabelID) *STA {
	const q0, qR, qL = 0, 1, 2
	sta := &STA{
		NumStates: 3,
		Top:       []State{q0, qR, qL},
		Bottom:    []State{q0},
	}
	all := []State{q0, qR, qL}
	for _, r := range all {
		// Left region contains a b: qL, selecting on a.
		for _, l := range []State{qR, qL} {
			sta.Trans = append(sta.Trans,
				Transition{From: qL, Guard: labels.Of(a), Dest: Pair{l, r}, Selecting: true},
				Transition{From: qL, Guard: labels.Not(a), Dest: Pair{l, r}},
			)
		}
		// Left region clean; b here or to the right: qR.
		sta.Trans = append(sta.Trans,
			Transition{From: qR, Guard: labels.Of(b), Dest: Pair{q0, r}})
		if r != q0 {
			sta.Trans = append(sta.Trans,
				Transition{From: qR, Guard: labels.Not(b), Dest: Pair{q0, r}})
		}
	}
	// Entirely clean region.
	sta.Trans = append(sta.Trans,
		Transition{From: q0, Guard: labels.Not(b), Dest: Pair{q0, q0}})
	return sta.Finalize()
}
