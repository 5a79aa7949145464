package compile_test

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/asta"
	"repro/internal/compile"
	"repro/internal/index"
	"repro/internal/labels"
	"repro/internal/sta"
	"repro/internal/stepwise"
	"repro/internal/tgen"
	"repro/internal/tree"
	"repro/internal/xpath"
)

func sameNodes(a, b []tree.NodeID) bool {
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

// deterministicComplete reports whether a is top-down deterministic
// and complete (Definition 2.1): one top state, and the guards of each
// state's transitions pairwise disjoint and covering every label.
func deterministicComplete(a *sta.STA) bool {
	if len(a.Top) != 1 {
		return false
	}
	for q := sta.State(0); int(q) < a.NumStates; q++ {
		cover := labels.None
		for _, t := range a.Trans {
			if t.From != q {
				continue
			}
			if cover.Overlaps(t.Guard) {
				return false
			}
			cover = cover.Union(t.Guard)
		}
		if !cover.IsAny() {
			return false
		}
	}
	return true
}

// TDSTA-eligible queries: child steps then descendant steps, name/*
// tests; e is in no document, and the last is the longest path
// CheckTDSTA accepts.
var tdstaBattery = []string{
	"/a",
	"/a/b",
	"/a/b/c",
	"//a",
	"//a//b",
	"//a//b//c",
	"/a//b",
	"/a/b//c",
	"/a//b//c",
	"/*",
	"/a/*//b",
	"//*",
	"/a/*/b//c",
	"/*//*",
	"/a/b//c//d",
	"/a//e//b",
	strings.Repeat("/a", asta.MaxStates-1),
}

// TestTDSTAAgainstStepwise: the deterministic compilation selects the
// same nodes as the oracle, via the full run, and via topdown_jump on the
// minimized automaton (Theorem 3.1 end to end). The determinized ASTA is
// deterministic, complete, and within CheckTDSTA's bound of n+2 states
// for n steps.
func TestTDSTAAgainstStepwise(t *testing.T) {
	paths := make([]*xpath.Path, len(tdstaBattery))
	for i, q := range tdstaBattery {
		paths[i] = xpath.MustParse(q)
	}
	f := func(seed int64) bool {
		d := tgen.Random(seed, tgen.Config{
			Labels:   []string{"a", "b", "c", "d"},
			MaxNodes: 150,
		})
		ix := index.New(d)
		for qi, p := range paths {
			want := stepwise.Eval(d, p, stepwise.Default()).Selected
			aut, err := compile.ToTDSTA(p, d.Names())
			if err != nil {
				t.Logf("compile %q: %v", tdstaBattery[qi], err)
				return false
			}
			if !deterministicComplete(aut) {
				t.Logf("%q: not deterministic/complete", tdstaBattery[qi])
				return false
			}
			if aut.NumStates > len(p.Steps)+2 {
				t.Logf("%q: %d states for %d steps", tdstaBattery[qi], aut.NumStates, len(p.Steps))
				return false
			}
			full := aut.EvalTopDownDet(d)
			if !sameNodes(full.Selected, want) {
				t.Logf("seed=%d %q full: got %v want %v", seed, tdstaBattery[qi], full.Selected, want)
				return false
			}
			min := aut.MinimizeTopDown()
			jump := min.EvalTopDownJump(d, ix.NewCursors(), nil, nil)
			if !sameNodes(jump.Selected, want) {
				t.Logf("seed=%d %q jump: got %v want %v", seed, tdstaBattery[qi], jump.Selected, want)
				return false
			}
			if jump.Visited > full.Visited {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestTDSTARejectsOutsideFragment(t *testing.T) {
	lt := tree.NewLabelTable()
	for _, q := range []string{
		"//a/b",                    // child after descendant
		"//a[b]",                   // predicate
		"//a/text()",               // text test
		"/a/@x",                    // attribute axis
		"//a/following-sibling::b", // unsupported axis
	} {
		if _, err := compile.ToTDSTA(xpath.MustParse(q), lt); err == nil {
			t.Errorf("ToTDSTA(%q) should fail", q)
		}
	}
}

func TestTDSTAJumpSkipsIrrelevant(t *testing.T) {
	// /site//keyword on a document where keywords cluster in one region.
	b := tree.NewBuilder()
	b.Open("site")
	for i := 0; i < 500; i++ {
		b.Open("filler")
		b.Close()
	}
	b.Open("region")
	for i := 0; i < 5; i++ {
		b.Open("keyword")
		b.Close()
	}
	b.Close()
	b.Close()
	d := b.MustFinish()
	ix := index.New(d)
	aut, err := compile.ToTDSTA(xpath.MustParse("/site//keyword"), d.Names())
	if err != nil {
		t.Fatal(err)
	}
	res := aut.MinimizeTopDown().EvalTopDownJump(d, ix.NewCursors(), nil, nil)
	if len(res.Selected) != 5 {
		t.Fatalf("selected %d", len(res.Selected))
	}
	if res.Visited > 12 {
		t.Errorf("visited %d nodes of %d; jumping ineffective", res.Visited, d.NumNodes())
	}
}

func TestCompileStarGuards(t *testing.T) {
	d, _ := tgen.Random(1, tgen.Config{}), 0
	_ = d
	lt := tree.NewLabelTable()
	lt.Intern("a")
	lt.Intern("@href")
	aut, err := compile.Compile("//*", lt)
	if err != nil {
		t.Fatal(err)
	}
	if aut.NumStates != 2 {
		t.Errorf("states = %d", aut.NumStates)
	}
}

// TestStateCapIsUnsupported: a query needing more than asta.MaxStates
// states is refused with an error matching ErrUnsupported (so Auto can
// answer it step-wise), not a panic. The largest query that fits still
// compiles, and the TDSTA fragment stops one step short of the cap.
func TestStateCapIsUnsupported(t *testing.T) {
	lt := tree.NewLabelTable()
	lt.Intern("a")
	lt.Intern("b")
	// One initial state and two per "//b[.//b]" step.
	fits := "/a" + strings.Repeat("//b[.//b]", (asta.MaxStates-2)/2)
	if aut, err := compile.Compile(fits, lt); err != nil || aut.NumStates != asta.MaxStates {
		t.Fatalf("%d-state query: err = %v, want it to compile to exactly %d states", asta.MaxStates, err, asta.MaxStates)
	}
	for _, q := range []string{fits + "/b", "/a" + strings.Repeat("//b[.//b]", 40)} {
		_, err := compile.Compile(q, lt)
		if !errors.Is(err, compile.ErrUnsupported) {
			t.Errorf("%d-byte query: err = %v, want ErrUnsupported", len(q), err)
		}
	}

	short := xpath.MustParse("/a" + strings.Repeat("/b", asta.MaxStates-2))
	if err := compile.CheckTDSTA(short); err != nil {
		t.Errorf("%d steps: %v, want inside the TDSTA fragment", len(short.Steps), err)
	}
	long := xpath.MustParse("/a" + strings.Repeat("/b", asta.MaxStates-1))
	if err := compile.CheckTDSTA(long); err == nil {
		t.Errorf("%d steps: inside the TDSTA fragment, want refused", len(long.Steps))
	}
}
