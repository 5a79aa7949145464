package asta

import (
	"testing"
	"unsafe"

	"repro/internal/index"
	"repro/internal/tgen"
	"repro/internal/tree"
)

// TestContextMemBytesCountsArenasAtTheirSize: after an evaluation that
// filled the cell arena, what Context.MemBytes counts of it is the
// capacity of every chunk at its element's size — a chain cell, and a
// node id, an int32 — and nothing else.
func TestContextMemBytesCountsArenasAtTheirSize(t *testing.T) {
	d := tgen.Random(3, tgen.Config{MaxNodes: 3000, Labels: []string{"a", "b", "c"}})
	ix := index.New(d)
	a, _ := d.Names().Lookup("a")
	b, _ := d.Names().Lookup("b")
	c, _ := d.Names().Lookup("c")
	ctx := exampleASTA(t, a, b, c).NewContext(Opt())
	if res := ctx.Eval(d, ix); len(res.Selected) == 0 {
		t.Fatal("the query selects nothing: the arena would stay empty")
	}
	arena := ctx.e.arena
	var cells, ids int64
	for _, ch := range arena.cells.chunks {
		cells += int64(cap(ch))
	}
	for _, ch := range arena.ids.chunks {
		ids += int64(cap(ch))
	}
	if cells == 0 || ids == 0 {
		t.Fatalf("the arena holds %d cells and %d ids: want some of each", cells, ids)
	}
	want := cells*int64(unsafe.Sizeof(NodeList{})) + ids*int64(unsafe.Sizeof(tree.NodeID(0)))
	all := ctx.MemBytes()
	ctx.e.arena = cellArena{}
	if got := all - ctx.MemBytes(); got != want {
		t.Fatalf("MemBytes counts %d bytes of the arena, want %d: %d cells and %d ids", got, want, cells, ids)
	}
}
