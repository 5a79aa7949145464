package tree

// Succinct is what cmd/xpqbench compiles against, left from when a
// balanced-parentheses view of the topology stood beside the flat
// arrays. The arrays are the one tree backend (DESIGN.md "Two arrays
// navigate the tree"): Succinct holds nothing, and building or splicing
// one does no work.
type Succinct struct{}

// NewSuccinct returns the empty view. Its argument is ignored.
func NewSuccinct(*Document) *Succinct { return &Succinct{} }

// SpliceSuccinct returns the empty view. Its arguments are ignored.
func SpliceSuccinct(*Succinct, *Document, *Delta) *Succinct { return &Succinct{} }
