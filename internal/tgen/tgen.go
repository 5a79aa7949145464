// Package tgen generates deterministic pseudo-random documents for tests,
// property checks and ablation benchmarks. All generators are seeded, so
// every failure is reproducible.
package tgen

import (
	"math/rand"

	"repro/internal/tree"
)

// Config controls random document generation.
type Config struct {
	// Labels is the alphabet drawn from; defaults to {a,b,c,d}.
	Labels []string
	// MaxNodes bounds the number of element nodes generated (>= 1).
	MaxNodes int
	// MaxChildren bounds the fan-out per element.
	MaxChildren int
	// MaxDepth bounds the element nesting depth.
	MaxDepth int
	// TextProb is the per-child probability of emitting a text node
	// instead of an element, in [0,1).
	TextProb float64
	// AttrProb is, for each label, the probability that an element
	// carries an attribute of that name, in [0,1]: an "@label" child
	// ahead of the element's other children, holding one text node
	// "v", the encoding xmlparse writes. Zero draws nothing, so it
	// changes no document.
	AttrProb float64
}

func (c *Config) defaults() {
	if len(c.Labels) == 0 {
		c.Labels = []string{"a", "b", "c", "d"}
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = 200
	}
	if c.MaxChildren <= 0 {
		c.MaxChildren = 4
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 8
	}
}

// Random generates a random document per cfg using the given seed.
func Random(seed int64, cfg Config) *tree.Document {
	cfg.defaults()
	rng := rand.New(rand.NewSource(seed))
	b := tree.NewBuilder()
	budget := cfg.MaxNodes
	var gen func(depth int)
	gen = func(depth int) {
		if budget <= 0 {
			return
		}
		budget--
		b.Open(cfg.Labels[rng.Intn(len(cfg.Labels))])
		for _, l := range cfg.Labels {
			if cfg.AttrProb > 0 && rng.Float64() < cfg.AttrProb {
				b.Open("@" + l)
				b.Text("v")
				b.Close()
			}
		}
		if depth < cfg.MaxDepth {
			// Full fan-out at the root so the branching process cannot
			// die immediately; random below.
			n := cfg.MaxChildren
			if depth > 0 {
				n = rng.Intn(cfg.MaxChildren + 1)
			}
			for i := 0; i < n && budget > 0; i++ {
				if cfg.TextProb > 0 && rng.Float64() < cfg.TextProb {
					b.Text("t")
					continue
				}
				gen(depth + 1)
			}
		}
		b.Close()
	}
	gen(0)
	return b.MustFinish()
}

// Chain builds a single path a/a/.../a of the given length and label.
func Chain(label string, length int) *tree.Document {
	b := tree.NewBuilder()
	for i := 0; i < length; i++ {
		b.Open(label)
	}
	for i := 0; i < length; i++ {
		b.Close()
	}
	return b.MustFinish()
}

// Star builds a root with n leaf children, all with the given labels.
func Star(rootLabel, childLabel string, n int) *tree.Document {
	b := tree.NewBuilder()
	b.Open(rootLabel)
	for i := 0; i < n; i++ {
		b.Open(childLabel)
		b.Close()
	}
	b.Close()
	return b.MustFinish()
}

// Balanced builds a complete k-ary tree of the given depth where every
// node carries a label chosen round-robin from labels.
func Balanced(labels []string, arity, depth int) *tree.Document {
	b := tree.NewBuilder()
	i := 0
	var gen func(d int)
	gen = func(d int) {
		b.Open(labels[i%len(labels)])
		i++
		if d > 0 {
			for c := 0; c < arity; c++ {
				gen(d - 1)
			}
		}
		b.Close()
	}
	gen(depth)
	return b.MustFinish()
}
