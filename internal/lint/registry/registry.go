// Package registry is the single source of truth for which analyzers
// ship in xpqlint. cmd/xpqlint runs this set, and the meta-test in
// internal/lint pins it — removing an analyzer breaks the build gate,
// per the suite's acceptance contract.
package registry

import (
	"repro/internal/lint"
	"repro/internal/lint/lockhold"
	"repro/internal/lint/nakedgen"
)

// Analyzers returns the full registered suite, in stable order.
func Analyzers() []*lint.Analyzer {
	return []*lint.Analyzer{
		lockhold.Analyzer,
		nakedgen.Analyzer,
	}
}
