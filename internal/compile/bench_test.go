package compile_test

import (
	"testing"

	"repro/internal/compile"
	"repro/internal/xmark"
	"repro/internal/xpath"
)

// BenchmarkCompile times what a query cache miss compiles, over the
// work ledger's queries against XMark's label table (scale 0.002; the
// bulk-stream shapes /site//<label> are named by label): asta/<query>
// is ToASTA, and tdsta/<query> is ToTDSTA, the whole miss of a query
// CheckTDSTA accepts, whose entry holds both automata.
func BenchmarkCompile(b *testing.B) {
	names := xmark.Generate(xmark.Config{Scale: 0.002, Seed: 1}).Names()
	queries := xmark.Queries()
	for _, l := range []string{"text", "listitem", "emph"} {
		queries = append(queries, xmark.Query{ID: l, XPath: "/site//" + l})
	}
	for _, q := range queries {
		p := xpath.MustParse(q.XPath)
		if compile.CheckASTA(p) == nil {
			b.Run("asta/"+q.ID, func(b *testing.B) {
				for b.Loop() {
					if _, err := compile.ToASTA(p, names); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		if compile.CheckTDSTA(p) == nil {
			b.Run("tdsta/"+q.ID, func(b *testing.B) {
				for b.Loop() {
					if _, err := compile.ToTDSTA(p, names); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
