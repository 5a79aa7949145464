// Package nakedgen enforces the opacity of MVCC generation tokens
// (store.Gen). Generations are entropy-seeded per document chain, so
// outside internal/store their numeric value is meaningless: ordering
// two Gens, doing arithmetic on one, or converting one to/from a raw
// integer is always a latent bug (it "works" until a restart reseeds
// the chain). Identity comparison (==, !=) and the sanctioned
// String/ParseGen round-trip remain allowed; internal/store itself is
// exempt — it is the one place generation numerics are meaningful.
package nakedgen

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint"
)

var Analyzer = &lint.Analyzer{
	Name: "nakedgen",
	Doc:  "store.Gen values must stay opaque outside internal/store: no ordering, arithmetic, or raw-integer conversions",
	Run:  run,
}

// genPkg matches both the real package and the fixture stub.
func isGenType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != "Gen" || obj.Pkg() == nil {
		return false
	}
	return lint.PathHasSuffix(obj.Pkg().Path(), "internal/store") ||
		obj.Pkg().Path() == "store"
}

func run(pass *lint.Pass) (any, error) {
	if pass.PathHasSuffix("internal/store") || pass.Pkg.Path() == "store" {
		return nil, nil // home turf: numerics are the implementation
	}
	genOperand := func(x, y ast.Expr) bool {
		tx, ty := pass.TypeOf(x), pass.TypeOf(y)
		return (tx != nil && isGenType(tx)) || (ty != nil && isGenType(ty))
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				switch n.Op {
				case token.LSS, token.LEQ, token.GTR, token.GEQ:
					if genOperand(n.X, n.Y) {
						pass.Reportf(n.OpPos, "ordering comparison on store.Gen: generations are entropy-seeded, %s is meaningless outside internal/store", n.Op)
					}
				case token.ADD, token.SUB, token.MUL, token.QUO, token.REM,
					token.AND, token.OR, token.XOR, token.SHL, token.SHR, token.AND_NOT:
					if genOperand(n.X, n.Y) {
						pass.Reportf(n.OpPos, "arithmetic on store.Gen: derive generations only from Patch/Acquire/ParseGen, never by %s", n.Op)
					}
				}
			case *ast.CallExpr:
				// Explicit conversions to or from Gen.
				tv, ok := pass.TypesInfo.Types[n.Fun]
				if !ok || !tv.IsType() || len(n.Args) != 1 {
					return true
				}
				dst := tv.Type
				src := pass.TypeOf(n.Args[0])
				if src == nil {
					return true
				}
				srcIsGen, dstIsGen := isGenType(src), isGenType(dst)
				if dstIsGen && !srcIsGen && isInteger(src) {
					pass.Reportf(n.Pos(), "integer-to-store.Gen conversion: obtain generations from Handle.Gen or ParseGen")
				}
				if srcIsGen && !dstIsGen && isInteger(dst) {
					pass.Reportf(n.Pos(), "store.Gen-to-integer conversion: use Gen.String for wire formats; raw values must not leave the type")
				}
			}
			return true
		})
	}
	return nil, nil
}

func isInteger(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsInteger|types.IsUntyped) != 0
}
