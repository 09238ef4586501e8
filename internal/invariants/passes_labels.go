package invariants

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// runUnboundedLabel implements VI008: the label value handed to
// (*obs.CounterVec).With / (*obs.HistogramVec).With must provably come
// from a fixed string set, because every distinct value registers a new
// metric series for the lifetime of the process. Request-derived data —
// a trace ID, a cache key, a job ID — is exactly what must never reach a
// label.
//
// An expression is accepted as bounded when it is:
//
//   - a constant (including conversions of typed constants);
//   - a value of a named enum type: a named type whose own package
//     declares constants of that type (job State, detect rung);
//   - a String() call on such an enum type (the stringer of a closed set);
//   - fmt.Sprintf with a constant format whose arguments are themselves
//     bounded or numeric/bool (the "%dxx" status-class idiom — numeric
//     inputs cannot carry request strings);
//   - a local variable all of whose assignments are bounded.
func runUnboundedLabel(p *pass) {
	for _, f := range p.pkg.Files {
		walkStack(f, func(stack []ast.Node, n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "With" {
				return true
			}
			s, ok := p.pkg.Info.Selections[sel]
			if !ok || s.Obj() == nil || s.Obj().Pkg() == nil || s.Obj().Pkg().Path() != obsPath {
				return true
			}
			recv := s.Recv()
			if !typeIsPath(recv, obsPath, "CounterVec") && !typeIsPath(recv, obsPath, "HistogramVec") {
				return true
			}
			if len(call.Args) != 1 || p.boundedLabel(stack, call.Args[0], nil) {
				return true
			}
			p.report(call.Args[0], "metric label value is not drawn from a fixed string set (cardinality explosion risk)",
				"label with a constant, a closed enum type or its String(); put per-request identity in exemplars or trace tags instead")
			return true
		})
	}
}

// boundedLabel reports whether expr provably evaluates to one of a fixed
// set of strings. seen breaks def-tracing cycles.
func (p *pass) boundedLabel(stack []ast.Node, expr ast.Expr, seen map[types.Object]bool) bool {
	expr = ast.Unparen(expr)
	if tv, ok := p.pkg.Info.Types[expr]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		return true
	}
	if p.isEnumExpr(expr) {
		return true
	}
	switch e := expr.(type) {
	case *ast.CallExpr:
		// Conversion: string(enumValue) and friends — judge the operand.
		if isConversion(p.pkg.Info, e) && len(e.Args) == 1 {
			return p.boundedLabel(stack, e.Args[0], seen)
		}
		obj := calleeObj(p.pkg.Info, e)
		// Stringer of a closed enum: ErrorPolicy.String() etc.
		if obj != nil && obj.Name() == "String" {
			if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
				if s, ok := p.pkg.Info.Selections[sel]; ok {
					if named := namedType(s.Recv()); named != nil && enumConstCount(named) > 0 {
						return true
					}
				}
			}
		}
		// fmt.Sprintf over a constant format and non-string inputs.
		if obj != nil && objectIs(obj, "fmt", "Sprintf") && len(e.Args) >= 1 {
			if tv, ok := p.pkg.Info.Types[e.Args[0]]; !ok || tv.Value == nil {
				return false
			}
			for _, arg := range e.Args[1:] {
				if !p.boundedLabel(stack, arg, seen) && !isNonStringBasic(p.pkg.Info, arg) {
					return false
				}
			}
			return true
		}
	case *ast.Ident:
		obj := p.pkg.Info.ObjectOf(e)
		if _, isVar := obj.(*types.Var); !isVar || seen[obj] {
			return false
		}
		if seen == nil {
			seen = make(map[types.Object]bool)
		}
		seen[obj] = true
		scope := enclosingTopDecl(stack)
		if scope == nil {
			return false
		}
		assigns := assignmentsTo(p.pkg.Info, scope, obj)
		if len(assigns) == 0 {
			return false
		}
		for _, rhs := range assigns {
			if !p.boundedLabel(stack, rhs, seen) {
				return false
			}
		}
		return true
	}
	return false
}

// isEnumExpr reports whether expr's type is a closed enum: a named type
// whose defining package declares constants of exactly that type.
func (p *pass) isEnumExpr(expr ast.Expr) bool {
	tv, ok := p.pkg.Info.Types[expr]
	if !ok {
		return false
	}
	named := namedType(tv.Type)
	if named == nil {
		return false
	}
	// A plain `string`-named stdlib type is not an enum; require declared
	// constants of the type itself.
	return enumConstCount(named) > 0
}

// isNonStringBasic reports whether expr has a basic non-string type
// (ints, floats, bool): values that cannot smuggle a request string into
// a label, only at worst a bounded numeral family.
func isNonStringBasic(info *types.Info, expr ast.Expr) bool {
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	basic, ok := types.Unalias(tv.Type).Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString == 0 && basic.Kind() != types.Invalid
}
