package invariants

import (
	"go/ast"
	"go/types"
)

const obsPath = "analogdft/internal/obs"

// runUngatedObservation implements VI006: a histogram observation whose
// value derives from the clock (obs.Since, a time.Duration, or a local
// assigned from either) must sit behind a TimingOn guard, so that
// timing-off registry snapshots stay bit-identical across worker counts
// and runs.
//
// A guard is recognized in three forms, checked lexically:
//
//   - an enclosing if whose condition mentions TimingOn (directly, or
//     through a local assigned from a TimingOn call — the
//     `timed := obs.TimingOn(); if timed { … }` idiom, including closures
//     capturing such a local);
//   - an earlier if in an enclosing block whose condition mentions
//     TimingOn and whose body terminates (`if !obs.TimingOn() { return }`);
//   - a bool parameter of the enclosing function used in the guard
//     condition, which delegates the proof to every caller (the
//     solveTally.record(err, start, timed) idiom in internal/mna).
func runUngatedObservation(p *pass) {
	for _, f := range p.pkg.Files {
		walkStack(f, func(stack []ast.Node, n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Observe" {
				return true
			}
			s, ok := p.pkg.Info.Selections[sel]
			if !ok || s.Obj() == nil || s.Obj().Pkg() == nil || s.Obj().Pkg().Path() != obsPath {
				return true
			}
			if len(call.Args) != 1 || !p.clockDerived(stack, call.Args[0], nil) {
				return true
			}
			if p.timingGuarded(stack, n) {
				return true
			}
			p.report(sel.Sel, "clock-derived observation is not guarded by the obs TimingOn gate",
				"wrap the observation in `if obs.TimingOn() { … }` (or an early `if !obs.TimingOn() { return }`) so timing-off snapshots stay deterministic")
			return true
		})
	}
}

// clockDerived reports whether expr's value traces back to the clock: a
// Since call, any sub-expression of type time.Duration, or a local
// variable def-traced to either. seen breaks assignment cycles.
func (p *pass) clockDerived(stack []ast.Node, expr ast.Expr, seen map[types.Object]bool) bool {
	derived := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if derived {
			return false
		}
		switch e := n.(type) {
		case *ast.CallExpr:
			if obj := calleeObj(p.pkg.Info, e); obj != nil &&
				(objectIs(obj, obsPath, "Since") || objectIs(obj, "time", "Since")) {
				derived = true
				return false
			}
		case *ast.Ident:
			obj := p.pkg.Info.ObjectOf(e)
			if obj == nil {
				return true
			}
			if typeIsPath(obj.Type(), "time", "Duration") {
				derived = true
				return false
			}
			if _, isVar := obj.(*types.Var); !isVar || seen[obj] {
				return true
			}
			if seen == nil {
				seen = make(map[types.Object]bool)
			}
			seen[obj] = true
			scope := enclosingTopDecl(stack)
			if scope == nil {
				return true
			}
			for _, rhs := range assignmentsTo(p.pkg.Info, scope, obj) {
				if p.clockDerived(stack, rhs, seen) {
					derived = true
					return false
				}
			}
		}
		return true
	})
	return derived
}

// timingGuarded reports whether node (whose ancestors are stack) is
// protected by a TimingOn guard in any recognized form.
func (p *pass) timingGuarded(stack []ast.Node, node ast.Node) bool {
	// Enclosing if (or its else arm) whose condition mentions timing.
	for i := len(stack) - 1; i >= 0; i-- {
		if ifs, ok := stack[i].(*ast.IfStmt); ok && p.mentionsTiming(stack, ifs.Cond) {
			return true
		}
	}
	// Earlier terminating guard in an enclosing block:
	// `if !obs.TimingOn() { return }` before the observation.
	for i := len(stack) - 1; i >= 0; i-- {
		block, ok := stack[i].(*ast.BlockStmt)
		if !ok {
			continue
		}
		for _, st := range block.List {
			if st.End() >= node.Pos() {
				break
			}
			ifs, ok := st.(*ast.IfStmt)
			if !ok || !p.mentionsTiming(stack, ifs.Cond) {
				continue
			}
			if blockTerminates(ifs.Body) {
				return true
			}
		}
	}
	return false
}

// mentionsTiming reports whether cond contains a TimingOn call, an
// identifier assigned from one, or a bool parameter of an enclosing
// function (caller-proved guard).
func (p *pass) mentionsTiming(stack []ast.Node, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if found {
			return false
		}
		switch e := n.(type) {
		case *ast.CallExpr:
			if obj := calleeObj(p.pkg.Info, e); obj != nil && objectIs(obj, obsPath, "TimingOn") {
				found = true
				return false
			}
		case *ast.Ident:
			obj := p.pkg.Info.ObjectOf(e)
			v, ok := obj.(*types.Var)
			if !ok || v.Type() == nil {
				return true
			}
			basic, ok := types.Unalias(v.Type()).Underlying().(*types.Basic)
			if !ok || basic.Kind() != types.Bool {
				return true
			}
			if isParamOf(p.pkg.Info, stack, obj) {
				found = true
				return false
			}
			scope := enclosingTopDecl(stack)
			if scope == nil {
				return true
			}
			for _, rhs := range assignmentsTo(p.pkg.Info, scope, obj) {
				if containsTimingOnCall(p.pkg.Info, rhs) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// containsTimingOnCall reports whether expr contains a call resolving to
// obs.TimingOn (package function or Runtime method).
func containsTimingOnCall(info *types.Info, expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if obj := calleeObj(info, call); obj != nil && objectIs(obj, obsPath, "TimingOn") {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// blockTerminates reports whether a block's last statement leaves the
// enclosing flow (return, panic, continue, break, goto).
func blockTerminates(b *ast.BlockStmt) bool {
	if b == nil || len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}
