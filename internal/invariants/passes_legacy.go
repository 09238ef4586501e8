package invariants

import (
	"go/ast"
	"go/types"
)

// The five passes in this file are the type-resolved ports of the
// original string-matching vetinvariants rules. Matching resolved
// objects instead of selector spellings means an import alias
// (`clk "time"`), a dot import, or a function value bound to a local
// (`now := time.Now; now()`) can no longer slip past them.

// runClockSource implements VI001: internal packages read the clock
// through obs.Now/obs.Since only.
func runClockSource(p *pass) {
	usesOf(p, "time", map[string]string{
		"Now":   "internal packages must use obs.Now, not time.Now (single clock source)",
		"Since": "internal packages must use obs.Since, not time.Since (single clock source)",
	}, "route the clock read through internal/obs so the TimingOn gate stays the only time source")
}

// runStrayPrint implements VI002: internal packages never print to
// stdout. The Fprint variants are fine — they write where the caller
// points them.
func runStrayPrint(p *pass) {
	const msg = "internal packages must not print to stdout; return values, log via obs or take an io.Writer"
	usesOf(p, "fmt", map[string]string{
		"Print": msg, "Printf": msg, "Println": msg,
	}, "use the obs logger, or accept an io.Writer and fmt.Fprintf into it")
}

// runDetectClone implements VI003: the detect fan-out neither clones
// circuits nor builds MNA systems. Any selection of a method named Clone
// is flagged — including method values that are never called directly —
// as is any reference to mna.NewSystem.
func runDetectClone(p *pass) {
	usesOf(p, "analogdft/internal/mna", map[string]string{
		"NewSystem": "internal/detect must not build MNA systems; reuse a pooled analysis.Engine",
	}, "request an engine from the per-worker pool instead of assembling a fresh system")
	for _, f := range p.pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			s, ok := p.pkg.Info.Selections[sel]
			if !ok || s.Obj() == nil || (s.Kind() != types.MethodVal && s.Kind() != types.MethodExpr) {
				return true
			}
			if s.Obj().Name() == "Clone" {
				p.report(sel.Sel, "internal/detect must not clone circuits; reuse a pooled analysis.Engine",
					"evaluate the cell through the engine pool's patched workspaces instead of copying")
			}
			return true
		})
	}
}

// blockingEntryPoints maps package path → blocking simulation entry
// points the job layer must avoid in favor of the ...Context variants.
var blockingEntryPoints = map[string]map[string]string{
	"analogdft": {
		"EvaluateCircuit": "the job layer must call EvaluateCircuitContext (or Session.Evaluate) so jobs stay cancellable",
		"BuildMatrix":     "the job layer must call BuildMatrixContext (or Session.Matrix) so jobs stay cancellable",
		"Optimize":        "the job layer must call OptimizeContext (or Session.Optimize) so jobs stay cancellable",
	},
	"analogdft/internal/detect": {
		"EvaluateCircuit": "the job layer must call detect.EvaluateCircuitContext so jobs stay cancellable",
		"BuildMatrix":     "the job layer must call detect.BuildMatrixContext so jobs stay cancellable",
	},
	"analogdft/internal/core": {
		"Optimize": "the job layer must call core.OptimizeContext so jobs stay cancellable",
	},
}

// runBlockingJob implements VI004: internal/jobs and cmd/dftserved touch
// only the cancellable simulation entry points.
func runBlockingJob(p *pass) {
	for path, names := range blockingEntryPoints {
		usesOf(p, path, names,
			"pass the job's context through the ...Context variant so drain and client aborts reach the engine")
	}
}

// runCloningFactor implements VI005: the sweep engine factors in place.
func runCloningFactor(p *pass) {
	usesOf(p, "analogdft/internal/numeric", map[string]string{
		"Factor": "internal/analysis must factor in place (numeric.FactorInPlace or the sweeper's sparse Workspace), never via the cloning numeric.Factor",
	}, "factor through the sweeper's workspace so sweeps stay allocation-flat")
}
