package invariants

// The three passes in this file are the type-resolved ports of the
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
