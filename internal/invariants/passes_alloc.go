package invariants

// runDenseHotAlloc implements VI011: the sweep and detect layers never
// allocate whole dense matrices. Every per-point matrix those layers
// touch is a numeric.MatrixView over a slab the caller sized once and
// reuses across the grid — an O(n²) allocation inside the cell fan-out
// or the low-rank grid build would silently undo the allocation-flat
// design the engine pool exists for.
func runDenseHotAlloc(p *pass) {
	const hint = "back the matrix with a slab view (numeric.MatrixView); the sparse layout detaches factors into arenas instead"
	usesOf(p, "analogdft/internal/numeric", map[string]string{
		"NewMatrix": "hot simulation layers must not allocate dense matrices via numeric.NewMatrix; use a slab-backed view",
		"Identity":  "hot simulation layers must not allocate dense matrices via numeric.Identity; use a slab-backed view",
		"FromRows":  "hot simulation layers must not allocate dense matrices via numeric.FromRows; use a slab-backed view",
	}, hint)
}
