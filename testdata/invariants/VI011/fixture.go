// Fixture for VI011 slab-backed-matrices: the analysis layer allocating
// whole dense matrices instead of wrapping slab storage.
package fixture

import num "analogdft/internal/numeric"

// seeded: a fresh dense matrix per call, through an aliased import.
func freshMatrix(n int) *num.Matrix { return num.NewMatrix(n, n) }

// seeded: bound function value — the pass matches the resolved object,
// not the call syntax.
var build = num.Identity

// seeded: row-copying constructor.
func fromRows(rows [][]complex128) (*num.Matrix, error) { return num.FromRows(rows) }

// negative: wrapping caller-owned slab storage is the sanctioned path.
func viewMatrix(n int, slab []complex128) *num.Matrix { return num.MatrixView(n, slab) }

// negative: a workspace bound to a sparse pattern reuses its buffers.
func ensure(ws *num.Workspace, p *num.Pattern) { ws.EnsureSparse(p) }
