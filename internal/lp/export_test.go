package lp

// SolveSparse runs the sparse core alone; ok == false means it hit a
// numerical wall, which Solve would hide behind the dense fallback.
func (p *Problem) SolveSparse() (sol Solution, ok bool) {
	sol, _, ok = p.solveRevised(Options{})
	return sol, ok
}

// SolveDense runs the dense tableau alone: the oracle external tests compare
// the sparse core against.
func (p *Problem) SolveDense() Solution { return p.solveDense(Options{}) }
