package lpparse

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"billcap/internal/lp"
	"billcap/internal/milp"
)

// Write serializes a MILP into the text format Parse reads, so that any
// model built programmatically (including the bill capper's hourly MILPs)
// can be dumped, inspected and re-solved with cmd/milpsolve. Variable names
// are sanitized into valid identifiers (and de-duplicated) because model
// builders use characters like '.' that the format does not allow.
func Write(w io.Writer, p *milp.Problem) error {
	names := sanitizedNames(p)

	// Objective.
	dir := "min"
	if p.Maximizing() {
		dir = "max"
	}
	var terms []string
	for v := 0; v < p.NumVars(); v++ {
		if c := p.ObjectiveCoef(v); c != 0 {
			terms = append(terms, term(c, names[v], len(terms) == 0))
		}
	}
	if len(terms) == 0 {
		// The format requires a nonempty objective; 0·x0 keeps it neutral.
		if p.NumVars() == 0 {
			return fmt.Errorf("lpparse: cannot write a problem with no variables")
		}
		terms = append(terms, "0 "+names[0])
	}
	if _, err := fmt.Fprintf(w, "%s: %s\n", dir, strings.Join(terms, " ")); err != nil {
		return err
	}

	// Constraints.
	for k := 0; k < p.NumConstraints(); k++ {
		c := p.Constraint(k)
		var row []string
		for _, t := range c.Terms {
			if t.Coef != 0 {
				row = append(row, term(t.Coef, names[t.Var], len(row) == 0))
			}
		}
		if len(row) == 0 {
			// A constant row: representable only if trivially true; emit a
			// neutral row over variable 0 to preserve solvability.
			switch c.Rel {
			case lp.LE:
				if 0 <= c.RHS {
					continue
				}
			case lp.GE:
				if 0 >= c.RHS {
					continue
				}
			case lp.EQ:
				if c.RHS == 0 {
					continue
				}
			}
			return fmt.Errorf("lpparse: row %d is an unsatisfiable constant constraint", k)
		}
		if _, err := fmt.Fprintf(w, "c%d: %s %s %s\n",
			k, strings.Join(row, " "), c.Rel, fmtNum(c.RHS)); err != nil {
			return err
		}
	}

	// Bounds: every variable whose [lo, hi] differs from the [0, +Inf)
	// default gets one statement, so native bounds (binaries, per-site
	// capacities) round-trip without being lowered to rows.
	for v := 0; v < p.NumVars(); v++ {
		lo, hi := p.VarBounds(v)
		var stmt string
		switch {
		case lo == 0 && math.IsInf(hi, 1):
			continue
		case lo == hi:
			stmt = fmt.Sprintf("bounds: %s = %s", names[v], fmtNum(lo))
		case math.IsInf(hi, 1):
			stmt = fmt.Sprintf("bounds: %s >= %s", names[v], fmtNum(lo))
		case lo == 0:
			stmt = fmt.Sprintf("bounds: %s <= %s", names[v], fmtNum(hi))
		default:
			stmt = fmt.Sprintf("bounds: %s <= %s <= %s", fmtNum(lo), names[v], fmtNum(hi))
		}
		if _, err := fmt.Fprintln(w, stmt); err != nil {
			return err
		}
	}

	// Integrality.
	var ints []string
	for v := 0; v < p.NumVars(); v++ {
		if p.IsInteger(v) {
			ints = append(ints, names[v])
		}
	}
	if len(ints) > 0 {
		if _, err := fmt.Fprintf(w, "int %s\n", strings.Join(ints, " ")); err != nil {
			return err
		}
	}
	return nil
}

// term renders one "±coef name" fragment.
func term(coef float64, name string, first bool) string {
	sign := "+ "
	if first {
		sign = ""
	}
	if coef < 0 {
		sign = "- "
		coef = -coef
	}
	if coef == 1 {
		return sign + name
	}
	return sign + fmtNum(coef) + " " + name
}

// fmtNum renders a float without scientific notation (the format forbids
// it), keeping full precision.
func fmtNum(v float64) string {
	s := strconv.FormatFloat(v, 'f', -1, 64)
	return s
}

// sanitizedNames maps every variable to a unique valid identifier derived
// from its diagnostic name.
func sanitizedNames(p *milp.Problem) []string {
	used := map[string]bool{}
	out := make([]string, p.NumVars())
	for v := range out {
		base := sanitizeIdent(p.VarName(v))
		name := base
		for i := 2; used[name]; i++ {
			name = fmt.Sprintf("%s_%d", base, i)
		}
		used[name] = true
		out[v] = name
	}
	return out
}

func sanitizeIdent(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if b.Len() == 0 {
				b.WriteByte('v')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "v"
	}
	return b.String()
}
