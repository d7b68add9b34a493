package lp

import "slices"

// Basis is a simplex basis that names its columns instead of numbering
// them, so that it can crash a problem of another shape: the next hour's
// model, whose price segments came into or went out of reach and moved every
// column and row index. A structural column is named by its variable's name,
// a slack by a key of its row: the row's relation and the names of the
// variables it references. Two columns that share a key (duplicate variable
// names, two rows over the same variables with the same relation) cost the
// crash pivots, never a wrong answer: the crash factors whatever columns the
// keys select and repairs the rest.
//
// The zero Basis is empty; crashing from it is a cold solve.
type Basis struct {
	keys []uint64 // sorted, distinct
}

// has reports whether the basis names key.
func (b Basis) has(key uint64) bool {
	_, ok := slices.BinarySearch(b.keys, key)
	return ok
}

// nameKeys returns each variable's name hash (64-bit FNV-1a).
func (p *Problem) nameKeys() []uint64 {
	out := make([]uint64, len(p.names))
	for j, s := range p.names {
		h := uint64(14695981039346656037)
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
		out[j] = h
	}
	return out
}

// varKey is structural column j's key. Structural keys are even and row
// keys odd, so a variable and a row never share one.
func varKey(names []uint64, j int) uint64 { return names[j] &^ 1 }

// rowKey is the key of row k's slack: its relation and the names of the
// variables it references, combined order-independently.
func (p *Problem) rowKey(names []uint64, k int) uint64 {
	c := &p.constraints[k]
	h := uint64(c.Rel) + 1
	for _, t := range c.Terms {
		h += mix64(names[t.Var])
	}
	return mix64(h) | 1
}

// RowKeys returns, per row, the key a Basis names the row's slack by. Two
// rows with one key make a basis that names either ambiguous; a model
// builder can check its rows against that.
func (p *Problem) RowKeys() []uint64 {
	names := p.nameKeys()
	out := make([]uint64, len(p.constraints))
	for k := range out {
		out[k] = p.rowKey(names, k)
	}
	return out
}

// mix64 is the splitmix64 finalizer.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

// basisOf names the columns of an index basis (structural j < n, slack of
// row i at n+i) of problem p.
func (p *Problem) basisOf(cols []int) Basis {
	names := p.nameKeys()
	n := len(p.obj)
	keys := make([]uint64, len(cols))
	for i, j := range cols {
		if j < n {
			keys[i] = varKey(names, j)
		} else {
			keys[i] = p.rowKey(names, j-n)
		}
	}
	slices.Sort(keys)
	return Basis{keys: slices.Compact(keys)}
}

// crashColumns returns the columns of p that b names, structurals first,
// each in index order.
func (p *Problem) crashColumns(b Basis) []int {
	names := p.nameKeys()
	n := len(p.obj)
	cols := make([]int, 0, len(b.keys))
	for j := 0; j < n; j++ {
		if b.has(varKey(names, j)) {
			cols = append(cols, j)
		}
	}
	for k := range p.constraints {
		if b.has(p.rowKey(names, k)) {
			cols = append(cols, n+k)
		}
	}
	return cols
}
