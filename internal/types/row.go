package types

import "strings"

// Row is a tuple of values. Rows flow between executor operators and are
// stored by the storage engine.
type Row []Value

// Clone returns a copy of the row; Value is immutable so a shallow copy of
// the slice suffices.
func (r Row) Clone() Row {
	c := make(Row, len(r))
	copy(c, r)
	return c
}

// Concat returns a new row holding r followed by o (join concatenation).
func (r Row) Concat(o Row) Row {
	c := make(Row, 0, len(r)+len(o))
	c = append(c, r...)
	c = append(c, o...)
	return c
}

// Hash combines the hashes of the projected columns; used by hash joins,
// DISTINCT and GROUP BY.
func (r Row) Hash(cols []int) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range cols {
		h = fnvLE(h, r[c].Hash())
	}
	return h
}

// HashAll is Hash over every column, without an ordinal slice: the hash
// of a key row (join, grouping and subplan keys, index probes).
func (r Row) HashAll() uint64 {
	h := uint64(fnvOffset64)
	for i := range r {
		h = fnvLE(h, r[i].Hash())
	}
	return h
}

// EqualOn reports whether two rows agree on the given columns under Equal.
func (r Row) EqualOn(o Row, cols []int) bool {
	for _, c := range cols {
		if !Equal(r[c], o[c]) {
			return false
		}
	}
	return true
}

// EqualRows reports whole-row equality.
func EqualRows(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// CompareRows orders rows lexicographically on the given columns with the
// given per-column direction (true = descending).
func CompareRows(a, b Row, cols []int, desc []bool) int {
	for i, c := range cols {
		cmp := Compare(a[c], b[c])
		if cmp != 0 {
			if i < len(desc) && desc[i] {
				return -cmp
			}
			return cmp
		}
	}
	return 0
}

// String renders a row as a pipe-separated line for tests and the REPL.
func (r Row) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return strings.Join(parts, "|")
}

// Key renders the projected columns as a canonical string key. It is used
// where a comparable map key over values is needed (e.g. recursion fixpoint
// dedup); SQLLiteral quoting makes it collision-free.
func (r Row) Key(cols []int) string {
	var b strings.Builder
	for i, c := range cols {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(r[c].SQLLiteral())
	}
	return b.String()
}
