package vexec

import (
	"fmt"
	"strings"

	"xnf/internal/colstore"
	"xnf/internal/types"
)

// PruneTerm is one conjunct of a scan predicate usable for zone-map
// pruning: table column Col compared against an execution-time scalar (a
// literal or a parameter). The optimizer extracts terms at compile time;
// scans resolve them against the parameter frame at Open and hand the
// resulting bounds to the column store, which skips whole segments whose
// per-segment min/max refute a bound.
type PruneTerm struct {
	Col int
	Opc int   // comparison opcode (opEq … opGe, opIsNull, opIsNotNull, opHull)
	Val VExpr // *vConst, *vParam or *vTail; nil for IS [NOT] NULL terms
	// Or holds the branches of an opHull term: a disjunction bounded by
	// parameters, whose hull is folded per execution (see orHullTerms).
	Or []VExpr
}

// Pseudo-opcodes for the nullness conjuncts `col IS NULL` / `col IS NOT
// NULL`, which prune against the segment's live null count instead of its
// min/max. Numbered past the comparison opcodes so the two ranges never
// collide.
const (
	opIsNull = iota + len(cmpName)
	opIsNotNull
	// opHull is a deferred OR hull: ResolveBounds folds the branches once
	// the parameter frame is known, into opGe/opLe terms like the ones a
	// literal disjunction gets at compile time.
	opHull
)

// String renders the term for EXPLAIN output.
func (t PruneTerm) String() string {
	switch t.Opc {
	case opIsNull:
		return fmt.Sprintf("#%d IS NULL", t.Col)
	case opIsNotNull:
		return fmt.Sprintf("#%d IS NOT NULL", t.Col)
	case opHull:
		parts := make([]string, len(t.Or))
		for i, br := range t.Or {
			parts[i] = br.String()
		}
		return "HULL(" + strings.Join(parts, " OR ") + ")"
	}
	return fmt.Sprintf("#%d %s %s", t.Col, cmpName[t.Opc], t.Val.String())
}

// PruneTermsString renders a term list for EXPLAIN output.
func PruneTermsString(terms []PruneTerm) string {
	parts := make([]string, len(terms))
	for i, t := range terms {
		parts[i] = t.String()
	}
	return strings.Join(parts, " AND ")
}

// ExtractPruneTerms collects the prunable conjuncts of a compiled scan
// predicate: it descends AND-shaped connectives (a selected row needs every
// conjunct true, so each conjunct prunes independently) and keeps
// comparisons between a bare scan column and an execution-time scalar.
// OR-shaped conjuncts contribute their bounding hull when every branch
// constrains the same column with scalar bounds — this covers small IN
// lists (desugared to `col = k1 OR col = k2 …`, hull [min k, max k]) and
// OR-of-BETWEEN double bounds (each branch desugars to `col >= lo AND
// col <= hi`, hull [min lo, max hi]). Everything else contributes nothing —
// pruning is purely an optimization, so missing terms only cost speed,
// never correctness.
func ExtractPruneTerms(pred VExpr) []PruneTerm {
	var out []PruneTerm
	var walk func(x VExpr)
	walk = func(x VExpr) {
		switch n := x.(type) {
		case *vAnd:
			walk(n.l)
			walk(n.r)
		case *vSeqAnd:
			walk(n.l)
			walk(n.r)
		case *vOr:
			out = append(out, orHullTerms(n)...)
		case *vUn:
			// IS [NOT] NULL over a bare scan column prunes on the segment's
			// live null count. NOT and unary minus contribute nothing.
			if s, ok := n.x.(*vSlot); ok {
				switch n.op {
				case "ISNULL":
					out = append(out, PruneTerm{Col: s.idx, Opc: opIsNull})
				case "ISNOTNULL":
					out = append(out, PruneTerm{Col: s.idx, Opc: opIsNotNull})
				}
			}
		case *vCmp:
			if n.opc == opNe {
				return
			}
			if s, ok := n.l.(*vSlot); ok && isScalarExpr(n.r) {
				out = append(out, PruneTerm{Col: s.idx, Opc: n.opc, Val: n.r})
				return
			}
			if s, ok := n.r.(*vSlot); ok && isScalarExpr(n.l) {
				out = append(out, PruneTerm{Col: s.idx, Opc: flipOpc(n.opc), Val: n.l})
			}
		}
	}
	walk(pred)
	return out
}

func isScalarExpr(x VExpr) bool {
	switch x.(type) {
	case *vConst, *vParam, *vTail:
		return true
	}
	return false
}

// orHullMaxBranches bounds hull extraction to small disjunctions (IN lists
// and a few OR'd ranges); a huge OR chain is not worth the compile-time
// walk.
const orHullMaxBranches = 16

// colRange is the literal bound interval one OR branch places on one
// column. Only non-strict reasoning is kept: a strict branch bound widens
// to its non-strict hull, which is conservative (it can only prune less).
type colRange struct {
	lo, hi       types.Value
	hasLo, hasHi bool
}

// orHullTerms computes the bounding hull of an OR-shaped conjunct: for each
// column that every satisfiable branch bounds, the union of the branch
// intervals yields `col >= min(lo)` and/or `col <= max(hi)` terms. If the
// OR holds for a row, some branch holds, so the row's value lies inside
// that branch's interval and hence inside the hull — the hull conjuncts are
// implied, and pruning on them is sound. Branches that can never be true (a
// comparison against NULL is Unknown everywhere) drop out of the union. Any
// branch that fails to bound a column disqualifies that column. A
// disjunction bounded by literals only is folded here; one with parameter
// bounds (an IN list of `?`, or of literals the plan cache lifted) becomes
// one opHull term that ResolveBounds folds per execution.
func orHullTerms(o *vOr) []PruneTerm {
	var branches []VExpr
	var flatten func(x VExpr) bool
	flatten = func(x VExpr) bool {
		if or, ok := x.(*vOr); ok {
			return flatten(or.l) && flatten(or.r)
		}
		branches = append(branches, x)
		return len(branches) <= orHullMaxBranches
	}
	if !flatten(o) {
		return nil
	}
	if paramBounded(branches) {
		return []PruneTerm{{Col: -1, Opc: opHull, Or: branches}}
	}
	return foldHull(branches, func(x VExpr) (types.Value, bool) {
		if c, ok := x.(*vConst); ok {
			return c.v, true
		}
		return types.Value{}, false
	})
}

// paramBounded reports whether some branch compares a scan column with a
// parameter.
func paramBounded(branches []VExpr) bool {
	found := false
	var walk func(x VExpr)
	walk = func(x VExpr) {
		switch n := x.(type) {
		case *vAnd:
			walk(n.l)
			walk(n.r)
		case *vSeqAnd:
			walk(n.l)
			walk(n.r)
		case *vCmp:
			_, ls := n.l.(*vSlot)
			_, rs := n.r.(*vSlot)
			if ls && isParam(n.r) || rs && isParam(n.l) {
				found = true
			}
		}
	}
	for _, br := range branches {
		walk(br)
	}
	return found
}

func isParam(x VExpr) bool {
	switch x.(type) {
	case *vParam, *vTail:
		return true
	}
	return false
}

// foldHull folds the branches' bounds, as resolve evaluates them, into
// literal hull terms.
func foldHull(branches []VExpr, resolve func(VExpr) (types.Value, bool)) []PruneTerm {
	// hull is the running union; nil until the first contributing branch.
	var hull map[int]*colRange
	for _, br := range branches {
		ranges, never := branchRanges(br, resolve)
		if never {
			continue // branch is always false: it cannot widen the hull
		}
		if len(ranges) == 0 {
			return nil // unconstrained branch: no column survives
		}
		if hull == nil {
			hull = ranges
			continue
		}
		for col, hr := range hull {
			br, ok := ranges[col]
			if !ok {
				delete(hull, col) // this branch leaves col unbounded
				continue
			}
			if hr.hasLo {
				switch {
				case !br.hasLo || !hullComparable(br.lo, hr.lo):
					hr.hasLo = false // unbounded or untrusted ordering: widen
				case types.Compare(br.lo, hr.lo) < 0:
					hr.lo = br.lo
				}
			}
			if hr.hasHi {
				switch {
				case !br.hasHi || !hullComparable(br.hi, hr.hi):
					hr.hasHi = false
				case types.Compare(br.hi, hr.hi) > 0:
					hr.hi = br.hi
				}
			}
		}
	}
	var out []PruneTerm
	for col, r := range hull {
		if r.hasLo {
			out = append(out, PruneTerm{Col: col, Opc: opGe, Val: &vConst{v: r.lo, str: r.lo.String()}})
		}
		if r.hasHi {
			out = append(out, PruneTerm{Col: col, Opc: opLe, Val: &vConst{v: r.hi, str: r.hi.String()}})
		}
	}
	return out
}

// hullComparable reports whether two literals have a trustworthy value
// order for hull reasoning: both numeric (INT and FLOAT compare cross-type)
// or the same type. types.Compare's type-tag ranking for anything else is a
// sort order, not a value order.
func hullComparable(a, b types.Value) bool {
	return (a.IsNumeric() && b.IsNumeric()) || a.T == b.T
}

// branchRanges folds the column bounds of one OR branch (descending its
// AND-shaped conjuncts) into per-column intervals; resolve gives a bound's
// value, or false where the bound does not count. never reports a branch
// that cannot be true — a comparison against NULL is Unknown on every row.
// Bounds of incomparable types (a string and a number on the same column)
// abandon that column rather than rely on the sort-order type ranking.
func branchRanges(x VExpr, resolve func(VExpr) (types.Value, bool)) (ranges map[int]*colRange, never bool) {
	ranges = make(map[int]*colRange)
	var walk func(x VExpr)
	walk = func(x VExpr) {
		if never {
			return
		}
		switch n := x.(type) {
		case *vAnd:
			walk(n.l)
			walk(n.r)
		case *vSeqAnd:
			walk(n.l)
			walk(n.r)
		case *vCmp:
			col, opc := -1, n.opc
			var k types.Value
			if s, ok := n.l.(*vSlot); ok {
				if c, isConst := resolve(n.r); isConst {
					col, k = s.idx, c
				}
			} else if s, ok := n.r.(*vSlot); ok {
				if c, isConst := resolve(n.l); isConst {
					col, k, opc = s.idx, c, flipOpc(n.opc)
				}
			}
			if col < 0 || opc == opNe {
				return
			}
			if k.IsNull() {
				never = true
				return
			}
			r, ok := ranges[col]
			if !ok {
				r = &colRange{}
				ranges[col] = r
			}
			// Intersect within the branch: conjuncts narrow the interval.
			switch opc {
			case opEq:
				walk(&vCmp{opc: opGe, l: n.l, r: n.r})
				walk(&vCmp{opc: opLe, l: n.l, r: n.r})
				return
			case opGt, opGe:
				if !r.hasLo || (hullComparable(r.lo, k) && types.Compare(k, r.lo) > 0) {
					r.lo, r.hasLo = k, true
				} else if !hullComparable(r.lo, k) {
					delete(ranges, col)
				}
			case opLt, opLe:
				if !r.hasHi || (hullComparable(r.hi, k) && types.Compare(k, r.hi) < 0) {
					r.hi, r.hasHi = k, true
				} else if !hullComparable(r.hi, k) {
					delete(ranges, col)
				}
			}
		}
	}
	walk(x)
	if never {
		return nil, true
	}
	// Mixed-type lo/hi on one column (comparable individually but not with
	// each other) cannot happen after the comparable checks above; drop any
	// columns that ended with no bound at all.
	for col, r := range ranges {
		if !r.hasLo && !r.hasHi {
			delete(ranges, col)
		}
	}
	return ranges, false
}

// ResolveBounds evaluates the terms against the parameter frame. Terms
// whose scalar cannot be resolved are dropped (the filter still applies the
// full predicate — pruning is only ever a subset of it). A NULL comparison
// value yields a Never bound: the conjunct is Unknown on every row, so
// every segment prunes.
func ResolveBounds(terms []PruneTerm, params types.Row) []colstore.ColBound {
	if len(terms) == 0 {
		return nil
	}
	e := env{params: params}
	out := make([]colstore.ColBound, 0, len(terms))
	for i := 0; i < len(terms); i++ {
		t := terms[i]
		if t.Opc == opHull {
			// Fold the hull now that the parameters are known, and resolve
			// its literal terms after the others.
			hull := foldHull(t.Or, func(x VExpr) (types.Value, bool) { return scalarOf(x, &e) })
			terms = append(terms[:len(terms):len(terms)], hull...)
			continue
		}
		if t.Opc == opIsNull || t.Opc == opIsNotNull {
			out = append(out, colstore.ColBound{
				Col:      t.Col,
				NullOnly: t.Opc == opIsNull,
				NotNull:  t.Opc == opIsNotNull,
			})
			continue
		}
		v, ok := scalarOf(t.Val, &e)
		if !ok {
			continue
		}
		b := colstore.ColBound{Col: t.Col}
		if v.IsNull() {
			b.Never = true
			out = append(out, b)
			continue
		}
		switch t.Opc {
		case opEq:
			b.Lo, b.Hi, b.HasLo, b.HasHi = v, v, true, true
		case opLt:
			b.Hi, b.HasHi, b.HiStrict = v, true, true
		case opLe:
			b.Hi, b.HasHi = v, true
		case opGt:
			b.Lo, b.HasLo, b.LoStrict = v, true, true
		case opGe:
			b.Lo, b.HasLo = v, true
		default:
			continue
		}
		out = append(out, b)
	}
	return out
}
