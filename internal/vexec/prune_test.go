package vexec

import (
	"testing"

	"xnf/internal/exec"
	"xnf/internal/types"
)

// prune-term test helpers: build row expressions and lower them.
func slot(i int) exec.Expr        { return &exec.Slot{Idx: i, Name: "c"} }
func lit(v types.Value) exec.Expr { return &exec.Const{V: v} }
func bin(op string, l, r exec.Expr) exec.Expr {
	return &exec.Bin{Op: op, L: l, R: r}
}

func extract(t *testing.T, x exec.Expr) []PruneTerm {
	t.Helper()
	v, ok := CompileExpr(x)
	if !ok {
		t.Fatalf("CompileExpr failed for %v", x)
	}
	return ExtractPruneTerms(v)
}

// boundsOf resolves the terms with an empty parameter frame and returns
// them keyed by column.
func boundsOf(terms []PruneTerm) map[int][]string { return boundsWith(terms, nil) }

// boundsWith resolves the terms against a parameter frame and returns them
// keyed by column.
func boundsWith(terms []PruneTerm, params types.Row) map[int][]string {
	out := make(map[int][]string)
	for _, b := range ResolveBounds(terms, params) {
		s := ""
		if b.HasLo {
			s += ">=" + b.Lo.String()
		}
		if b.HasHi {
			s += "<=" + b.Hi.String()
		}
		if b.Never {
			s += "never"
		}
		out[b.Col] = append(out[b.Col], s)
	}
	return out
}

func TestExtractPruneTermsORHull(t *testing.T) {
	i := func(n int64) exec.Expr { return lit(types.NewInt(n)) }

	// IN-list shape: (c0 = 1 OR c0 = 2) OR c0 = 7 → hull [1, 7].
	in := bin("OR", bin("OR", bin("=", slot(0), i(1)), bin("=", slot(0), i(2))), bin("=", slot(0), i(7)))
	got := boundsOf(extract(t, in))
	if len(got[0]) != 2 || got[0][0] != ">=1" && got[0][1] != ">=1" {
		t.Fatalf("IN hull bounds = %v, want >=1 and <=7", got[0])
	}
	found := map[string]bool{}
	for _, s := range got[0] {
		found[s] = true
	}
	if !found[">=1"] || !found["<=7"] {
		t.Fatalf("IN hull bounds = %v, want >=1 and <=7", got[0])
	}

	// OR of BETWEEN-derived double bounds: hull [10, 40].
	between := func(lo, hi int64) exec.Expr {
		return bin("AND", bin(">=", slot(0), i(lo)), bin("<=", slot(0), i(hi)))
	}
	orb := bin("OR", between(10, 15), between(30, 40))
	found = map[string]bool{}
	for _, s := range boundsOf(extract(t, orb))[0] {
		found[s] = true
	}
	if !found[">=10"] || !found["<=40"] {
		t.Fatalf("OR-BETWEEN hull = %v, want >=10 and <=40", boundsOf(extract(t, orb))[0])
	}

	// Different columns per branch: nothing extractable.
	if terms := extract(t, bin("OR", bin("=", slot(0), i(1)), bin("=", slot(1), i(2)))); len(terms) != 0 {
		t.Fatalf("cross-column OR extracted %v", terms)
	}

	// A NULL branch can never be true: it drops out of the union.
	withNull := bin("OR", bin("=", slot(0), lit(types.Null)), bin("=", slot(0), i(5)))
	found = map[string]bool{}
	for _, s := range boundsOf(extract(t, withNull))[0] {
		found[s] = true
	}
	if !found[">=5"] || !found["<=5"] {
		t.Fatalf("NULL-branch hull = %v, want >=5 and <=5", boundsOf(extract(t, withNull))[0])
	}

	// A branch with only an upper bound drops the hull's lower bound.
	half := bin("OR", between(10, 15), bin("<", slot(0), i(3)))
	bounds := boundsOf(extract(t, half))[0]
	if len(bounds) != 1 || bounds[0] != "<=15" {
		t.Fatalf("half-open hull = %v, want only <=15", bounds)
	}

	// Mixed incomparable literal types abandon the column.
	mixed := bin("OR", bin("=", slot(0), i(1)), bin("=", slot(0), lit(types.NewString("a"))))
	if terms := extract(t, mixed); len(terms) != 0 {
		t.Fatalf("mixed-type OR extracted %v", terms)
	}

	// A parameter bound defers the hull to Open: one opHull term, folded
	// against each execution's frame exactly like a literal disjunction.
	param := bin("OR", bin("=", slot(0), &exec.Param{Idx: 0, Name: "?1"}), bin("=", slot(0), i(5)))
	terms := extract(t, param)
	if len(terms) != 1 || terms[0].Opc != opHull {
		t.Fatalf("parameter OR extracted %v, want one deferred hull term", terms)
	}
	for _, c := range []struct {
		arg  types.Value
		want []string
	}{
		{types.NewInt(1), []string{">=1", "<=5"}},
		{types.NewInt(9), []string{">=5", "<=9"}},
		{types.Null, []string{">=5", "<=5"}}, // the NULL branch drops out
		{types.NewString("a"), nil},          // incomparable: no bound
	} {
		found := map[string]bool{}
		got := boundsWith(terms, types.Row{c.arg})[0]
		for _, s := range got {
			found[s] = true
		}
		if len(got) != len(c.want) || len(c.want) > 0 && (!found[c.want[0]] || !found[c.want[1]]) {
			t.Fatalf("parameter hull with ?1 = %v: %v, want %v", c.arg, got, c.want)
		}
	}

	// Plain conjuncts still extract alongside an OR hull.
	both := bin("AND", bin(">", slot(1), i(100)), in)
	byCol := boundsOf(extract(t, both))
	if len(byCol[1]) != 1 || len(byCol[0]) != 2 {
		t.Fatalf("AND(cmp, OR-hull) = %v, want bounds on both columns", byCol)
	}
}

// TestExtractPruneTermsNullness covers the IS [NOT] NULL prune terms: bare
// scan columns extract a nullness bound, anything else contributes nothing,
// and the resolved ColBound carries the right flag.
func TestExtractPruneTermsNullness(t *testing.T) {
	un := func(op string, x exec.Expr) exec.Expr { return &exec.Un{Op: op, X: x} }

	terms := extract(t, bin("AND", un("ISNULL", slot(2)), un("ISNOTNULL", slot(3))))
	if len(terms) != 2 {
		t.Fatalf("extracted %d terms, want 2: %v", len(terms), terms)
	}
	bounds := ResolveBounds(terms, nil)
	if len(bounds) != 2 {
		t.Fatalf("resolved %d bounds, want 2", len(bounds))
	}
	if bounds[0].Col != 2 || !bounds[0].NullOnly || bounds[0].NotNull {
		t.Fatalf("bound 0 = %+v, want Col=2 NullOnly", bounds[0])
	}
	if bounds[1].Col != 3 || !bounds[1].NotNull || bounds[1].NullOnly {
		t.Fatalf("bound 1 = %+v, want Col=3 NotNull", bounds[1])
	}
	if s := terms[0].String(); s != "#2 IS NULL" {
		t.Fatalf("term 0 renders %q", s)
	}
	if s := terms[1].String(); s != "#3 IS NOT NULL" {
		t.Fatalf("term 1 renders %q", s)
	}

	// NOT over a column, and IS NULL over a non-column, extract nothing.
	if terms := extract(t, un("NOT", slot(0))); len(terms) != 0 {
		t.Fatalf("NOT extracted %v", terms)
	}
	if terms := extract(t, un("ISNULL", bin("+", slot(0), lit(types.NewInt(1))))); len(terms) != 0 {
		t.Fatalf("ISNULL over expression extracted %v", terms)
	}
}
