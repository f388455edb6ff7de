package qgm

import (
	"fmt"
	"strings"

	"xnf/internal/types"
)

// Expr is a resolved QGM expression. Unlike ast.Expr, column references
// point at quantifiers (possibly of an enclosing box — that is how QGM
// models correlation) and subqueries are bound to quantifiers.
type Expr interface {
	exprNode()
	String() string
}

// Const is a literal value.
type Const struct {
	V types.Value
}

// Placeholder is a statement parameter (`?` marker): slot Idx of the
// argument frame the caller supplies at execution. It is a leaf like Const,
// but its value is bound at Open time rather than compile time, which is
// what lets one compiled plan serve every execution of a prepared
// statement.
type Placeholder struct {
	Idx  int
	Type types.Type // NullType when unknown until binding (see ast.Placeholder)
}

// ColRef reads column Ord of the row bound to quantifier Q.
type ColRef struct {
	Q   *Quantifier
	Ord int
}

// BinOp applies a binary operator: comparisons, arithmetic, AND, OR, LIKE.
type BinOp struct {
	Op   string
	L, R Expr
}

// UnOp applies NOT, unary minus, ISNULL or ISNOTNULL.
type UnOp struct {
	Op string
	X  Expr
}

// Func is a function call. Aggregates (COUNT/SUM/AVG/MIN/MAX) are only
// legal in GroupBy box heads; scalar functions anywhere.
type Func struct {
	Name     string
	Distinct bool
	Star     bool
	Args     []Expr
}

// Case is a searched CASE expression.
type Case struct {
	Whens []CaseWhen
	Else  Expr
}

// CaseWhen is one arm of a Case.
type CaseWhen struct {
	Cond, Result Expr
}

// SubqueryRef embeds a quantified subquery in an expression position:
// EXISTS(...) (Exist), NOT EXISTS / NOT IN (AntiExist) or a scalar
// subquery (Scalar). For Exist/AntiExist generated from IN, Preds carries
// the IN equality predicates to evaluate against each subquery row.
type SubqueryRef struct {
	Quant *Quantifier
	// Preds are evaluated with the subquery row bound to Quant; for a bare
	// EXISTS they are empty (any row satisfies).
	Preds []Expr
}

func (*Const) exprNode()       {}
func (*Placeholder) exprNode() {}
func (*ColRef) exprNode()      {}
func (*BinOp) exprNode()       {}
func (*UnOp) exprNode()        {}
func (*Func) exprNode()        {}
func (*Case) exprNode()        {}
func (*SubqueryRef) exprNode() {}

func (e *Const) String() string { return e.V.SQLLiteral() }

func (e *Placeholder) String() string { return fmt.Sprintf("?%d", e.Idx+1) }

func (e *ColRef) String() string {
	if e.Q == nil {
		return fmt.Sprintf("?.%d", e.Ord)
	}
	name := e.Q.Name
	if name == "" {
		name = fmt.Sprintf("q%d", e.Q.ID)
	}
	if e.Q.Input != nil && e.Ord < len(e.Q.Input.Head) {
		return name + "." + e.Q.Input.Head[e.Ord].Name
	}
	return fmt.Sprintf("%s.#%d", name, e.Ord)
}

func (e *BinOp) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L.String(), e.Op, e.R.String())
}

func (e *UnOp) String() string {
	switch e.Op {
	case "ISNULL":
		return fmt.Sprintf("(%s IS NULL)", e.X.String())
	case "ISNOTNULL":
		return fmt.Sprintf("(%s IS NOT NULL)", e.X.String())
	default:
		return fmt.Sprintf("%s(%s)", e.Op, e.X.String())
	}
}

func (e *Func) String() string {
	if e.Star {
		return e.Name + "(*)"
	}
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	d := ""
	if e.Distinct {
		d = "DISTINCT "
	}
	return fmt.Sprintf("%s(%s%s)", e.Name, d, strings.Join(args, ", "))
}

func (e *Case) String() string {
	var b strings.Builder
	b.WriteString("CASE")
	for _, w := range e.Whens {
		fmt.Fprintf(&b, " WHEN %s THEN %s", w.Cond.String(), w.Result.String())
	}
	if e.Else != nil {
		fmt.Fprintf(&b, " ELSE %s", e.Else.String())
	}
	b.WriteString(" END")
	return b.String()
}

func (e *SubqueryRef) String() string {
	kind := e.Quant.Type.String()
	box := "?"
	if e.Quant.Input != nil {
		box = fmt.Sprintf("box%d", e.Quant.Input.ID)
	}
	if len(e.Preds) == 0 {
		return fmt.Sprintf("%s(%s)", kind, box)
	}
	preds := make([]string, len(e.Preds))
	for i, p := range e.Preds {
		preds[i] = p.String()
	}
	return fmt.Sprintf("%s(%s | %s)", kind, box, strings.Join(preds, " AND "))
}

// WalkExpr visits e and all sub-expressions depth-first, including the
// predicates carried by SubqueryRefs (but not the subquery boxes).
func WalkExpr(e Expr, visit func(Expr)) {
	if e == nil {
		return
	}
	visit(e)
	switch n := e.(type) {
	case *BinOp:
		WalkExpr(n.L, visit)
		WalkExpr(n.R, visit)
	case *UnOp:
		WalkExpr(n.X, visit)
	case *Func:
		for _, a := range n.Args {
			WalkExpr(a, visit)
		}
	case *Case:
		for _, w := range n.Whens {
			WalkExpr(w.Cond, visit)
			WalkExpr(w.Result, visit)
		}
		WalkExpr(n.Else, visit)
	case *SubqueryRef:
		for _, p := range n.Preds {
			WalkExpr(p, visit)
		}
	}
}

// RewriteExpr rebuilds e bottom-up, replacing each node with fn's result.
// fn receives a node whose children are already rewritten.
func RewriteExpr(e Expr, fn func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	switch n := e.(type) {
	case *BinOp:
		return fn(&BinOp{Op: n.Op, L: RewriteExpr(n.L, fn), R: RewriteExpr(n.R, fn)})
	case *UnOp:
		return fn(&UnOp{Op: n.Op, X: RewriteExpr(n.X, fn)})
	case *Func:
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = RewriteExpr(a, fn)
		}
		return fn(&Func{Name: n.Name, Distinct: n.Distinct, Star: n.Star, Args: args})
	case *Case:
		whens := make([]CaseWhen, len(n.Whens))
		for i, w := range n.Whens {
			whens[i] = CaseWhen{Cond: RewriteExpr(w.Cond, fn), Result: RewriteExpr(w.Result, fn)}
		}
		return fn(&Case{Whens: whens, Else: RewriteExpr(n.Else, fn)})
	case *SubqueryRef:
		preds := make([]Expr, len(n.Preds))
		for i, p := range n.Preds {
			preds[i] = RewriteExpr(p, fn)
		}
		return fn(&SubqueryRef{Quant: n.Quant, Preds: preds})
	default:
		return fn(e)
	}
}

// QuantsIn returns the set of quantifiers referenced by the expression
// (not descending into subquery boxes, but including subquery quantifiers).
func QuantsIn(e Expr) map[*Quantifier]bool {
	out := make(map[*Quantifier]bool)
	WalkExpr(e, func(x Expr) {
		switch n := x.(type) {
		case *ColRef:
			out[n.Q] = true
		case *SubqueryRef:
			out[n.Quant] = true
		}
	})
	return out
}

// RefersOnlyTo reports whether every quantifier referenced by e is in the
// allowed set.
func RefersOnlyTo(e Expr, allowed map[*Quantifier]bool) bool {
	ok := true
	for q := range QuantsIn(e) {
		if !allowed[q] {
			ok = false
		}
	}
	return ok
}

// SubstituteQuant rewrites column references over `from` into references
// over `to` with the ordinal mapped through ordMap (from-ordinal →
// to-ordinal). It is the workhorse of box merging.
func SubstituteQuant(e Expr, from, to *Quantifier, ordMap map[int]int) Expr {
	return RewriteExpr(e, func(x Expr) Expr {
		if c, ok := x.(*ColRef); ok && c.Q == from {
			if newOrd, ok := ordMap[c.Ord]; ok {
				return &ColRef{Q: to, Ord: newOrd}
			}
		}
		return x
	})
}

// InlineExpr replaces references to quantifier q with the corresponding
// head expressions of its input box (used when merging a child Select box
// into its consumer).
func InlineExpr(e Expr, q *Quantifier) Expr {
	return RewriteExpr(e, func(x Expr) Expr {
		if c, ok := x.(*ColRef); ok && c.Q == q {
			return q.Input.Head[c.Ord].Expr
		}
		return x
	})
}

// ExprType infers the result type of a QGM expression.
func ExprType(e Expr) types.Type {
	switch n := e.(type) {
	case *Const:
		return n.V.T
	case *Placeholder:
		return n.Type
	case *ColRef:
		if n.Q != nil && n.Q.Input != nil && n.Ord < len(n.Q.Input.Head) {
			return n.Q.Input.Head[n.Ord].Type
		}
		return types.NullType
	case *BinOp:
		switch n.Op {
		case "AND", "OR", "=", "<>", "!=", "<", "<=", ">", ">=", "LIKE":
			return types.BoolType
		case "||":
			return types.StringType
		default:
			lt, rt := ExprType(n.L), ExprType(n.R)
			if lt == types.FloatType || rt == types.FloatType {
				return types.FloatType
			}
			return types.IntType
		}
	case *UnOp:
		switch n.Op {
		case "NOT", "ISNULL", "ISNOTNULL":
			return types.BoolType
		default:
			return ExprType(n.X)
		}
	case *Func:
		switch strings.ToUpper(n.Name) {
		case "COUNT":
			return types.IntType
		case "AVG":
			return types.FloatType
		case "SUM", "MIN", "MAX", "ABS":
			if len(n.Args) > 0 {
				return ExprType(n.Args[0])
			}
			return types.IntType
		case "UPPER", "LOWER":
			return types.StringType
		case "LENGTH":
			return types.IntType
		default:
			return types.NullType
		}
	case *Case:
		for _, w := range n.Whens {
			if t := ExprType(w.Result); t != types.NullType {
				return t
			}
		}
		return ExprType(n.Else)
	case *SubqueryRef:
		if n.Quant.Type == Scalar && n.Quant.Input != nil && len(n.Quant.Input.Head) > 0 {
			return n.Quant.Input.Head[0].Type
		}
		return types.BoolType
	default:
		return types.NullType
	}
}

// IsAggregate reports whether the expression contains an aggregate call.
func IsAggregate(e Expr) bool {
	agg := false
	WalkExpr(e, func(x Expr) {
		if f, ok := x.(*Func); ok {
			switch strings.ToUpper(f.Name) {
			case "COUNT", "SUM", "AVG", "MIN", "MAX":
				agg = true
			}
		}
	})
	return agg
}

// EqualExpr reports structural equality of two expressions (quantifier
// identity for column refs). Used for common-subexpression detection and
// GROUP BY matching.
func EqualExpr(a, b Expr) bool {
	if a == nil || b == nil {
		return a == b
	}
	switch x := a.(type) {
	case *Const:
		y, ok := b.(*Const)
		return ok && types.Equal(x.V, y.V) && x.V.T == y.V.T
	case *Placeholder:
		y, ok := b.(*Placeholder)
		return ok && x.Idx == y.Idx
	case *ColRef:
		y, ok := b.(*ColRef)
		return ok && x.Q == y.Q && x.Ord == y.Ord
	case *BinOp:
		y, ok := b.(*BinOp)
		return ok && x.Op == y.Op && EqualExpr(x.L, y.L) && EqualExpr(x.R, y.R)
	case *UnOp:
		y, ok := b.(*UnOp)
		return ok && x.Op == y.Op && EqualExpr(x.X, y.X)
	case *Func:
		y, ok := b.(*Func)
		if !ok || x.Name != y.Name || x.Distinct != y.Distinct || x.Star != y.Star || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !EqualExpr(x.Args[i], y.Args[i]) {
				return false
			}
		}
		return true
	case *Case:
		y, ok := b.(*Case)
		if !ok || len(x.Whens) != len(y.Whens) {
			return false
		}
		for i := range x.Whens {
			if !EqualExpr(x.Whens[i].Cond, y.Whens[i].Cond) || !EqualExpr(x.Whens[i].Result, y.Whens[i].Result) {
				return false
			}
		}
		return EqualExpr(x.Else, y.Else)
	case *SubqueryRef:
		y, ok := b.(*SubqueryRef)
		return ok && x.Quant == y.Quant
	default:
		return false
	}
}

// AndAll conjoins predicates into a single expression (nil for empty).
func AndAll(preds []Expr) Expr {
	var out Expr
	for _, p := range preds {
		if out == nil {
			out = p
		} else {
			out = &BinOp{Op: "AND", L: out, R: p}
		}
	}
	return out
}
