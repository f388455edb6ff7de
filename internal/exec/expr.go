// Package exec is the query evaluation system (QES): demand-driven,
// pipelined iterators over physical plans — the paper's "table queue
// evaluation" (Sect. 3.1). Each operator interprets one plan node, taking
// tuple streams in and producing a tuple stream out. Plans are produced
// from QGM by internal/opt.
package exec

import (
	"fmt"
	"strings"

	"xnf/internal/types"
)

// Env is the evaluation environment of an expression: the current input
// row of the operator and the parameter frame passed from an enclosing
// plan (correlated subqueries, index-join key bindings).
type Env struct {
	Row    types.Row
	Params types.Row
	Ctx    *Ctx
}

// Expr is a compiled runtime expression.
type Expr interface {
	Eval(env *Env) (types.Value, error)
	String() string
}

// Slot reads column Idx of the operator's current input row.
type Slot struct {
	Idx  int
	Name string
}

// Eval implements Expr.
func (s *Slot) Eval(env *Env) (types.Value, error) {
	if s.Idx >= len(env.Row) {
		return types.Null, fmt.Errorf("exec: slot %d out of range (row width %d)", s.Idx, len(env.Row))
	}
	return env.Row[s.Idx], nil
}

func (s *Slot) String() string {
	if s.Name != "" {
		return s.Name
	}
	return fmt.Sprintf("$%d", s.Idx)
}

// Param reads column Idx of the current parameter frame.
type Param struct {
	Idx  int
	Name string
}

// Eval implements Expr.
func (p *Param) Eval(env *Env) (types.Value, error) {
	if p.Idx >= len(env.Params) {
		return types.Null, fmt.Errorf("exec: parameter %d out of range (frame width %d)", p.Idx, len(env.Params))
	}
	return env.Params[p.Idx], nil
}

func (p *Param) String() string { return fmt.Sprintf("?%d(%s)", p.Idx, p.Name) }

// TailParam reads the parameter frame from the end: Back=0 is the last
// value. Nested-loop joins append their per-row bindings to the frame, so
// operators directly beneath a rebinding join (index lookups keyed by the
// driving row) address those bindings tail-relative, which stays correct
// however wide the enclosing subquery frame is.
type TailParam struct {
	Back int
	Name string
}

// Eval implements Expr.
func (p *TailParam) Eval(env *Env) (types.Value, error) {
	idx := len(env.Params) - 1 - p.Back
	if idx < 0 {
		return types.Null, fmt.Errorf("exec: tail parameter %d out of range (frame width %d)", p.Back, len(env.Params))
	}
	return env.Params[idx], nil
}

func (p *TailParam) String() string { return fmt.Sprintf("?tail%d(%s)", p.Back, p.Name) }

// Const is a literal.
type Const struct {
	V types.Value
}

// Eval implements Expr.
func (c *Const) Eval(*Env) (types.Value, error) { return c.V, nil }

func (c *Const) String() string { return c.V.SQLLiteral() }

// Bin applies a binary operator with SQL three-valued logic for the
// logical and comparison operators.
type Bin struct {
	Op   string
	L, R Expr
}

// Eval implements Expr.
func (b *Bin) Eval(env *Env) (types.Value, error) {
	switch b.Op {
	case "AND":
		lv, err := b.L.Eval(env)
		if err != nil {
			return types.Null, err
		}
		lt := types.TruthOf(lv)
		if lt == types.False {
			return types.NewBool(false), nil
		}
		rv, err := b.R.Eval(env)
		if err != nil {
			return types.Null, err
		}
		return lt.And(types.TruthOf(rv)).ToValue(), nil
	case "OR":
		lv, err := b.L.Eval(env)
		if err != nil {
			return types.Null, err
		}
		lt := types.TruthOf(lv)
		if lt == types.True {
			return types.NewBool(true), nil
		}
		rv, err := b.R.Eval(env)
		if err != nil {
			return types.Null, err
		}
		return lt.Or(types.TruthOf(rv)).ToValue(), nil
	}
	lv, err := b.L.Eval(env)
	if err != nil {
		return types.Null, err
	}
	rv, err := b.R.Eval(env)
	if err != nil {
		return types.Null, err
	}
	switch b.Op {
	case "=", "<>", "<", "<=", ">", ">=":
		t, err := types.CompareTri(b.Op, lv, rv)
		if err != nil {
			return types.Null, err
		}
		return t.ToValue(), nil
	case "LIKE":
		t, err := types.Like(lv, rv)
		if err != nil {
			return types.Null, err
		}
		return t.ToValue(), nil
	default:
		return types.Arith(b.Op, lv, rv)
	}
}

func (b *Bin) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L.String(), b.Op, b.R.String())
}

// Un applies NOT, unary minus, ISNULL or ISNOTNULL.
type Un struct {
	Op string
	X  Expr
}

// Eval implements Expr.
func (u *Un) Eval(env *Env) (types.Value, error) {
	v, err := u.X.Eval(env)
	if err != nil {
		return types.Null, err
	}
	switch u.Op {
	case "NOT":
		return types.TruthOf(v).Not().ToValue(), nil
	case "-":
		return types.Neg(v)
	case "ISNULL":
		return types.NewBool(v.IsNull()), nil
	case "ISNOTNULL":
		return types.NewBool(!v.IsNull()), nil
	default:
		return types.Null, fmt.Errorf("exec: unknown unary operator %q", u.Op)
	}
}

func (u *Un) String() string { return fmt.Sprintf("%s(%s)", u.Op, u.X.String()) }

// ScalarFunc applies a built-in scalar function.
type ScalarFunc struct {
	Name string
	Args []Expr
}

// Eval implements Expr.
func (f *ScalarFunc) Eval(env *Env) (types.Value, error) {
	args := make([]types.Value, len(f.Args))
	for i, a := range f.Args {
		v, err := a.Eval(env)
		if err != nil {
			return types.Null, err
		}
		args[i] = v
	}
	switch strings.ToUpper(f.Name) {
	case "UPPER":
		return types.Upper(args[0])
	case "LOWER":
		return types.Lower(args[0])
	case "LENGTH":
		return types.Length(args[0])
	case "ABS":
		return types.Abs(args[0])
	default:
		return types.Null, fmt.Errorf("exec: unknown scalar function %s", f.Name)
	}
}

func (f *ScalarFunc) String() string {
	args := make([]string, len(f.Args))
	for i, a := range f.Args {
		args[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", f.Name, strings.Join(args, ", "))
}

// CaseExpr is a searched CASE.
type CaseExpr struct {
	Whens []CaseWhen
	Else  Expr
}

// CaseWhen is one arm.
type CaseWhen struct {
	Cond, Result Expr
}

// Eval implements Expr.
func (c *CaseExpr) Eval(env *Env) (types.Value, error) {
	for _, w := range c.Whens {
		v, err := w.Cond.Eval(env)
		if err != nil {
			return types.Null, err
		}
		if types.TruthOf(v) == types.True {
			return w.Result.Eval(env)
		}
	}
	if c.Else != nil {
		return c.Else.Eval(env)
	}
	return types.Null, nil
}

func (c *CaseExpr) String() string {
	var b strings.Builder
	b.WriteString("CASE")
	for _, w := range c.Whens {
		fmt.Fprintf(&b, " WHEN %s THEN %s", w.Cond.String(), w.Result.String())
	}
	if c.Else != nil {
		fmt.Fprintf(&b, " ELSE %s", c.Else.String())
	}
	b.WriteString(" END")
	return b.String()
}

// EvalPred evaluates an expression as a predicate (NULL counts as false).
func EvalPred(e Expr, env *Env) (bool, error) {
	if e == nil {
		return true, nil
	}
	v, err := e.Eval(env)
	if err != nil {
		return false, err
	}
	return types.TruthOf(v) == types.True, nil
}

// AndExprs conjoins compiled predicates; nil means always-true.
func AndExprs(preds []Expr) Expr {
	var out Expr
	for _, p := range preds {
		if p == nil {
			continue
		}
		if out == nil {
			out = p
		} else {
			out = &Bin{Op: "AND", L: out, R: p}
		}
	}
	return out
}

// ExprHasSubplan reports whether the expression tree embeds a Subplan.
// The batch lowering pass refuses such expressions: subplans run through
// the row executor.
func ExprHasSubplan(e Expr) bool {
	switch n := e.(type) {
	case *Subplan:
		return true
	case *Bin:
		return ExprHasSubplan(n.L) || ExprHasSubplan(n.R)
	case *Un:
		return ExprHasSubplan(n.X)
	case *ScalarFunc:
		for _, a := range n.Args {
			if ExprHasSubplan(a) {
				return true
			}
		}
	case *CaseExpr:
		for _, w := range n.Whens {
			if ExprHasSubplan(w.Cond) || ExprHasSubplan(w.Result) {
				return true
			}
		}
		return ExprHasSubplan(n.Else)
	}
	return false
}
