package semantics

import (
	"fmt"
	"strings"

	"xnf/internal/ast"
	"xnf/internal/qgm"
	"xnf/internal/types"
)

// buildExpr resolves an AST expression to a QGM expression in the given
// scope, desugaring BETWEEN, IN-lists, IS NULL and NOT EXISTS along the way
// (three-valued-logic preserving rewrites only).
func (b *Builder) buildExpr(e ast.Expr, sc *scope) (qgm.Expr, error) {
	switch n := e.(type) {
	case *ast.Literal:
		return &qgm.Const{V: n.Value}, nil

	case *ast.Placeholder:
		// A caller's placeholder has no type until binding and compares
		// freely like a NULL literal (checkBinOpTypes); one standing in for
		// a literal carries the literal's type.
		return &qgm.Placeholder{Idx: n.Idx, Type: n.Type}, nil

	case *ast.ColumnRef:
		if n.Qualifier != "" {
			q := sc.lookupQualifier(n.Qualifier)
			if q == nil {
				return nil, fmt.Errorf("semantics: unknown table %s in %s.%s", n.Qualifier, n.Qualifier, n.Name)
			}
			ord, ok := q.Input.HeadIndex(n.Name)
			if !ok {
				return nil, fmt.Errorf("semantics: table %s has no column %s", n.Qualifier, n.Name)
			}
			return &qgm.ColRef{Q: q, Ord: ord}, nil
		}
		q, ord, err := sc.lookupColumn(n.Name)
		if err != nil {
			return nil, err
		}
		return &qgm.ColRef{Q: q, Ord: ord}, nil

	case *ast.BinaryExpr:
		l, err := b.buildExpr(n.L, sc)
		if err != nil {
			return nil, err
		}
		r, err := b.buildExpr(n.R, sc)
		if err != nil {
			return nil, err
		}
		op := n.Op
		if op == "!=" {
			op = "<>"
		}
		if err := checkBinOpTypes(op, l, r); err != nil {
			return nil, err
		}
		return &qgm.BinOp{Op: op, L: l, R: r}, nil

	case *ast.UnaryExpr:
		x, err := b.buildExpr(n.X, sc)
		if err != nil {
			return nil, err
		}
		if n.Op == "NOT" {
			// NOT EXISTS(sub) normalizes to an anti-existential quantifier.
			if sq, ok := x.(*qgm.SubqueryRef); ok && sq.Quant.Type == qgm.Exist {
				sq.Quant.Type = qgm.AntiExist
				return sq, nil
			}
			return &qgm.UnOp{Op: "NOT", X: x}, nil
		}
		return &qgm.UnOp{Op: "-", X: x}, nil

	case *ast.IsNullExpr:
		x, err := b.buildExpr(n.X, sc)
		if err != nil {
			return nil, err
		}
		op := "ISNULL"
		if n.Not {
			op = "ISNOTNULL"
		}
		return &qgm.UnOp{Op: op, X: x}, nil

	case *ast.BetweenExpr:
		x, err := b.buildExpr(n.X, sc)
		if err != nil {
			return nil, err
		}
		lo, err := b.buildExpr(n.Lo, sc)
		if err != nil {
			return nil, err
		}
		hi, err := b.buildExpr(n.Hi, sc)
		if err != nil {
			return nil, err
		}
		rng := &qgm.BinOp{Op: "AND",
			L: &qgm.BinOp{Op: ">=", L: x, R: lo},
			R: &qgm.BinOp{Op: "<=", L: x, R: hi}}
		if n.Not {
			return &qgm.UnOp{Op: "NOT", X: rng}, nil
		}
		return rng, nil

	case *ast.LikeExpr:
		x, err := b.buildExpr(n.X, sc)
		if err != nil {
			return nil, err
		}
		pat, err := b.buildExpr(n.Pattern, sc)
		if err != nil {
			return nil, err
		}
		if err := checkBinOpTypes("LIKE", x, pat); err != nil {
			return nil, err
		}
		like := qgm.Expr(&qgm.BinOp{Op: "LIKE", L: x, R: pat})
		if n.Not {
			like = &qgm.UnOp{Op: "NOT", X: like}
		}
		return like, nil

	case *ast.InExpr:
		x, err := b.buildExpr(n.X, sc)
		if err != nil {
			return nil, err
		}
		if n.Sub == nil {
			// IN list desugars to an OR chain (exact under 3VL).
			var or qgm.Expr
			for _, item := range n.List {
				ie, err := b.buildExpr(item, sc)
				if err != nil {
					return nil, err
				}
				eq := &qgm.BinOp{Op: "=", L: x, R: ie}
				if or == nil {
					or = eq
				} else {
					or = &qgm.BinOp{Op: "OR", L: or, R: eq}
				}
			}
			if or == nil {
				return &qgm.Const{V: types.NewBool(false)}, nil
			}
			if n.Not {
				return &qgm.UnOp{Op: "NOT", X: or}, nil
			}
			return or, nil
		}
		sub, err := b.buildSelect(n.Sub, sc, true)
		if err != nil {
			return nil, err
		}
		if len(sub.Head) != 1 {
			return nil, fmt.Errorf("semantics: IN subquery must return one column, has %d", len(sub.Head))
		}
		typ := qgm.Exist
		if n.Not {
			typ = qgm.AntiExist
		}
		q := b.g.NewDetachedQuant(typ, "in", sub)
		q.NullAware = n.Not
		return &qgm.SubqueryRef{
			Quant: q,
			Preds: []qgm.Expr{&qgm.BinOp{Op: "=", L: x, R: &qgm.ColRef{Q: q, Ord: 0}}},
		}, nil

	case *ast.SubqueryExpr:
		sub, err := b.buildSelect(n.Select, sc, true)
		if err != nil {
			return nil, err
		}
		if n.Exists {
			typ := qgm.Exist
			if n.Not {
				typ = qgm.AntiExist
			}
			return &qgm.SubqueryRef{Quant: b.g.NewDetachedQuant(typ, "ex", sub)}, nil
		}
		if len(sub.Head) != 1 {
			return nil, fmt.Errorf("semantics: scalar subquery must return one column, has %d", len(sub.Head))
		}
		return &qgm.SubqueryRef{Quant: b.g.NewDetachedQuant(qgm.Scalar, "sq", sub)}, nil

	case *ast.FuncCall:
		name := strings.ToUpper(n.Name)
		if isAggName(name) {
			var args []qgm.Expr
			if !n.Star {
				for _, a := range n.Args {
					ae, err := b.buildExpr(a, sc)
					if err != nil {
						return nil, err
					}
					if qgm.IsAggregate(ae) {
						return nil, fmt.Errorf("semantics: aggregates cannot be nested")
					}
					args = append(args, ae)
				}
			}
			return &qgm.Func{Name: name, Distinct: n.Distinct, Star: n.Star, Args: args}, nil
		}
		switch name {
		case "UPPER", "LOWER", "LENGTH", "ABS":
			if len(n.Args) != 1 {
				return nil, fmt.Errorf("semantics: %s takes exactly one argument", name)
			}
			a, err := b.buildExpr(n.Args[0], sc)
			if err != nil {
				return nil, err
			}
			return &qgm.Func{Name: name, Args: []qgm.Expr{a}}, nil
		default:
			return nil, fmt.Errorf("semantics: unknown function %s", n.Name)
		}

	case *ast.CaseExpr:
		c := &qgm.Case{}
		for _, w := range n.Whens {
			cond, err := b.buildExpr(w.Cond, sc)
			if err != nil {
				return nil, err
			}
			res, err := b.buildExpr(w.Result, sc)
			if err != nil {
				return nil, err
			}
			c.Whens = append(c.Whens, qgm.CaseWhen{Cond: cond, Result: res})
		}
		if n.Else != nil {
			el, err := b.buildExpr(n.Else, sc)
			if err != nil {
				return nil, err
			}
			c.Else = el
		}
		return c, nil

	case *ast.PathExpr:
		return nil, fmt.Errorf("semantics: path expression %s is only valid against a CO cache", n.String())

	default:
		return nil, fmt.Errorf("semantics: unsupported expression %T", e)
	}
}

// checkBinOpTypes performs shallow type checking of comparisons and
// arithmetic where both operand types are known.
func checkBinOpTypes(op string, l, r qgm.Expr) error {
	lt, rt := qgm.ExprType(l), qgm.ExprType(r)
	if lt == types.NullType || rt == types.NullType {
		return nil // NULL literals and unresolved subqueries compare freely
	}
	switch op {
	case "=", "<>", "<", "<=", ">", ">=":
		num := func(t types.Type) bool { return t == types.IntType || t == types.FloatType }
		if lt == rt || (num(lt) && num(rt)) {
			return nil
		}
		return fmt.Errorf("semantics: cannot compare %s with %s", lt, rt)
	case "+", "-", "*", "/", "%":
		num := func(t types.Type) bool { return t == types.IntType || t == types.FloatType }
		if num(lt) && num(rt) {
			return nil
		}
		if op == "+" && lt == types.StringType && rt == types.StringType {
			return nil
		}
		return fmt.Errorf("semantics: arithmetic %s requires numeric operands, got %s and %s", op, lt, rt)
	case "||":
		if lt == types.StringType && rt == types.StringType {
			return nil
		}
		return fmt.Errorf("semantics: || requires string operands")
	case "LIKE":
		if lt == types.StringType && rt == types.StringType {
			return nil
		}
		return fmt.Errorf("semantics: LIKE requires string operands")
	case "AND", "OR":
		if lt == types.BoolType && rt == types.BoolType {
			return nil
		}
		return fmt.Errorf("semantics: %s requires boolean operands", op)
	}
	return nil
}
