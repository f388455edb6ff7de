package opt

import (
	"fmt"

	"xnf/internal/exec"
	"xnf/internal/qgm"
)

func (c *Compiler) compileSelect(box *qgm.Box, outer *paramCollector) (exec.Node, error) {
	return c.compileSelectCustom(box, box.Preds, nil, outer)
}

// compileSelectCustom compiles a Select box with an overridable predicate
// list and optional extra output expressions (used by subquery correlation
// extraction). Join order, join method and access path selection happen
// here.
func (c *Compiler) compileSelectCustom(box *qgm.Box, preds []qgm.Expr, extraOut []qgm.Expr, outer *paramCollector) (exec.Node, error) {
	env := newColEnv(outer)
	quants := box.Quants

	var plan exec.Node
	used := make(map[int]bool) // indexes into preds already applied

	if len(quants) == 0 {
		plan = &exec.ValuesPlan{Rows: [][]exec.Expr{{}}}
	} else {
		order := c.chooseOrder(quants, preds)
		localAll := make(map[*qgm.Quantifier]bool, len(quants))
		for _, q := range quants {
			localAll[q] = true
		}
		bound := make(map[*qgm.Quantifier]bool, len(quants))
		width := 0
		for step, q := range order {
			bound[q] = true
			qPreds, qIdx := bindablePreds(preds, used, localAll, bound)
			if step == 0 {
				env.bind(q, 0)
				p, err := c.accessPath(q, qPreds, env)
				if err != nil {
					return nil, err
				}
				width = len(q.Input.Head)
				plan = p
				markUsed(used, qIdx)
				continue
			}
			p, err := c.joinStep(plan, q, qPreds, env, width)
			if err != nil {
				return nil, err
			}
			width += len(q.Input.Head)
			plan = p
			markUsed(used, qIdx)
		}
	}

	// Residual predicates (subqueries, degenerate predicates over
	// constants or outer parameters only).
	var residual []exec.Expr
	for i, p := range preds {
		if used[i] {
			continue
		}
		ce, err := c.compileExpr(p, env)
		if err != nil {
			return nil, err
		}
		residual = append(residual, ce)
	}
	if len(residual) > 0 {
		plan = &exec.FilterPlan{Child: plan, Pred: exec.AndExprs(residual)}
	}

	// Project the head (plus any extraction-appended columns).
	exprs := make([]exec.Expr, 0, len(box.Head)+len(extraOut))
	cols := make([]exec.Column, 0, len(box.Head)+len(extraOut))
	for _, h := range box.Head {
		if h.Expr == nil {
			return nil, fmt.Errorf("opt: select box %d head column %s has no expression", box.ID, h.Name)
		}
		e, err := c.compileExpr(h.Expr, env)
		if err != nil {
			return nil, err
		}
		exprs = append(exprs, e)
		cols = append(cols, exec.Column{Name: h.Name, Type: h.Type})
	}
	for i, ex := range extraOut {
		e, err := c.compileExpr(ex, env)
		if err != nil {
			return nil, err
		}
		exprs = append(exprs, e)
		cols = append(cols, exec.Column{Name: fmt.Sprintf("x%d", i+1), Type: qgm.ExprType(ex)})
	}
	plan = &exec.ProjectPlan{Child: plan, Exprs: exprs, Cols: cols}
	if box.Distinct {
		plan = &exec.DistinctPlan{Child: plan}
	}
	return plan, nil
}

func markUsed(used map[int]bool, idx []int) {
	for _, i := range idx {
		used[i] = true
	}
}

// bindablePreds returns the unused subquery-free predicates whose local
// quantifier references are all bound (references to quantifiers outside
// the box are correlation and always allowed — they become parameters).
// Subquery predicates always wait for the final filter so their evaluation
// sees the complete row.
func bindablePreds(preds []qgm.Expr, used map[int]bool, localAll, bound map[*qgm.Quantifier]bool) ([]qgm.Expr, []int) {
	var out []qgm.Expr
	var idx []int
	for i, p := range preds {
		if used[i] || containsSubquery(p) {
			continue
		}
		ok := true
		for r := range qgm.QuantsIn(p) {
			if localAll[r] && !bound[r] {
				ok = false
			}
		}
		if ok {
			out = append(out, p)
			idx = append(idx, i)
		}
	}
	return out, idx
}

func containsSubquery(e qgm.Expr) bool {
	found := false
	qgm.WalkExpr(e, func(x qgm.Expr) {
		if _, ok := x.(*qgm.SubqueryRef); ok {
			found = true
		}
	})
	return found
}
