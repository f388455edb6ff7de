package opt

import (
	"xnf/internal/exec"
	"xnf/internal/qgm"
)

// accessPath compiles the first quantifier of a join order: a base-table
// index lookup when a usable equality predicate and index exist, otherwise
// a scan (or the compiled input box) with the local predicates filtered.
// env must already bind q at slot base 0.
func (c *Compiler) accessPath(q *qgm.Quantifier, qPreds []qgm.Expr, env *colEnv) (exec.Node, error) {
	if q.Input.Kind == qgm.BaseTable && c.opts.IndexNL {
		if idx, keyExpr, rest := c.matchIndexEquality(q, qPreds, nil); idx != "" {
			key, err := c.compileExpr(keyExpr, env)
			if err != nil {
				return nil, err
			}
			var filter exec.Expr
			if len(rest) > 0 {
				compiled, err := c.compileAll(rest, env)
				if err != nil {
					return nil, err
				}
				filter = exec.AndExprs(compiled)
			}
			return &exec.IndexLookupPlan{
				Table: q.Input.Table, Index: idx,
				Keys: []exec.Expr{key}, Filter: filter,
				Cols: headColumns(q.Input),
			}, nil
		}
	}
	child, _, err := c.CompileBox(q.Input, env.outer)
	if err != nil {
		return nil, err
	}
	if len(qPreds) == 0 {
		return child, nil
	}
	compiled, err := c.compileAll(qPreds, env)
	if err != nil {
		return nil, err
	}
	pred := exec.AndExprs(compiled)
	// Fold the filter into a scan when the child is a bare scan.
	if scan, ok := child.(*exec.ScanPlan); ok && scan.Filter == nil {
		scan.Filter = pred
		return scan, nil
	}
	return &exec.FilterPlan{Child: child, Pred: pred}, nil
}

// matchIndexEquality looks for a predicate col = expr where col is a bare
// column of q with an index whose leading column matches, and expr does
// not reference q (nor any still-unbound local quantifier — callers pass
// only bindable predicates). boundOnly optionally restricts the expr side
// to reference at least one bound quantifier (join keys) — nil accepts
// constants and parameters too. It returns the index name, the key
// expression and the remaining predicates.
func (c *Compiler) matchIndexEquality(q *qgm.Quantifier, qPreds []qgm.Expr, boundOnly map[*qgm.Quantifier]bool) (string, qgm.Expr, []qgm.Expr) {
	table, ok := c.store.Catalog().Table(q.Input.Table)
	if !ok {
		return "", nil, qPreds
	}
	for i, p := range qPreds {
		eq, ok := p.(*qgm.BinOp)
		if !ok || eq.Op != "=" {
			continue
		}
		try := func(colSide, keySide qgm.Expr) (string, qgm.Expr) {
			cr, ok := colSide.(*qgm.ColRef)
			if !ok || cr.Q != q || !exprAvoidsQuant(keySide, q) {
				return "", nil
			}
			if boundOnly != nil {
				usesBound := false
				for r := range qgm.QuantsIn(keySide) {
					if boundOnly[r] {
						usesBound = true
					}
				}
				if !usesBound {
					return "", nil
				}
			}
			idx := table.IndexOn([]string{q.Input.Head[cr.Ord].Name})
			if idx == nil {
				return "", nil
			}
			return idx.Name, keySide
		}
		if name, key := try(eq.L, eq.R); name != "" {
			rest := append(append([]qgm.Expr{}, qPreds[:i]...), qPreds[i+1:]...)
			return name, key, rest
		}
		if name, key := try(eq.R, eq.L); name != "" {
			rest := append(append([]qgm.Expr{}, qPreds[:i]...), qPreds[i+1:]...)
			return name, key, rest
		}
	}
	return "", nil, qPreds
}

func (c *Compiler) compileAll(preds []qgm.Expr, env *colEnv) ([]exec.Expr, error) {
	out := make([]exec.Expr, 0, len(preds))
	for _, p := range preds {
		ce, err := c.compileExpr(p, env)
		if err != nil {
			return nil, err
		}
		out = append(out, ce)
	}
	return out, nil
}

// joinStep joins the next quantifier onto the current plan, choosing index
// nested-loop, hash join or plain nested-loop. env gains q's binding at
// slot base `width`.
func (c *Compiler) joinStep(left exec.Node, q *qgm.Quantifier, qPreds []qgm.Expr, env *colEnv, width int) (exec.Node, error) {
	// Classify predicates.
	var rightLocal []qgm.Expr // reference only q (and correlation)
	var equi []*qgm.BinOp     // left-side expr = right-side expr over q
	var mixed []qgm.Expr
	// A predicate is right-local when the only bound quantifier it
	// references is q itself (outer correlation references are fine —
	// they become parameters).
	isRightLocal := func(p qgm.Expr) bool {
		for r := range qgm.QuantsIn(p) {
			if r == q {
				continue
			}
			if _, bound := env.slots[r]; bound {
				return false
			}
		}
		return true
	}
	for _, p := range qPreds {
		refsQ := false
		for r := range qgm.QuantsIn(p) {
			if r == q {
				refsQ = true
			}
		}
		if !refsQ || isRightLocal(p) {
			if !refsQ {
				mixed = append(mixed, p) // predicate over earlier quants that became bindable late
				continue
			}
			rightLocal = append(rightLocal, p)
			continue
		}
		if eq, ok := p.(*qgm.BinOp); ok && eq.Op == "=" {
			if exprAvoidsQuant(eq.L, q) && refsOnlyQuant(eq.R, q) {
				equi = append(equi, eq)
				continue
			}
			if exprAvoidsQuant(eq.R, q) && refsOnlyQuant(eq.L, q) {
				equi = append(equi, &qgm.BinOp{Op: "=", L: eq.R, R: eq.L})
				continue
			}
		}
		mixed = append(mixed, p)
	}

	// Index nested-loop join: the right side is a base table probed with a
	// join key from the driving row.
	if c.opts.IndexNL && q.Input.Kind == qgm.BaseTable && len(equi) > 0 {
		if table, ok := c.store.Catalog().Table(q.Input.Table); ok {
			for i, eq := range equi {
				cr, ok := eq.R.(*qgm.ColRef)
				if !ok || cr.Q != q {
					continue
				}
				idx := table.IndexOn([]string{q.Input.Head[cr.Ord].Name})
				if idx == nil {
					continue
				}
				leftKey, err := c.compileExpr(eq.L, env)
				if err != nil {
					return nil, err
				}
				env.bind(q, width)
				// Remaining equalities and right-local predicates filter
				// the lookup result (row layout: the base table row).
				renv := newColEnv(env.outer)
				renv.bind(q, 0)
				var lookupFilter []exec.Expr
				for _, p := range rightLocal {
					ce, err := c.compileExpr(p, renv)
					if err != nil {
						return nil, err
					}
					lookupFilter = append(lookupFilter, ce)
				}
				var joinPred []exec.Expr
				for j, other := range equi {
					if j == i {
						continue
					}
					ce, err := c.compileExpr(other, env)
					if err != nil {
						return nil, err
					}
					joinPred = append(joinPred, ce)
				}
				for _, p := range mixed {
					ce, err := c.compileExpr(p, env)
					if err != nil {
						return nil, err
					}
					joinPred = append(joinPred, ce)
				}
				right := &exec.IndexLookupPlan{
					Table: q.Input.Table, Index: idx.Name,
					Keys:   []exec.Expr{&exec.TailParam{Back: 0, Name: eq.L.String()}},
					Filter: exec.AndExprs(lookupFilter),
					Cols:   headColumns(q.Input),
				}
				return &exec.NLJoinPlan{
					Left: left, Right: right,
					Pred:        exec.AndExprs(joinPred),
					RightParams: []exec.Expr{leftKey},
				}, nil
			}
		}
	}

	// Compile the right side with its local predicates pushed down.
	renv := newColEnv(env.outer)
	renv.bind(q, 0)
	var right exec.Node
	if q.Input.Kind == qgm.BaseTable && c.opts.IndexNL {
		p, err := c.accessPath(q, rightLocal, renv)
		if err != nil {
			return nil, err
		}
		right = p
	} else {
		child, _, err := c.CompileBox(q.Input, env.outer)
		if err != nil {
			return nil, err
		}
		right = child
		if len(rightLocal) > 0 {
			compiled, err := c.compileAll(rightLocal, renv)
			if err != nil {
				return nil, err
			}
			right = &exec.FilterPlan{Child: right, Pred: exec.AndExprs(compiled)}
		}
	}

	if c.opts.HashJoin && len(equi) > 0 {
		var lkeys, rkeys []exec.Expr
		for _, eq := range equi {
			lk, err := c.compileExpr(eq.L, env)
			if err != nil {
				return nil, err
			}
			rk, err := c.compileExpr(eq.R, renv)
			if err != nil {
				return nil, err
			}
			lkeys = append(lkeys, lk)
			rkeys = append(rkeys, rk)
		}
		env.bind(q, width)
		residual, err := c.compileAll(mixed, env)
		if err != nil {
			return nil, err
		}
		return &exec.HashJoinPlan{
			Left: left, Right: right,
			LeftKeys: lkeys, RightKeys: rkeys,
			Residual: exec.AndExprs(residual),
		}, nil
	}

	env.bind(q, width)
	var predExprs []exec.Expr
	for _, eq := range equi {
		ce, err := c.compileExpr(eq, env)
		if err != nil {
			return nil, err
		}
		predExprs = append(predExprs, ce)
	}
	rest, err := c.compileAll(mixed, env)
	if err != nil {
		return nil, err
	}
	predExprs = append(predExprs, rest...)
	return &exec.NLJoinPlan{Left: left, Right: right, Pred: exec.AndExprs(predExprs)}, nil
}

func refsOnlyQuant(e qgm.Expr, q *qgm.Quantifier) bool {
	ok := true
	any := false
	qgm.WalkExpr(e, func(x qgm.Expr) {
		if cr, isCR := x.(*qgm.ColRef); isCR {
			any = true
			if cr.Q != q {
				ok = false
			}
		}
	})
	return ok && any
}
