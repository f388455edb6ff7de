package opt

import (
	"xnf/internal/exec"
	"xnf/internal/vexec"
)

// vectorizePlan lowers maximal pipeline prefixes of a compiled row plan
// into the batch engine: scan → filter → project → join → sort/distinct →
// aggregate/limit chains whose expressions the vectorized interpreter
// supports become one batch pipeline under a BatchToRow bridge; everything
// else (spools, subplan-carrying expressions, nested-loop joins) stays on
// the row path, with the pass recursing into children so lowered fragments
// appear wherever they help. The right side of a nested-loop join is
// deliberately left alone: it is re-Opened once per driving row, where
// batching buys nothing and the bridge would only add overhead.
func vectorizePlan(p exec.Node, opts Options) exec.Node {
	if bp, ok := lowerPlan(p, opts); ok {
		return &vexec.BatchToRow{Child: bp}
	}
	switch n := p.(type) {
	case *exec.FilterPlan:
		n.Child = vectorizePlan(n.Child, opts)
	case *exec.ProjectPlan:
		n.Child = vectorizePlan(n.Child, opts)
	case *exec.DistinctPlan:
		n.Child = vectorizePlan(n.Child, opts)
	case *exec.SortPlan:
		n.Child = vectorizePlan(n.Child, opts)
	case *exec.LimitPlan:
		n.Child = vectorizePlan(n.Child, opts)
	case *exec.SpoolPlan:
		n.Child = vectorizePlan(n.Child, opts)
	case *exec.UnionPlan:
		for i, c := range n.Children {
			n.Children[i] = vectorizePlan(c, opts)
		}
	case *exec.NLJoinPlan:
		n.Left = vectorizePlan(n.Left, opts)
	case *exec.HashJoinPlan:
		n.Left = vectorizePlan(n.Left, opts)
		n.Right = vectorizePlan(n.Right, opts)
	case *exec.AggPlan:
		n.Child = vectorizePlan(n.Child, opts)
	}
	return p
}

// lowerOrBridge lowers a subtree natively when it can, and otherwise wraps
// the (recursively vectorized) row subtree in a row → batch bridge. Used by
// operators like hash join whose own work vectorizes regardless of how its
// inputs arrive — a bridged input is still far cheaper than bridging the
// join output row by row.
func lowerOrBridge(p exec.Node, opts Options) vexec.BatchPlan {
	if bp, ok := lowerPlan(p, opts); ok {
		return bp
	}
	return &vexec.RowSource{Plan: vectorizePlan(p, opts)}
}

// lowerPlan translates a row operator subtree into a batch pipeline. ok is
// false when the operator (or one of its expressions) is not vectorizable;
// the caller then recurses into children instead.
func lowerPlan(p exec.Node, opts Options) (vexec.BatchPlan, bool) {
	switch n := p.(type) {
	case *exec.ScanPlan:
		pred, ok := vexec.CompileExpr(n.Filter)
		if !ok {
			return nil, false
		}
		// Zone-map pruning: conjuncts of the form `col <op> constant` are
		// extracted once at compile time and resolved against the
		// parameter frame at Open.
		return &vexec.ScanBatch{Table: n.Table, Pred: pred, Cols: n.Cols, Prune: vexec.ExtractPruneTerms(pred)}, true
	case *exec.IndexLookupPlan:
		for _, k := range n.Keys {
			if exec.ExprHasSubplan(k) {
				return nil, false
			}
		}
		pred, ok := vexec.CompileExpr(n.Filter)
		if !ok {
			return nil, false
		}
		return &vexec.IndexLookupBatch{Table: n.Table, Index: n.Index, Keys: n.Keys, Pred: pred, Cols: n.Cols}, true
	case *exec.FilterPlan:
		child, ok := lowerPlan(n.Child, opts)
		if !ok {
			return nil, false
		}
		pred, ok := vexec.CompileExpr(n.Pred)
		if !ok {
			return nil, false
		}
		return &vexec.FilterBatch{Child: child, Pred: pred}, true
	case *exec.ProjectPlan:
		child, ok := lowerPlan(n.Child, opts)
		if !ok {
			return nil, false
		}
		exprs, ok := vexec.CompileExprs(n.Exprs)
		if !ok {
			return nil, false
		}
		return &vexec.ProjectBatch{Child: child, Exprs: exprs, Cols: n.Cols}, true
	case *exec.LimitPlan:
		// Push the limit beneath a projection: Project is 1:1, so
		// truncating first is equivalent — and it keeps the row executor's
		// laziness for projection expressions (a LIMIT 1 must not surface
		// an evaluation error from row 2, which eager whole-batch
		// projection would otherwise do).
		if proj, ok := n.Child.(*exec.ProjectPlan); ok {
			inner, ok := lowerPlan(proj.Child, opts)
			if !ok {
				return nil, false
			}
			exprs, ok := vexec.CompileExprs(proj.Exprs)
			if !ok {
				return nil, false
			}
			return &vexec.ProjectBatch{
				Child: &vexec.LimitBatch{Child: inner, N: n.N},
				Exprs: exprs, Cols: proj.Cols,
			}, true
		}
		child, ok := lowerPlan(n.Child, opts)
		if !ok {
			return nil, false
		}
		return &vexec.LimitBatch{Child: child, N: n.N}, true
	case *exec.HashJoinPlan:
		lk, ok := vexec.CompileExprs(n.LeftKeys)
		if !ok {
			return nil, false
		}
		rk, ok := vexec.CompileExprs(n.RightKeys)
		if !ok {
			return nil, false
		}
		res, ok := vexec.CompileExpr(n.Residual)
		if !ok {
			return nil, false
		}
		return &vexec.BatchHashJoin{
			Left:      lowerOrBridge(n.Left, opts),
			Right:     lowerOrBridge(n.Right, opts),
			LeftKeys:  lk,
			RightKeys: rk,
			Residual:  res,
			Parallel:  opts.ParallelScan,
		}, true
	case *exec.SortPlan:
		// Sort only lowers when its input lowers natively: a bridged input
		// would mean row → batch → rows-again with the sort's own batching
		// buying nothing over the row sort.
		child, ok := lowerPlan(n.Child, opts)
		if !ok {
			return nil, false
		}
		keys, ok := vexec.CompileExprs(n.Keys)
		if !ok {
			return nil, false
		}
		return &vexec.BatchSort{
			Child: child, Keys: keys, Desc: n.Desc,
			Parallel: opts.ParallelScan,
		}, true
	case *exec.DistinctPlan:
		child, ok := lowerPlan(n.Child, opts)
		if !ok {
			return nil, false
		}
		return &vexec.BatchDistinct{Child: child}, true
	case *exec.UnionPlan:
		children := make([]vexec.BatchPlan, len(n.Children))
		for i, c := range n.Children {
			child, ok := lowerPlan(c, opts)
			if !ok {
				return nil, false
			}
			children[i] = child
		}
		return &vexec.BatchUnion{Children: children, Distinct: n.Distinct}, true
	case *exec.AggPlan:
		groups, ok := vexec.CompileExprs(n.Groups)
		if !ok {
			return nil, false
		}
		aggs := make([]vexec.AggSpec, len(n.Aggs))
		for i, s := range n.Aggs {
			spec := vexec.AggSpec{Name: s.Name, Star: s.Star, Distinct: s.Distinct}
			if !s.Star {
				arg, ok := vexec.CompileExpr(s.Arg)
				if !ok {
					return nil, false
				}
				spec.Arg = arg
			}
			aggs[i] = spec
		}
		child, ok := lowerPlan(n.Child, opts)
		if !ok {
			// The aggregate itself vectorizes; feed it through the row →
			// batch bridge so join and spool outputs still aggregate in
			// batch form.
			child = &vexec.RowSource{Plan: vectorizePlan(n.Child, opts)}
		}
		agg := &vexec.HashAggBatch{Child: child, Groups: groups, Aggs: aggs, Cols: n.Cols}
		if opts.ParallelScan {
			// A scan→filter→aggregate pipeline over a base table splits
			// into morsels; the operator still folds sequentially below
			// vexec.DefaultParallelMinRows, so small tables pay no pool
			// overhead.
			if par, ok := vexec.ParallelizeAgg(agg); ok {
				return par, true
			}
		}
		return agg, true
	default:
		return nil, false
	}
}
