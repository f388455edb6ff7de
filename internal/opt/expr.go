package opt

import (
	"fmt"
	"strings"

	"xnf/internal/exec"
	"xnf/internal/qgm"
)

// colEnv maps quantifiers to slot bases in the row layout of the plan
// fragment being compiled. References to quantifiers not bound locally are
// correlated and are routed to the paramCollector of the enclosing
// subquery compilation.
type colEnv struct {
	slots map[*qgm.Quantifier]int
	outer *paramCollector
}

func newColEnv(outer *paramCollector) *colEnv {
	return &colEnv{slots: make(map[*qgm.Quantifier]int), outer: outer}
}

func (e *colEnv) bind(q *qgm.Quantifier, base int) { e.slots[q] = base }

// paramCollector gathers the outer references of one subquery compilation.
// Each distinct outer column becomes one parameter slot; the caller-side
// expressions (params) are evaluated in the caller's environment to build
// the frame passed to the subplan.
type paramCollector struct {
	callerEnv *colEnv
	compiler  *Compiler
	params    []exec.Expr
	keys      []string
	index     map[string]int
}

func newParamCollector(c *Compiler, callerEnv *colEnv) *paramCollector {
	return &paramCollector{compiler: c, callerEnv: callerEnv, index: make(map[string]int)}
}

func (pc *paramCollector) paramFor(cr *qgm.ColRef) (exec.Expr, error) {
	key := fmt.Sprintf("q%d.%d", cr.Q.ID, cr.Ord)
	if idx, ok := pc.index[key]; ok {
		return &exec.Param{Idx: idx, Name: cr.String()}, nil
	}
	callerSide, err := pc.compiler.compileExpr(cr, pc.callerEnv)
	if err != nil {
		return nil, err
	}
	idx := len(pc.params)
	pc.params = append(pc.params, callerSide)
	pc.keys = append(pc.keys, key)
	pc.index[key] = idx
	return &exec.Param{Idx: idx, Name: cr.String()}, nil
}

// placeholderFor routes a statement parameter through a subquery frame:
// like an outer column it claims one slot of the subplan's parameter frame,
// with the caller side re-compiled in the caller's environment (which
// recurses outward until the statement frame is reached).
func (pc *paramCollector) placeholderFor(ph *qgm.Placeholder) (exec.Expr, error) {
	key := fmt.Sprintf("ph.%d", ph.Idx)
	if idx, ok := pc.index[key]; ok {
		return &exec.Param{Idx: idx, Name: ph.String()}, nil
	}
	callerSide, err := pc.compiler.compileExpr(ph, pc.callerEnv)
	if err != nil {
		return nil, err
	}
	idx := len(pc.params)
	pc.params = append(pc.params, callerSide)
	pc.keys = append(pc.keys, key)
	pc.index[key] = idx
	return &exec.Param{Idx: idx, Name: ph.String()}, nil
}

// compileExpr lowers a QGM expression to a runtime expression under env.
func (c *Compiler) compileExpr(e qgm.Expr, env *colEnv) (exec.Expr, error) {
	switch n := e.(type) {
	case *qgm.Const:
		return &exec.Const{V: n.V}, nil
	case *qgm.Placeholder:
		if env.outer == nil {
			// Top-level compilation: the statement arguments are the plan's
			// parameter frame (exec.CollectWith).
			return &exec.Param{Idx: n.Idx, Name: n.String()}, nil
		}
		return env.outer.placeholderFor(n)
	case *qgm.ColRef:
		if base, ok := env.slots[n.Q]; ok {
			name := ""
			if n.Q.Input != nil && n.Ord < len(n.Q.Input.Head) {
				name = n.Q.Name + "." + n.Q.Input.Head[n.Ord].Name
			}
			return &exec.Slot{Idx: base + n.Ord, Name: name}, nil
		}
		if env.outer == nil {
			return nil, fmt.Errorf("opt: unbound column reference %s", n.String())
		}
		return env.outer.paramFor(n)
	case *qgm.BinOp:
		l, err := c.compileExpr(n.L, env)
		if err != nil {
			return nil, err
		}
		r, err := c.compileExpr(n.R, env)
		if err != nil {
			return nil, err
		}
		return &exec.Bin{Op: n.Op, L: l, R: r}, nil
	case *qgm.UnOp:
		x, err := c.compileExpr(n.X, env)
		if err != nil {
			return nil, err
		}
		return &exec.Un{Op: n.Op, X: x}, nil
	case *qgm.Func:
		args := make([]exec.Expr, len(n.Args))
		for i, a := range n.Args {
			x, err := c.compileExpr(a, env)
			if err != nil {
				return nil, err
			}
			args[i] = x
		}
		return &exec.ScalarFunc{Name: n.Name, Args: args}, nil
	case *qgm.Case:
		out := &exec.CaseExpr{}
		for _, w := range n.Whens {
			cond, err := c.compileExpr(w.Cond, env)
			if err != nil {
				return nil, err
			}
			res, err := c.compileExpr(w.Result, env)
			if err != nil {
				return nil, err
			}
			out.Whens = append(out.Whens, exec.CaseWhen{Cond: cond, Result: res})
		}
		if n.Else != nil {
			el, err := c.compileExpr(n.Else, env)
			if err != nil {
				return nil, err
			}
			out.Else = el
		}
		return out, nil
	case *qgm.SubqueryRef:
		return c.compileSubquery(n, env)
	default:
		return nil, fmt.Errorf("opt: cannot compile expression %T", e)
	}
}

// link is one IN-style equality between a caller-side expression and a
// head column of the subquery.
type link struct {
	callerSide qgm.Expr
	subOrd     int
}

// extracted is one correlation equality pulled out of a subquery box: the
// outer side becomes a probe key, the local side is appended to the
// subquery's output as build-key column appendedOrd.
type extracted struct {
	outerSide   qgm.Expr
	localSide   qgm.Expr
	appendedOrd int
}

// compileSubquery lowers a quantified subquery to an exec.Subplan, picking
// the hashed-semijoin strategy when the subquery is uncorrelated once its
// equality links are extracted, and the naive re-execution strategy
// otherwise (or when hashed subplans are disabled).
func (c *Compiler) compileSubquery(sr *qgm.SubqueryRef, env *colEnv) (exec.Expr, error) {
	sub := sr.Quant.Input
	mode := exec.ModeExists
	switch sr.Quant.Type {
	case qgm.AntiExist:
		mode = exec.ModeAnti
	case qgm.Scalar:
		mode = exec.ModeScalar
	}
	inStyle := len(sr.Preds) > 0

	// Split the SubqueryRef predicates (IN-style links: callerExpr =
	// sub.col) into probe/build pairs; anything else is residual.
	var links []link
	var residual []qgm.Expr
	for _, p := range sr.Preds {
		if eq, ok := p.(*qgm.BinOp); ok && eq.Op == "=" {
			if cr, ok := eq.R.(*qgm.ColRef); ok && cr.Q == sr.Quant && exprAvoidsQuant(eq.L, sr.Quant) {
				links = append(links, link{callerSide: eq.L, subOrd: cr.Ord})
				continue
			}
			if cr, ok := eq.L.(*qgm.ColRef); ok && cr.Q == sr.Quant && exprAvoidsQuant(eq.R, sr.Quant) {
				links = append(links, link{callerSide: eq.R, subOrd: cr.Ord})
				continue
			}
		}
		residual = append(residual, p)
	}

	// Attempt the hashed strategy: extract correlation equalities from the
	// subquery body (EXISTS style) so the remainder compiles uncorrelated.
	if c.opts.HashedSubplans && len(residual) == 0 && mode != exec.ModeScalar || // exists/anti
		c.opts.HashedSubplans && mode == exec.ModeScalar { // scalar: only if it happens to be uncorrelated
		var exts []extracted
		remainder := sub.Preds
		if sub.Kind == qgm.Select && mode != exec.ModeScalar {
			exts, remainder = c.extractCorrelation(sub, env)
		}
		pc := newParamCollector(c, env)
		var plan exec.Node
		var err error
		if sub.Kind == qgm.Select {
			extraOut := make([]qgm.Expr, len(exts))
			for i := range exts {
				exts[i].appendedOrd = len(sub.Head) + i
				extraOut[i] = exts[i].localSide
			}
			plan, err = c.compileSelectCustom(sub, remainder, extraOut, pc)
		} else {
			plan, err = c.compileBox(sub, pc)
		}
		if err != nil {
			return nil, err
		}
		if onlyPlaceholderParams(pc) && len(residual) == 0 {
			// Statement placeholders are constant for the whole execution,
			// so a subquery whose only "correlation" is placeholders still
			// materializes+hashes once per context — a prepared query must
			// not lose the hashed strategy its literal form would get.
			sp := &exec.Subplan{ID: c.newID(), Mode: mode, Plan: plan, InStyle: inStyle, Hashed: true, Params: pc.params}
			for _, l := range links {
				probe, err := c.compileExpr(l.callerSide, env)
				if err != nil {
					return nil, err
				}
				sp.Probe = append(sp.Probe, probe)
				sp.Build = append(sp.Build, &exec.Slot{Idx: l.subOrd})
			}
			for _, ex := range exts {
				probe, err := c.compileExpr(ex.outerSide, env)
				if err != nil {
					return nil, err
				}
				sp.Probe = append(sp.Probe, probe)
				sp.Build = append(sp.Build, &exec.Slot{Idx: ex.appendedOrd})
			}
			return sp, nil
		}
	}

	// Rerun strategy: the subquery executes per evaluation with its
	// correlation bound through parameters. IN links and residual
	// predicates are applied as a filter over the subquery's output —
	// except for NULL-aware NOT IN, whose links must stay outside the plan
	// so three-valued logic is preserved.
	pc := newParamCollector(c, env)
	plan, err := c.compileBox(sub, pc)
	if err != nil {
		return nil, err
	}
	keepOutside := sr.Quant.NullAware && len(residual) == 0
	var filterPreds []qgm.Expr
	var outsideLinks []link
	if keepOutside {
		outsideLinks = links
		filterPreds = residual
	} else {
		for _, l := range links {
			filterPreds = append(filterPreds, &qgm.BinOp{Op: "=", L: l.callerSide, R: &qgm.ColRef{Q: sr.Quant, Ord: l.subOrd}})
		}
		filterPreds = append(filterPreds, residual...)
	}
	if len(filterPreds) > 0 {
		fenv := newColEnv(pc)
		fenv.bind(sr.Quant, 0)
		var compiled []exec.Expr
		for _, p := range filterPreds {
			ce, err := c.compileExpr(p, fenv)
			if err != nil {
				return nil, err
			}
			compiled = append(compiled, ce)
		}
		plan = &exec.FilterPlan{Child: plan, Pred: exec.AndExprs(compiled)}
	}
	sp := &exec.Subplan{ID: c.newID(), Mode: mode, Plan: plan, InStyle: inStyle, Params: pc.params}
	for _, l := range outsideLinks {
		probe, err := c.compileExpr(l.callerSide, env)
		if err != nil {
			return nil, err
		}
		sp.Probe = append(sp.Probe, probe)
		sp.Build = append(sp.Build, &exec.Slot{Idx: l.subOrd})
	}
	return sp, nil
}

// extractCorrelation scans a Select box's predicates for equality
// conjuncts of the form outerExpr = localExpr, where the outer side
// references only quantifiers outside the box and the local side only the
// box's own quantifiers. It returns the extracted pairs and the remaining
// predicates.
func (c *Compiler) extractCorrelation(sub *qgm.Box, env *colEnv) ([]extracted, []qgm.Expr) {
	local := make(map[*qgm.Quantifier]bool)
	for _, q := range sub.Quants {
		local[q] = true
	}
	isLocal := func(e qgm.Expr) bool {
		ok := true
		any := false
		qgm.WalkExpr(e, func(x qgm.Expr) {
			if cr, isCR := x.(*qgm.ColRef); isCR {
				any = true
				if !local[cr.Q] {
					ok = false
				}
			}
			if _, isSub := x.(*qgm.SubqueryRef); isSub {
				ok = false
			}
		})
		return ok && any
	}
	isOuter := func(e qgm.Expr) bool {
		ok := true
		any := false
		qgm.WalkExpr(e, func(x qgm.Expr) {
			if cr, isCR := x.(*qgm.ColRef); isCR {
				any = true
				if local[cr.Q] {
					ok = false
				}
			}
			if _, isSub := x.(*qgm.SubqueryRef); isSub {
				ok = false
			}
		})
		return ok && any
	}
	var exts []extracted
	var remainder []qgm.Expr
	for _, p := range sub.Preds {
		if eq, ok := p.(*qgm.BinOp); ok && eq.Op == "=" {
			switch {
			case isOuter(eq.L) && isLocal(eq.R):
				exts = append(exts, extracted{outerSide: eq.L, localSide: eq.R})
				continue
			case isOuter(eq.R) && isLocal(eq.L):
				exts = append(exts, extracted{outerSide: eq.R, localSide: eq.L})
				continue
			}
		}
		remainder = append(remainder, p)
	}
	return exts, remainder
}

// onlyPlaceholderParams reports whether every outer reference the subquery
// compilation collected is a statement placeholder (key "ph.N") — i.e. the
// subplan frame is execution-constant, never per-row.
func onlyPlaceholderParams(pc *paramCollector) bool {
	for _, k := range pc.keys {
		if !strings.HasPrefix(k, "ph.") {
			return false
		}
	}
	return true
}

func (c *Compiler) newID() int {
	c.nextID++
	return c.nextID
}

// exprAvoidsQuant reports whether e never references q.
func exprAvoidsQuant(e qgm.Expr, q *qgm.Quantifier) bool {
	ok := true
	qgm.WalkExpr(e, func(x qgm.Expr) {
		if cr, isCR := x.(*qgm.ColRef); isCR && cr.Q == q {
			ok = false
		}
	})
	return ok
}
