// Package opt is the plan optimization and plan refinement stage (Fig. 2):
// it lowers a (rewritten) QGM graph to a tree of compiled exec.Nodes,
// choosing join orders greedily from catalog statistics, selecting access
// paths (scan vs
// index lookup), picking hash joins for equi-predicates, spooling shared
// common subexpressions, and deciding subquery strategies (hashed semijoin
// vs naive re-execution). All choices can be disabled through Options so
// the benchmark harness can reproduce the paper's naive baselines.
package opt

import (
	"fmt"

	"xnf/internal/exec"
	"xnf/internal/qgm"
	"xnf/internal/storage"
)

// Options controls which optimizations the compiler may use. Every field is
// part of the plan-cache key (Options equality).
type Options struct {
	HashJoin       bool // use hash joins for equi-predicates
	IndexNL        bool // use index nested-loop joins
	HashedSubplans bool // evaluate uncorrelated subqueries as hash semijoins
	Spool          bool // materialize shared QGM boxes once
	JoinOrdering   bool // greedy cost-based join ordering (else syntax order)
	Vectorize      bool // lower pipeline prefixes to the vexec batch engine
	ParallelScan   bool // morsel-parallel aggregate scans, join builds and sorts
}

// DefaultOptions enables everything.
func DefaultOptions() Options {
	return Options{HashJoin: true, IndexNL: true, HashedSubplans: true, Spool: true, JoinOrdering: true, Vectorize: true, ParallelScan: true}
}

// NaiveOptions disables every optimization: syntax-order nested-loop joins
// and re-executed subqueries — the strawman execution strategy of Sect. 3.2.
func NaiveOptions() Options { return Options{} }

// Compiler lowers one QGM graph.
type Compiler struct {
	opts      Options
	store     *storage.Store
	g         *qgm.Graph
	consumers map[int]int
	nextID    int
}

// NewCompiler prepares a compiler for a graph.
func NewCompiler(store *storage.Store, g *qgm.Graph, opts Options) *Compiler {
	return &Compiler{opts: opts, store: store, g: g, consumers: g.Consumers(), nextID: 1 << 20}
}

// CompileTop compiles the graph's Top box (single-output SQL queries):
// the output quantifier's box plus ORDER BY / LIMIT. It returns an
// execution handle over the compiled root.
func (c *Compiler) CompileTop() (exec.Plan, error) {
	top := c.g.TopBox
	if top == nil || len(top.Outputs) != 1 {
		return nil, fmt.Errorf("opt: CompileTop requires a single-output Top box")
	}
	out := top.Outputs[0]
	plan, _, err := c.CompileBox(out.Quant.Input, nil)
	if err != nil {
		return nil, err
	}
	if len(top.OrderBy) > 0 {
		keys := make([]exec.Expr, len(top.OrderBy))
		desc := make([]bool, len(top.OrderBy))
		env := newColEnv(nil)
		env.bind(out.Quant, 0)
		for i, o := range top.OrderBy {
			k, err := c.compileExpr(o.Expr, env)
			if err != nil {
				return nil, err
			}
			keys[i] = k
			desc[i] = o.Desc
		}
		plan = &exec.SortPlan{Child: plan, Keys: keys, Desc: desc}
	}
	if top.HiddenCols > 0 {
		// Strip trailing hidden sort columns.
		cols := plan.Columns()
		keep := len(cols) - top.HiddenCols
		exprs := make([]exec.Expr, keep)
		for i := 0; i < keep; i++ {
			exprs[i] = &exec.Slot{Idx: i, Name: cols[i].Name}
		}
		plan = &exec.ProjectPlan{Child: plan, Exprs: exprs, Cols: cols[:keep]}
	}
	if top.Limit >= 0 {
		plan = &exec.LimitPlan{Child: plan, N: top.Limit}
	}
	if c.opts.Vectorize {
		plan = vectorizePlan(plan, c.opts)
	}
	return exec.NewPlan(plan), nil
}

// CompileOutput compiles a top-level output box — the CO extraction legs
// core drives one plan per TAKEn output — applying the same batch lowering
// as CompileTop. Callers that compile boxes as subtrees of a larger plan
// keep using CompileBox, which leaves lowering to the enclosing entry
// point so pipelines fuse maximally.
func (c *Compiler) CompileOutput(box *qgm.Box) (exec.Node, error) {
	plan, _, err := c.CompileBox(box, nil)
	if err != nil {
		return nil, err
	}
	if c.opts.Vectorize {
		plan = vectorizePlan(plan, c.opts)
	}
	return plan, nil
}

// CompileRowExpr compiles a QGM expression evaluated against a single row
// bound to quantifier q at slot base 0 — the UPDATE/DELETE predicate and
// assignment path.
func (c *Compiler) CompileRowExpr(q *qgm.Quantifier, e qgm.Expr) (exec.Expr, error) {
	env := newColEnv(nil)
	env.bind(q, 0)
	return c.compileExpr(e, env)
}

// CompileBox compiles any non-Top box into a plan producing its head. The
// collector receives correlated outer references; pass nil for top-level
// boxes. The bool result reports whether the subtree is correlated (uses
// outer parameters), which disqualifies it from spooling.
func (c *Compiler) CompileBox(box *qgm.Box, outer *paramCollector) (exec.Node, bool, error) {
	before := 0
	if outer != nil {
		before = len(outer.params)
	}
	plan, err := c.compileBox(box, outer)
	if err != nil {
		return nil, false, err
	}
	correlated := outer != nil && len(outer.params) > before
	if c.opts.Spool && !correlated && c.consumers[box.ID] > 1 {
		plan = &exec.SpoolPlan{ID: box.ID, Child: plan}
	}
	return plan, correlated, nil
}

func (c *Compiler) compileBox(box *qgm.Box, outer *paramCollector) (exec.Node, error) {
	switch box.Kind {
	case qgm.BaseTable:
		return &exec.ScanPlan{Table: box.Table, Cols: headColumns(box)}, nil
	case qgm.Select:
		return c.compileSelect(box, outer)
	case qgm.GroupBy:
		return c.compileGroupBy(box, outer)
	case qgm.Union:
		return c.compileUnion(box, outer)
	default:
		return nil, fmt.Errorf("opt: cannot compile %s box %d", box.Kind, box.ID)
	}
}

func headColumns(box *qgm.Box) []exec.Column {
	cols := make([]exec.Column, len(box.Head))
	for i, h := range box.Head {
		cols[i] = exec.Column{Name: h.Name, Type: h.Type}
	}
	return cols
}

func (c *Compiler) compileUnion(box *qgm.Box, outer *paramCollector) (exec.Node, error) {
	var children []exec.Node
	for _, q := range box.Quants {
		p, _, err := c.CompileBox(q.Input, outer)
		if err != nil {
			return nil, err
		}
		children = append(children, p)
	}
	return &exec.UnionPlan{Children: children, Distinct: box.Distinct}, nil
}

func (c *Compiler) compileGroupBy(box *qgm.Box, outer *paramCollector) (exec.Node, error) {
	in := box.Quants[0]
	child, _, err := c.CompileBox(in.Input, outer)
	if err != nil {
		return nil, err
	}
	env := newColEnv(outer)
	env.bind(in, 0)
	var groups []exec.Expr
	for _, ge := range box.GroupExprs {
		g, err := c.compileExpr(ge, env)
		if err != nil {
			return nil, err
		}
		groups = append(groups, g)
	}
	var aggs []exec.AggSpec
	// The head is group columns followed by aggregate columns (the shape
	// the semantic layer builds); verify and translate.
	for i, h := range box.Head {
		if i < len(box.GroupExprs) {
			if !qgm.EqualExpr(h.Expr, box.GroupExprs[i]) {
				return nil, fmt.Errorf("opt: GroupBy head column %d does not match group expression", i)
			}
			continue
		}
		f, ok := h.Expr.(*qgm.Func)
		if !ok {
			return nil, fmt.Errorf("opt: GroupBy head column %s is not an aggregate", h.Name)
		}
		spec := exec.AggSpec{Name: f.Name, Star: f.Star, Distinct: f.Distinct}
		if !f.Star {
			arg, err := c.compileExpr(f.Args[0], env)
			if err != nil {
				return nil, err
			}
			spec.Arg = arg
		}
		aggs = append(aggs, spec)
	}
	return &exec.AggPlan{Child: child, Groups: groups, Aggs: aggs, Cols: headColumns(box)}, nil
}
