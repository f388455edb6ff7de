package main

import (
	"fmt"
	"time"

	"xnf/internal/ast"
	"xnf/internal/engine"
	"xnf/internal/exec"
	"xnf/internal/opt"
	"xnf/internal/parser"
	"xnf/internal/rewrite"
	"xnf/internal/semantics"
	"xnf/internal/types"
)

// maxReplays bounds one replay kind so its spans fit the trace log.
const maxReplays = 4000

// selectReplay describes one SELECT class to step through the layers.
type selectReplay struct {
	class string
	// texts are the statement texts the compile layers see, cycled: the
	// literal variants of an ad-hoc class, or the one parameterised text.
	texts []string
	// prepared is the parameterised text the plan cache holds; args binds
	// its placeholders for replay i.
	prepared string
	args     func(i int) []types.Value
}

// compileSelect runs parse → semantics → rewrite → opt through each
// module's public entry point, each under its own child span of root.
func compileSelect(sp *tracer, root int32, db *engine.Database, text string, opts opt.Options) (exec.Plan, error) {
	var stmt ast.Statement
	var err error
	sp.call("parser.Parse", root, func() { stmt, err = parser.Parse(text) })
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*ast.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("not a SELECT: %s", text)
	}
	id := sp.child("semantics.BuildSelect", root)
	g, err := semantics.BuildSelect(db.Catalog(), sel)
	sp.close(id)
	if err != nil {
		return nil, err
	}
	sp.call("rewrite.Apply", root, func() { rewrite.Apply(g, db.RewriteOptions) })
	id = sp.child("opt.CompileTop", root)
	plan, err := opt.NewCompiler(db.Store(), g, opts).CompileTop()
	sp.close(id)
	return plan, err
}

// openDrain runs a private plan to completion the way engine.Rows does:
// Open, Next until nil, Close. It returns the row count and the counters.
func openDrain(db *engine.Database, plan exec.Plan, args []types.Value) (int, exec.Counters, error) {
	ctx := exec.NewCtx(db.Store())
	if err := plan.Open(ctx, types.Row(args)); err != nil {
		return 0, ctx.Counters, err
	}
	n := 0
	for {
		row, err := plan.Next(ctx)
		if err != nil {
			plan.Close(ctx)
			return n, ctx.Counters, err
		}
		if row == nil {
			break
		}
		n++
	}
	return n, ctx.Counters, plan.Close(ctx)
}

// replaySelect steps sampled executions of one SELECT class through every
// layer: compile pipeline, plan-cache hit, clone, open/drain, and the whole
// in-process statement. It returns how many replays it made and the
// execution counters of the last in-process run.
func (lc *layerCtx) replaySelect(db *engine.Database, r selectReplay, budget time.Duration) (int, exec.Counters, error) {
	stmt, err := db.Prepare(r.prepared)
	if err != nil {
		return 0, exec.Counters{}, err
	}
	// The clone and the drain use the parameterised template, as the engine
	// does; a literal text's plan takes no arguments.
	template, err := db.CompileSelect(mustSelect(r.prepared))
	if err != nil {
		return 0, exec.Counters{}, err
	}
	var last exec.Counters
	deadline := time.Now().Add(budget)
	n := 0
	for ; n < maxReplays && (n < 15 || time.Now().Before(deadline)); n++ {
		args := r.args(n)
		root := lc.sp.root("replay." + r.class)
		if _, err := compileSelect(lc.sp, root, db, r.texts[n%len(r.texts)], db.OptOptions); err != nil {
			return n, last, err
		}
		lc.sp.call("engine.Prepare", root, func() { _, err = db.Prepare(r.prepared) })
		if err != nil {
			return n, last, err
		}
		var clone exec.Plan
		lc.sp.call("exec.ClonePlan", root, func() { clone = exec.ClonePlan(template) })
		id := lc.sp.child("plan.OpenDrain", root)
		_, _, err = openDrain(db, clone, args)
		lc.sp.close(id)
		if err != nil {
			return n, last, err
		}
		id = lc.sp.child("engine.Stmt.Query", root)
		res, err := stmt.Query(args...)
		lc.sp.close(id)
		if err != nil {
			return n, last, err
		}
		last = res.Counters
		lc.sp.close(root)
	}
	return n, last, nil
}

// mustSelect parses a text already known to be a valid SELECT.
func mustSelect(text string) *ast.SelectStmt {
	stmt, err := parser.Parse(text)
	if err != nil {
		panic(err) // the text was prepared successfully before
	}
	return stmt.(*ast.SelectStmt)
}

// setCompileLayers copies the compile-layer span medians into the report.
func (lc *layerCtx) setCompileLayers(stats map[string]*spanStat) {
	for metric, name := range map[string]string{
		"parser.parse_ns":       "parser.Parse",
		"semantics.build_ns":    "semantics.BuildSelect",
		"rewrite.apply_ns":      "rewrite.Apply",
		"opt.compile_ns":        "opt.CompileTop",
		"engine.prepare_hit_ns": "engine.Prepare",
		"exec.clone_ns":         "exec.ClonePlan",
		"vexec.open_drain_ns":   "plan.OpenDrain",
		"engine.stmt_query_ns":  "engine.Stmt.Query",
	} {
		if st := stats[name]; st != nil {
			lc.rep.set(metric, st.MedianNs, st.Count)
		}
	}
}
