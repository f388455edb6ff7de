package engine

import (
	"fmt"

	"xnf/internal/ast"
	"xnf/internal/exec"
	"xnf/internal/opt"
	"xnf/internal/semantics"
	"xnf/internal/storage"
	"xnf/internal/types"
)

func (db *Database) execInsert(s *ast.InsertStmt, args types.Row) (int64, error) {
	return db.execInsertWith(s, args, nil, nil)
}

// compileInsertRows compiles the VALUES expressions of an INSERT once; the
// prepared-statement path caches the result so repeated executions skip
// per-row semantic analysis.
func (db *Database) compileInsertRows(s *ast.InsertStmt) ([][]exec.Expr, []string, error) {
	rows := make([][]exec.Expr, len(s.Rows))
	var deps []string
	for ri, exprRow := range s.Rows {
		row := make([]exec.Expr, len(exprRow))
		for i, e := range exprRow {
			ce, exprDeps, err := db.compileConstExpr(e)
			if err != nil {
				return nil, nil, err
			}
			row[i] = ce
			for _, d := range exprDeps {
				deps = mergeDep(deps, d)
			}
		}
		rows[ri] = row
	}
	return rows, deps, nil
}

// execInsertWith runs an INSERT; plan, when non-nil, is the prepared
// compiled plan of s.Select, which runs in place instead of recompiling;
// valueRows, when non-nil, are the precompiled VALUES expressions.
func (db *Database) execInsertWith(s *ast.InsertStmt, args types.Row, plan exec.Node, valueRows [][]exec.Expr) (int64, error) {
	t, ok := db.cat.Table(s.Table)
	if !ok {
		return 0, fmt.Errorf("engine: unknown table %s", s.Table)
	}
	// Column-subset mapping: target ordinal for each supplied value.
	target := make([]int, 0, len(t.Columns))
	if len(s.Columns) == 0 {
		for i := range t.Columns {
			target = append(target, i)
		}
	} else {
		for _, name := range s.Columns {
			ord, ok := t.ColumnIndex(name)
			if !ok {
				return 0, fmt.Errorf("engine: table %s has no column %s", s.Table, name)
			}
			target = append(target, ord)
		}
	}

	var sourceRows []types.Row
	if s.Select != nil {
		if plan == nil {
			compiled, _, err := db.compileSelectDeps(s.Select)
			if err != nil {
				return 0, err
			}
			plan = compiled
		}
		rows, err := exec.CollectWith(exec.NewCtx(db.store), plan, args)
		if err != nil {
			return 0, err
		}
		sourceRows = rows
	} else {
		if valueRows == nil {
			compiled, _, err := db.compileInsertRows(s)
			if err != nil {
				return 0, err
			}
			valueRows = compiled
		}
		ctx := exec.NewCtx(db.store)
		env := exec.Env{Ctx: ctx, Params: args}
		for _, exprRow := range valueRows {
			row := make(types.Row, len(exprRow))
			for i, ce := range exprRow {
				v, err := ce.Eval(&env)
				if err != nil {
					return 0, err
				}
				row[i] = v
			}
			sourceRows = append(sourceRows, row)
		}
	}

	tx := db.store.Begin()
	var n int64
	for _, src := range sourceRows {
		if len(src) != len(target) {
			tx.Rollback()
			return 0, fmt.Errorf("engine: INSERT expects %d values, got %d", len(target), len(src))
		}
		full := make(types.Row, len(t.Columns))
		for i := range full {
			full[i] = types.Null
		}
		for i, ord := range target {
			full[ord] = src[i]
		}
		if _, err := tx.Insert(s.Table, full); err != nil {
			tx.Rollback()
			return 0, err
		}
		n++
	}
	if err := tx.Commit(); err != nil {
		return 0, err
	}
	return n, nil
}

// compileConstExpr compiles an expression with no table context (INSERT
// VALUES items; scalar subqueries are allowed).
func (db *Database) compileConstExpr(e ast.Expr) (exec.Expr, []string, error) {
	rc, err := semantics.NewRowContextEmpty(db.cat)
	if err != nil {
		return nil, nil, err
	}
	qe, err := rc.Build(e)
	if err != nil {
		return nil, nil, err
	}
	comp := opt.NewCompiler(db.store, rc.Graph(), db.OptOptions)
	ce, err := comp.CompileRowExpr(rc.Quant(), qe)
	if err != nil {
		return nil, nil, err
	}
	return ce, rc.Graph().Deps, nil
}

// compiledMutation is the compiled form of an UPDATE/DELETE: the WHERE
// predicate and SET assignments bound against the schema once. Prepared
// statements cache one per catalog version (Revalidate recompiles after
// DDL/ANALYZE), so repeated executions skip semantic analysis entirely —
// the mutation analog of the SELECT plan cache. The expressions are
// immutable, embedded subplans included, so concurrent executions share
// them.
type compiledMutation struct {
	pred exec.Expr // nil = every row qualifies
	sets []compiledSet
	// deps are the catalog names the mutation resolved against (the target
	// table plus any tables reached through WHERE/SET subqueries), for
	// per-dependency plan-cache invalidation.
	deps []string
}

// compiledSet is one compiled UPDATE assignment.
type compiledSet struct {
	ord  int
	expr exec.Expr
}

// compileMutation binds the WHERE predicate and optional SET clauses of a
// mutation against the target table's current schema.
func (db *Database) compileMutation(table, alias string, where ast.Expr, set []ast.SetClause) (*compiledMutation, error) {
	rc, err := semantics.NewRowContext(db.cat, table, alias)
	if err != nil {
		return nil, err
	}
	comp := opt.NewCompiler(db.store, rc.Graph(), db.OptOptions)
	mut := &compiledMutation{}
	if where != nil {
		qe, err := rc.Build(where)
		if err != nil {
			return nil, err
		}
		mut.pred, err = comp.CompileRowExpr(rc.Quant(), qe)
		if err != nil {
			return nil, err
		}
	}
	if len(set) > 0 {
		t, ok := db.cat.Table(table)
		if !ok {
			return nil, fmt.Errorf("engine: unknown table %s", table)
		}
		for _, sc := range set {
			ord, ok := t.ColumnIndex(sc.Column)
			if !ok {
				return nil, fmt.Errorf("engine: table %s has no column %s", table, sc.Column)
			}
			qe, err := rc.Build(sc.Value)
			if err != nil {
				return nil, err
			}
			ce, err := comp.CompileRowExpr(rc.Quant(), qe)
			if err != nil {
				return nil, err
			}
			mut.sets = append(mut.sets, compiledSet{ord: ord, expr: ce})
		}
	}
	g := rc.Graph()
	g.AddDep(table)
	mut.deps = g.Deps
	return mut, nil
}

// mutationTargets evaluates a compiled predicate over a table and returns
// the matching RIDs and row images.
func (db *Database) mutationTargets(table string, pred exec.Expr, args types.Row) ([]storage.RID, []types.Row, error) {
	td, err := db.store.Table(table)
	if err != nil {
		return nil, nil, err
	}
	ctx := exec.NewCtx(db.store)
	env := exec.Env{Ctx: ctx, Params: args}
	var rids []storage.RID
	var rows []types.Row
	var scanErr error
	td.Scan(func(rid storage.RID, row types.Row) bool {
		env.Row = row
		ok, err := exec.EvalPred(pred, &env)
		if err != nil {
			scanErr = err
			return false
		}
		if ok {
			rids = append(rids, rid)
			rows = append(rows, row)
		}
		return true
	})
	if scanErr != nil {
		return nil, nil, scanErr
	}
	return rids, rows, nil
}

func (db *Database) execUpdate(s *ast.UpdateStmt, args types.Row) (int64, error) {
	mut, err := db.compileMutation(s.Table, s.Alias, s.Where, s.Set)
	if err != nil {
		return 0, err
	}
	return db.runUpdate(s, mut, args)
}

// runUpdate applies a compiled UPDATE.
func (db *Database) runUpdate(s *ast.UpdateStmt, mut *compiledMutation, args types.Row) (int64, error) {
	rids, rows, err := db.mutationTargets(s.Table, mut.pred, args)
	if err != nil {
		return 0, err
	}
	ctx := exec.NewCtx(db.store)
	env := exec.Env{Ctx: ctx, Params: args}
	tx := db.store.Begin()
	for i, rid := range rids {
		old := rows[i]
		env.Row = old
		updated := old.Clone()
		for _, sc := range mut.sets {
			v, err := sc.expr.Eval(&env)
			if err != nil {
				tx.Rollback()
				return 0, err
			}
			updated[sc.ord] = v
		}
		if err := tx.Update(s.Table, rid, updated); err != nil {
			tx.Rollback()
			return 0, err
		}
	}
	if err := tx.Commit(); err != nil {
		return 0, err
	}
	return int64(len(rids)), nil
}

func (db *Database) execDelete(s *ast.DeleteStmt, args types.Row) (int64, error) {
	mut, err := db.compileMutation(s.Table, s.Alias, s.Where, nil)
	if err != nil {
		return 0, err
	}
	return db.runDelete(s, mut, args)
}

// runDelete applies a compiled DELETE.
func (db *Database) runDelete(s *ast.DeleteStmt, mut *compiledMutation, args types.Row) (int64, error) {
	rids, _, err := db.mutationTargets(s.Table, mut.pred, args)
	if err != nil {
		return 0, err
	}
	tx := db.store.Begin()
	for _, rid := range rids {
		if err := tx.Delete(s.Table, rid); err != nil {
			tx.Rollback()
			return 0, err
		}
	}
	if err := tx.Commit(); err != nil {
		return 0, err
	}
	return int64(len(rids)), nil
}
