// Package engine is the database façade: it owns the catalog and the
// storage engine and drives the full compilation pipeline of Fig. 2
// (parse → semantic checking → rewrite → plan optimization → execution)
// for SQL statements. XNF queries are delegated to internal/core.
//
// Query results come in two shapes: Query materializes the whole result
// into a Result, and QueryRows returns a streaming Rows cursor that drives
// the plan lazily in bounded memory (see the Rows type for the full
// contract: Next until nil, check Err, always Close). Query is implemented
// on top of QueryRows.
package engine

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"xnf/internal/ast"
	"xnf/internal/catalog"
	"xnf/internal/exec"
	"xnf/internal/opt"
	"xnf/internal/parser"
	"xnf/internal/resource"
	"xnf/internal/rewrite"
	"xnf/internal/semantics"
	"xnf/internal/storage"
	"xnf/internal/types"
)

// Database is one in-memory database instance.
type Database struct {
	cat   *catalog.Catalog
	store *storage.Store

	// OptOptions and RewriteOptions control the optimizer; the benchmark
	// harness overrides them to produce the naive baselines. They are
	// configuration, not runtime state: set them before serving traffic
	// (or between single-threaded benchmark phases) — flipping them while
	// other goroutines execute statements is not synchronized.
	OptOptions     opt.Options
	RewriteOptions rewrite.Options

	// Options collects engine-level tuning knobs that do not affect plan
	// semantics (flipping them never invalidates cached plans).
	Options Options

	// Metrics counts compiles and plan-cache traffic.
	Metrics Metrics

	// stats is the per-database observability state: the metric registry
	// plus statement-path recording handles (see stats.go).
	stats *dbStats

	// mem is the process-level memory accountant; sessions and
	// statements derive children from it (see resource.go).
	mem *resource.Accountant

	// plans caches compiled objects: statements keyed by their shape
	// (normalizeSQL: literals lifted into the argument frame), and CO views (compilation plus plan templates) keyed
	// by a reserved prefix and the view name. Entries are validated against
	// the catalog version and their per-name dependencies (DDL and ANALYZE
	// bump both).
	plans *planCache

	// Durable-database state (see durability.go): background checkpoint
	// loop lifecycle and idempotent Close.
	ckptStop  chan struct{}
	ckptWG    sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

// Open creates an empty database.
func Open() *Database {
	cat := catalog.New()
	db := &Database{
		cat:            cat,
		store:          storage.NewStore(cat),
		OptOptions:     opt.DefaultOptions(),
		RewriteOptions: rewrite.DefaultOptions(),
		plans:          newPlanCache(defaultPlanCacheCap),
		mem:            resource.NewRoot("process", 0),
	}
	db.stats = newDBStats(db)
	return db
}

// Catalog exposes the catalog (read-mostly).
func (db *Database) Catalog() *catalog.Catalog { return db.cat }

// Store exposes the storage engine.
func (db *Database) Store() *storage.Store { return db.store }

// Result is a fully materialized query result. For large results prefer
// the streaming cursor (Database.QueryRows / Stmt.QueryRows), which holds
// one batch in memory instead of every row; Query is a materializing
// wrapper over it.
type Result struct {
	Cols []exec.Column
	Rows []types.Row
	// Counters from the execution context (rows scanned etc.).
	Counters exec.Counters
}

// Exec runs any statement; for queries it returns no rows (use Query).
// The int result is the number of rows affected by DML. Args bind `?`
// placeholders. DML is cached by shape like a query (see Prepare): texts
// that differ only in their literals share one compiled statement, and
// INSERT … SELECT keeps its compiled source plan. Multi-row literal
// INSERT … VALUES, a one-shot bulk load, is not cached.
func (db *Database) Exec(sql string, args ...types.Value) (int64, error) {
	stmt, err := db.Prepare(sql)
	if err != nil {
		return 0, err
	}
	return stmt.Exec(args...)
}

// ExecStmt runs a parsed statement and observes it in the statement
// metrics, as a prepared statement's Exec does.
func (db *Database) ExecStmt(stmt ast.Statement) (int64, error) {
	switch stmt.(type) {
	case *ast.SelectStmt:
		return 0, fmt.Errorf("engine: use Query for SELECT statements")
	case *ast.XNFQuery:
		return 0, fmt.Errorf("engine: use the CO API for XNF queries")
	}
	start := time.Now()
	n, err := db.execStmt(stmt)
	db.stats.observeParsed(verbOf(stmt), stmt, start, n, exec.Counters{}, err)
	return n, err
}

// verbOf classifies a DDL or DML statement for the statement counters.
func verbOf(stmt ast.Statement) byte {
	switch stmt.(type) {
	case *ast.InsertStmt:
		return 'I'
	case *ast.UpdateStmt:
		return 'U'
	case *ast.DeleteStmt:
		return 'D'
	}
	return 0
}

// execStmt runs a parsed DDL or DML statement.
func (db *Database) execStmt(stmt ast.Statement) (int64, error) {
	switch s := stmt.(type) {
	case *ast.CreateTableStmt:
		return 0, db.createTable(s)
	case *ast.CreateIndexStmt:
		kind := catalog.HashIndex
		if s.Ordered {
			kind = catalog.OrderedIndex
		}
		return 0, db.store.CreateIndex(&catalog.Index{
			Name: s.Name, Table: s.Table, Columns: s.Columns, Kind: kind, Unique: s.Unique,
		})
	case *ast.CreateViewStmt:
		return 0, db.createView(s)
	case *ast.DropStmt:
		if s.Kind == "TABLE" {
			return 0, db.store.DropTable(s.Name)
		}
		return 0, db.store.DropView(s.Name)
	case *ast.AnalyzeStmt:
		// Statistics refresh bumps the catalog version inside the store,
		// exactly like the Go API Database.Analyze.
		if s.Table == "" {
			return 0, db.store.AnalyzeAll()
		}
		return 0, db.store.Analyze(s.Table)
	case *ast.AlterTableStmt:
		kind := catalog.RowStore
		if s.Storage == "COLUMN" {
			kind = catalog.ColumnStore
		}
		return 0, db.store.SetTableStorage(s.Table, kind)
	case *ast.InsertStmt:
		return db.execInsert(s, nil)
	case *ast.UpdateStmt:
		return db.execUpdate(s, nil)
	case *ast.DeleteStmt:
		return db.execDelete(s, nil)
	default:
		return 0, fmt.Errorf("engine: unsupported statement %T", stmt)
	}
}

// ExecScript runs a semicolon-separated script (DDL + DML).
func (db *Database) ExecScript(sql string) error {
	stmts, err := parser.ParseScript(sql)
	if err != nil {
		return err
	}
	for _, stmt := range stmts {
		if sel, ok := stmt.(*ast.SelectStmt); ok {
			if _, err := db.QueryStmt(sel); err != nil {
				return err
			}
			continue
		}
		if _, err := db.ExecStmt(stmt); err != nil {
			return fmt.Errorf("engine: %s: %w", firstWords(stmt.String(), 6), err)
		}
	}
	return nil
}

func firstWords(s string, n int) string {
	parts := strings.Fields(s)
	if len(parts) > n {
		parts = parts[:n]
	}
	return strings.Join(parts, " ")
}

// Query compiles and runs a SELECT, returning the materialized result.
// Args bind `?` placeholders. Plans are served from the shared plan cache:
// the first execution of a statement text compiles it, later executions
// (from any goroutine) run the cached plan in place.
func (db *Database) Query(sql string, args ...types.Value) (*Result, error) {
	stmt, err := db.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return stmt.Query(args...)
}

// QueryStmt compiles and runs a parsed SELECT, observing it in the
// statement metrics.
func (db *Database) QueryStmt(sel *ast.SelectStmt) (*Result, error) {
	start := time.Now()
	ctx := exec.NewCtx(db.store)
	plan, _, err := db.compileSelectDeps(sel)
	var rows []types.Row
	if err == nil {
		rows, err = exec.Collect(ctx, plan)
	}
	db.stats.observeParsed('S', sel, start, int64(len(rows)), ctx.Counters, err)
	if err != nil {
		return nil, err
	}
	return &Result{Cols: plan.Columns(), Rows: rows, Counters: ctx.Counters}, nil
}

// CompileSelect runs the full compile pipeline for a SELECT and returns
// an execution handle over the compiled plan.
func (db *Database) CompileSelect(sel *ast.SelectStmt) (exec.Plan, error) {
	plan, _, err := db.compileSelectDeps(sel)
	if err != nil {
		return nil, err
	}
	return exec.NewPlan(plan), nil
}

// compileSelectDeps compiles a SELECT to its plan root plus the catalog
// names (tables and views) the query resolved against, which the plan
// cache uses for per-dependency invalidation.
func (db *Database) compileSelectDeps(sel *ast.SelectStmt) (exec.Node, []string, error) {
	db.Metrics.Compiles.Add(1)
	g, err := semantics.BuildSelect(db.cat, sel)
	if err != nil {
		return nil, nil, err
	}
	rewrite.Apply(g, db.RewriteOptions)
	if errs := g.Validate(); len(errs) > 0 {
		return nil, nil, fmt.Errorf("engine: invalid QGM after rewrite: %s", strings.Join(errs, "; "))
	}
	comp := opt.NewCompiler(db.store, g, db.OptOptions)
	plan, err := comp.CompileTop()
	if err != nil {
		return nil, nil, err
	}
	return plan.Root(), g.Deps, nil
}

// Explain returns the physical plan text for a SELECT.
func (db *Database) Explain(sql string) (string, error) {
	stmt, err := parser.Parse(sql)
	if err != nil {
		return "", err
	}
	sel, ok := stmt.(*ast.SelectStmt)
	if !ok {
		return "", fmt.Errorf("engine: EXPLAIN requires a SELECT statement")
	}
	plan, _, err := db.compileSelectDeps(sel)
	if err != nil {
		return "", err
	}
	return plan.Explain(0), nil
}

// ExplainAnalyze compiles and executes a SELECT (streaming, the result is
// discarded) and returns the physical plan text followed by the runtime
// counters of the execution — rows produced and scanned, index probes, and
// zone-map pruning effectiveness (segments skipped before decoding). Args
// bind `?` placeholders.
func (db *Database) ExplainAnalyze(sql string, args ...types.Value) (string, error) {
	stmt, err := db.Prepare(sql)
	if err != nil {
		return "", err
	}
	if !stmt.IsQuery() {
		return "", fmt.Errorf("engine: EXPLAIN ANALYZE requires a SELECT statement")
	}
	rows, err := stmt.QueryRows(args...)
	if err != nil {
		return "", err
	}
	defer rows.Close()
	n := 0
	for {
		row, err := rows.Next()
		if err != nil {
			return "", err
		}
		if row == nil {
			break
		}
		n++
	}
	c := rows.Counters()
	out := fmt.Sprintf("%s-- %d row(s); rows_scanned=%d index_lookups=%d segments_pruned=%d spools=%d subplan_runs=%d join_build=%d join_probe=%d pool_workers=%d pool_fallbacks=%d segments_scanned=%d mem_reserved=%d mem_fallbacks=%d encoded_cmp_rows=%d encoded_hash_rows=%d\n",
		stmt.plan.Explain(0), n, c.RowsScanned, c.IndexLookups, c.SegmentsPruned, c.SpoolMaterial, c.SubplanRuns,
		c.JoinBuildRows, c.JoinProbeRows, c.PoolWorkers, c.PoolFallbacks, c.SegmentsScanned, c.MemReserved, c.MemFallbacks,
		c.EncodedCmpRows, c.EncodedHashRows)
	if ws := db.store.WALStats(); ws.Attached {
		group := float64(0)
		if ws.Fsyncs > 0 {
			group = float64(ws.GroupSum) / float64(ws.Fsyncs)
		}
		out += fmt.Sprintf("-- wal: records=%d bytes=%d fsyncs=%d commits=%d group_mean=%.1f group_max=%d checkpoints=%d recovery_ms=%d\n",
			ws.Records, ws.Bytes, ws.Fsyncs, ws.Commits, group, ws.MaxGroup, ws.Checkpoints, ws.RecoveryMillis)
	}
	return out, nil
}

func (db *Database) createTable(s *ast.CreateTableStmt) error {
	t := &catalog.Table{Name: s.Name, PrimaryKey: s.PrimaryKey}
	for _, c := range s.Columns {
		t.Columns = append(t.Columns, catalog.Column{Name: c.Name, Type: c.Type, NotNull: c.NotNull})
	}
	for _, fk := range s.ForeignKeys {
		t.ForeignKeys = append(t.ForeignKeys, catalog.ForeignKey{
			Columns: fk.Columns, RefTable: fk.RefTable, RefColumns: fk.RefColumns,
		})
	}
	return db.store.CreateTable(t)
}

func (db *Database) createView(s *ast.CreateViewStmt) error {
	if ast.NumPlaceholders(s) > 0 {
		return fmt.Errorf("engine: placeholders are not allowed in view definitions")
	}
	// Validate the view body compiles before storing its text.
	if s.XNF != nil {
		if _, err := semantics.BuildXNF(db.cat, s.XNF); err != nil {
			return err
		}
		return db.store.CreateView(&catalog.View{Name: s.Name, Text: s.String(), IsXNF: true})
	}
	if _, err := semantics.BuildSelect(db.cat, s.Select); err != nil {
		return err
	}
	return db.store.CreateView(&catalog.View{Name: s.Name, Text: s.String()})
}

// Analyze refreshes optimizer statistics for all tables.
func (db *Database) Analyze() error { return db.store.AnalyzeAll() }
