// Package xnf is a Go reproduction of "Composite-Object Views in
// Relational DBMS: An Implementation Perspective" (Pirahesh, Mitschang,
// Südkamp, Lindsay — Information Systems 19(1), 1994): an in-memory
// relational engine with the SQL/XNF composite-object extension.
//
// A composite object (CO) is defined as a view over relational data with
// the OUT OF … TAKE constructor: component tables (ordinary derived
// tables) plus relationships (RELATE parent VIA role, child [USING t]
// WHERE pred). Querying a CO view extracts every component and connection
// set-oriented in one multi-output query and builds a client-side cache in
// which connections are Go pointers, navigated through cursors and path
// expressions at main-memory speed.
//
// Quick start:
//
//	db := xnf.Open()
//	db.MustExec(`CREATE TABLE DEPT (dno INT NOT NULL, loc VARCHAR, PRIMARY KEY (dno))`)
//	db.MustExec(`CREATE TABLE EMP (eno INT NOT NULL, edno INT, PRIMARY KEY (eno))`)
//	// … insert data …
//
// SQL statements take `?` placeholders, bound per execution. Prepare
// compiles a statement once into the database's plan cache; executing the
// prepared statement (or re-running SQL of the same shape through
// Query/Exec — the cache lifts literals into parameters, so texts that
// differ only in their literal values share a plan) skips the parse →
// semantics → rewrite → optimize pipeline and goes straight to plan
// execution:
//
//	stmt, _ := db.Prepare(`SELECT * FROM EMP WHERE edno = ?`)
//	for _, dno := range deptNos {
//	    res, _ := stmt.Query(xnf.NewInt(dno)) // bind-and-run, no recompile
//	    // … use res.Rows …
//	}
//
// Plans are invalidated automatically by DDL and ANALYZE (the catalog
// version is part of cache validity; ANALYZE is available both as the Go
// API Analyze and as a SQL statement). Execution is vectorized where it
// pays: the optimizer lowers scan→filter→project→join→sort/distinct→
// aggregate pipelines into the internal/vexec batch engine (column-major
// ~1024-row chunks), falling back to row iterators for subqueries and
// correlated nested-loop joins. Parallel operators draw workers from a
// process-wide admission-controlled pool (see SetPoolWorkers/PoolStats).
// Compiled CO views are cached the same way — including their per-output
// physical plans — so repeated QueryCO of a stored view skips both the
// XNF rewrite and plan optimization:
//
//	cache, err := db.QueryCO(`OUT OF d AS (SELECT * FROM DEPT WHERE loc = 'ARC'),
//	                                 e AS EMP,
//	                                 employs AS (RELATE d, e WHERE d.dno = e.edno)
//	                          TAKE *`)
//	deps, _ := cache.Component("d")
//	for _, dept := range deps.Objects() {
//	    for _, emp := range dept.Children("employs") { … }
//	}
package xnf

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"xnf/internal/ast"
	"xnf/internal/cocache"
	"xnf/internal/core"
	"xnf/internal/engine"
	"xnf/internal/exec"
	"xnf/internal/metrics"
	"xnf/internal/opt"
	"xnf/internal/parser"
	"xnf/internal/resource"
	"xnf/internal/rewrite"
	"xnf/internal/storage"
	"xnf/internal/types"
	"xnf/internal/vexec"
	"xnf/internal/wire"
)

// Re-exported building blocks. The concrete types live in internal
// packages; these aliases are the public surface.
type (
	// Value is a SQL scalar value.
	Value = types.Value
	// Row is a tuple of values.
	Row = types.Row
	// Cache is a client-side composite-object workspace.
	Cache = cocache.Cache
	// Object is one component tuple in a Cache, navigable via pointers.
	Object = cocache.Object
	// Component is one component table of a cached CO.
	Component = cocache.Component
	// Cursor iterates objects (independent or dependent).
	Cursor = cocache.Cursor
	// Result is a materialized SQL query result.
	Result = engine.Result
	// Rows is a streaming query result: a pull-based cursor that drives
	// the plan lazily, so memory stays bounded by one batch. Callers must
	// drain or Close it.
	Rows = engine.Rows
	// ClientRows is the wire-protocol counterpart of Rows: a server-side
	// cursor fetched one block per round trip.
	ClientRows = wire.Rows
	// Stmt is a prepared statement (compile once, execute many).
	Stmt = engine.Stmt
	// COResult is a materialized composite object before caching.
	COResult = core.COResult
	// Table1 is the regenerated derivation-cost comparison of the paper.
	Table1 = core.Table1
	// Client is a remote connection to a Server.
	Client = wire.Client
	// Server serves the CO protocol over TCP.
	Server = wire.Server
	// ShipMode selects tuple/block/whole-CO shipping.
	ShipMode = wire.ShipMode
	// MetricsRegistry is a database's registry of named counters, gauges
	// and latency histograms; every subsystem (wire server, engine, worker
	// pool, WAL, column store) registers into it.
	MetricsRegistry = metrics.Registry
	// MetricsSample is one flattened metric value in a snapshot.
	MetricsSample = metrics.Sample
	// SlowQuery is one entry of the engine's slow-query log.
	SlowQuery = engine.SlowQuery
	// ServerError is an error frame from a Server, carrying a
	// machine-readable ErrCode so clients can tell retryable overload
	// rejections (resource_exhausted, busy) from fatal failures.
	ServerError = wire.ServerError
	// ErrCode classifies a ServerError.
	ErrCode = wire.ErrCode
)

// ServerError codes, re-exported. CodeResourceExhausted and CodeBusy are
// retryable; see IsRetryable and Retry.
const (
	CodeInternal          = wire.CodeInternal
	CodeProtocol          = wire.CodeProtocol
	CodeNotFound          = wire.CodeNotFound
	CodeResourceExhausted = wire.CodeResourceExhausted
	CodeTimeout           = wire.CodeTimeout
	CodeCanceled          = wire.CodeCanceled
	CodeBusy              = wire.CodeBusy
)

// Error classification and backoff helpers, re-exported.
var (
	// IsRetryable reports whether err is a ServerError (or an engine
	// resource error) worth retrying after backoff.
	IsRetryable = wire.IsRetryable
	// Retry runs f with exponential backoff from base, retrying only
	// retryable errors, up to attempts tries.
	Retry = wire.Retry
	// ErrResourceExhausted is the typed sentinel every failed memory
	// reservation unwraps to (errors.Is-matchable).
	ErrResourceExhausted = resource.ErrResourceExhausted
)

// DefaultSlowQueryThreshold is the slow-query log threshold a fresh
// database starts with; change it per database with SetSlowQueryThreshold.
const DefaultSlowQueryThreshold = engine.DefaultSlowQueryThreshold

// Value constructors, re-exported.
var (
	NewInt    = types.NewInt
	NewFloat  = types.NewFloat
	NewString = types.NewString
	NewBool   = types.NewBool
	Null      = types.Null
)

// Ship-mode constructors, re-exported.
var (
	ShipWhole       = wire.ShipWhole
	ShipBlocks      = wire.ShipBlocks
	ShipTupleAtTime = wire.ShipTupleAtATime
)

// DB is one in-memory XNF database.
type DB struct {
	eng *engine.Database
}

// Open creates an empty database.
func Open() *DB { return &DB{eng: engine.Open()} }

// OpenDir opens a durable database rooted at dir: existing state there is
// recovered (newest checkpoint plus write-ahead-log suffix, with
// uncommitted tails discarded), and every later commit is logged and
// fsync'd before it is acknowledged — group-committed across concurrent
// writers. A background loop checkpoints the store periodically so
// recovery replays only a short log suffix. Call Close before exit for a
// clean shutdown; a killed process recovers on the next OpenDir.
func OpenDir(dir string) (*DB, error) {
	eng, err := engine.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	return &DB{eng: eng}, nil
}

// Close stops the checkpoint loop and flushes + detaches the write-ahead
// log. It is a no-op on an in-memory database, and idempotent.
func (db *DB) Close() error { return db.eng.Close() }

// Checkpoint forces a checkpoint: the full store image is persisted and
// the log truncated. Errors on an in-memory database.
func (db *DB) Checkpoint() error { return db.eng.Checkpoint() }

// WALStats re-exports the durability counters type.
type WALStats = storage.WALStats

// WALStats reports durability counters (records, bytes, fsyncs, commit
// group sizes, checkpoints, recovery work); Attached is false for an
// in-memory database.
func (db *DB) WALStats() WALStats { return db.eng.WALStats() }

// Engine exposes the underlying engine for advanced use (optimizer
// options, direct storage access).
func (db *DB) Engine() *engine.Database { return db.eng }

// Exec runs DDL or DML and returns the number of affected rows. Args bind
// `?` placeholders.
func (db *DB) Exec(sql string, args ...Value) (int64, error) { return db.eng.Exec(sql, args...) }

// MustExec is Exec that panics on error (setup code, examples).
func (db *DB) MustExec(sql string, args ...Value) int64 {
	n, err := db.eng.Exec(sql, args...)
	if err != nil {
		panic(err)
	}
	return n
}

// Prepare compiles a statement once for repeated execution. The compiled
// plan also lands in the database's shared plan cache, so SQL of the same
// shape (identical up to literal values) through Query/Exec reuses it too.
func (db *DB) Prepare(sql string) (*Stmt, error) { return db.eng.Prepare(sql) }

// ExecScript runs a semicolon-separated statement list.
func (db *DB) ExecScript(sql string) error { return db.eng.ExecScript(sql) }

// Query runs a SELECT and returns the materialized result. Args bind `?`
// placeholders; plans come from the shared plan cache.
func (db *DB) Query(sql string, args ...Value) (*Result, error) { return db.eng.Query(sql, args...) }

// QueryRows runs a SELECT and returns a streaming cursor over its result:
// rows are produced as they are pulled, so the peak memory of the query is
// one batch rather than the whole result. The caller must drain or Close
// the returned Rows.
func (db *DB) QueryRows(sql string, args ...Value) (*Rows, error) {
	return db.eng.QueryRows(sql, args...)
}

// QueryRowsContext is QueryRows with cancellation: once ctx is done, Next
// aborts the stream and releases the plan's resources.
func (db *DB) QueryRowsContext(ctx context.Context, sql string, args ...Value) (*Rows, error) {
	return db.eng.QueryRowsContext(ctx, sql, args...)
}

// Explain returns the physical plan of a SELECT.
func (db *DB) Explain(sql string) (string, error) { return db.eng.Explain(sql) }

// ExplainAnalyze executes a SELECT and returns the physical plan annotated
// with runtime counters (rows scanned, index probes, zone-map segments
// pruned).
func (db *DB) ExplainAnalyze(sql string, args ...Value) (string, error) {
	return db.eng.ExplainAnalyze(sql, args...)
}

// Analyze refreshes optimizer statistics.
func (db *DB) Analyze() error { return db.eng.Analyze() }

// CompileCO compiles an XNF query — either the name of a stored CO view or
// inline `OUT OF … TAKE …` text — without executing it.
func (db *DB) CompileCO(query string) (*core.Compiled, error) {
	if v, ok := db.eng.Catalog().View(query); ok && v.IsXNF {
		return db.eng.CompileCOView(query)
	}
	stmt, err := parser.Parse(query)
	if err != nil {
		return nil, err
	}
	xq, ok := stmt.(*ast.XNFQuery)
	if !ok {
		return nil, fmt.Errorf("xnf: CompileCO requires an XNF query or CO view name")
	}
	return core.Compile(db.eng.Catalog(), xq, db.eng.RewriteOptions)
}

// QueryCO extracts a composite object (by stored view name or inline
// query) and builds the pointer-linked cache.
func (db *DB) QueryCO(query string) (*Cache, error) {
	res, err := db.ExtractCO(query)
	if err != nil {
		return nil, err
	}
	return cocache.Build(res)
}

// ExtractCO runs the set-oriented extraction without building the cache.
// Stored views drain the engine's CO stream over cached plan templates
// (compiled once per catalog version); inline queries compile their plans
// per call.
func (db *DB) ExtractCO(query string) (*COResult, error) {
	if v, ok := db.eng.Catalog().View(query); ok && v.IsXNF {
		return db.eng.ExtractCOView(query, false)
	}
	compiled, err := db.CompileCO(query)
	if err != nil {
		return nil, err
	}
	return compiled.Execute(db.eng.Store(), db.eng.OptOptions)
}

// SaveChanges applies a cache's pending write-back operations to this
// database.
func (db *DB) SaveChanges(c *Cache) error {
	return c.SaveChanges(func(sql string) error {
		_, err := db.eng.Exec(sql)
		return err
	})
}

// AnalyzeTable1 regenerates the paper's Table 1 derivation-cost comparison
// for an XNF query or stored CO view.
func (db *DB) AnalyzeTable1(query string) (*Table1, error) {
	if v, ok := db.eng.Catalog().View(query); ok && v.IsXNF {
		stmt, err := parser.Parse(v.Text)
		if err != nil {
			return nil, err
		}
		return core.AnalyzeTable1(db.eng.Catalog(), stmt.(*ast.CreateViewStmt).XNF, db.eng.RewriteOptions)
	}
	stmt, err := parser.Parse(query)
	if err != nil {
		return nil, err
	}
	xq, ok := stmt.(*ast.XNFQuery)
	if !ok {
		return nil, fmt.Errorf("xnf: AnalyzeTable1 requires an XNF query or CO view name")
	}
	return core.AnalyzeTable1(db.eng.Catalog(), xq, db.eng.RewriteOptions)
}

// Metrics returns the database's metrics registry: counters, gauges and
// histograms for the engine, worker pool, WAL, column store and — when the
// database backs a Server — the wire layer. Snapshot, Value and
// WritePrometheus read it without blocking writers.
func (db *DB) Metrics() *MetricsRegistry { return db.eng.Registry() }

// MetricsHandler returns the observability HTTP handler for this database:
// /metrics (Prometheus text), /debug/vars (JSON, including the slow-query
// log) and /debug/pprof/. Serve it on its own listener (xnfserver -http).
func (db *DB) MetricsHandler() http.Handler {
	return metrics.Handler(db.eng.Registry(), db.eng.DebugVars)
}

// SetSlowQueryThreshold rebinds the slow-query log threshold: statements
// at or above d land in SlowQueries. d <= 0 disables the log.
func (db *DB) SetSlowQueryThreshold(d time.Duration) { db.eng.SetSlowQueryThreshold(d) }

// SetMemBudget caps the process memory budget in bytes (0 = unlimited).
// Statements that cannot fit even after degrading fail with a retryable
// error that unwraps to ErrResourceExhausted; see docs/ROBUSTNESS.md.
func (db *DB) SetMemBudget(n int64) { db.eng.SetMemBudget(n) }

// MemUsed reports the bytes currently reserved process-wide; it returns
// to zero once every statement and session has closed.
func (db *DB) MemUsed() int64 { return db.eng.MemUsed() }

// SlowQueries returns the retained slow statements, newest first.
func (db *DB) SlowQueries() []SlowQuery { return db.eng.SlowQueries() }

// LogStats writes a one-line stats summary (selected counters with rates,
// heap, goroutines) to w every interval until stop closes. Run it on its
// own goroutine.
func (db *DB) LogStats(w io.Writer, every time.Duration, stop <-chan struct{}) {
	db.eng.Registry().LogLoop(w, every, nil, stop)
}

// NewServer wraps the database in a CO protocol server; use Serve with a
// net.Listener or the cmd/xnfserver binary.
func (db *DB) NewServer() *Server { return wire.NewServer(db.eng) }

// Dial connects to a remote XNF server.
func Dial(addr string) (*Client, error) { return wire.Dial(addr) }

// Counters re-exports the execution counters type.
type Counters = exec.Counters

// PoolStatsSnapshot re-exports the shared worker pool's statistics type.
type PoolStatsSnapshot = vexec.PoolStats

// PoolStats returns a snapshot of the process-wide worker pool that
// parallel batch operators (parallel aggregation, hash-join builds,
// sorts) draw extra goroutines from.
func PoolStats() PoolStatsSnapshot { return vexec.Shared.Stats() }

// SetPoolWorkers rebounds the process-wide worker pool. n <= 0 restores
// the default bound of GOMAXPROCS.
func SetPoolWorkers(n int) { vexec.SetWorkers(n) }

// Optimizer mode helpers for experiments: Naive disables every
// optimization (syntax-order nested-loop joins, re-executed subqueries, no
// rewrite); Full restores the defaults.
func (db *DB) Naive() {
	db.eng.OptOptions = opt.NaiveOptions()
	db.eng.RewriteOptions = rewrite.NoRewrite()
}

// Full enables the complete optimizer (default).
func (db *DB) Full() {
	db.eng.OptOptions = opt.DefaultOptions()
	db.eng.RewriteOptions = rewrite.DefaultOptions()
}
