package engine

import (
	"container/list"
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xnf/internal/ast"
	"xnf/internal/core"
	"xnf/internal/exec"
	"xnf/internal/lexer"
	"xnf/internal/opt"
	"xnf/internal/parser"
	"xnf/internal/rewrite"
	"xnf/internal/types"
)

// Options collects engine-level tuning knobs that do not affect plan
// semantics — unlike OptOptions, flipping them never invalidates a cached
// plan, so they can change between executions without recompiles.
type Options struct {
	// StatementTimeout bounds the wall time of a streaming statement
	// execution (0 = none). It applies only when the caller's context
	// carries no deadline of its own, so per-session SET overrides —
	// delivered as context deadlines — replace it in either direction.
	// The deadline is checked between rows and at batch boundaries
	// inside blocking operators (sort, hash build, aggregation).
	StatementTimeout time.Duration
}

// Metrics counts compilation and cache activity. The prepared-statement
// tests and the bench harness read them to verify that repeated executions
// of a cached statement skip the compile pipeline entirely.
type Metrics struct {
	// Compiles counts full SELECT compile-pipeline runs
	// (parse → semantics → rewrite → opt).
	Compiles atomic.Int64
	// CacheHits / CacheMisses count plan-cache lookups.
	CacheHits   atomic.Int64
	CacheMisses atomic.Int64
	// COCompiles / COCacheHits count CO view compilations and reuses.
	COCompiles  atomic.Int64
	COCacheHits atomic.Int64
	// COPlanCompiles / COPlanCacheHits count per-output physical plan
	// template compilations for CO views and their reuses.
	COPlanCompiles  atomic.Int64
	COPlanCacheHits atomic.Int64
}

// Stmt is a prepared statement: SQL text compiled once and executed many
// times with `?` placeholder arguments — the compile-once/navigate-many
// economics of the paper applied to the SQL request path. A Stmt is
// immutable after Prepare and safe for concurrent use; every execution
// runs a private clone of the compiled plan.
type Stmt struct {
	db         *Database
	text       string // original SQL
	norm       string // normalized cache key
	nparams    int
	version    atomic.Uint64 // catalog version the plan is known fresh at
	optOpts    opt.Options
	rwOpts     rewrite.Options
	sel        *ast.SelectStmt // non-nil for SELECT
	plan       exec.Plan       // compiled template (SELECT only)
	cols       []exec.Column
	other      ast.Statement     // non-nil for everything else
	mut        *compiledMutation // compiled UPDATE/DELETE predicate+assignments
	insertRows [][]exec.Expr     // compiled INSERT VALUES expressions
	cacheable  bool
	cost       int64 // compile wall time in nanoseconds (CacheStats observability)

	// deps / depVers record the catalog names (tables and views) the plan
	// was compiled against and the per-name versions observed then. When the
	// global catalog version moves but every dep is unchanged, the statement
	// is re-stamped fresh instead of recompiled — DDL/ANALYZE on unrelated
	// tables no longer evicts it. depsKnown=false disables the fast path
	// (DDL raced the compile, or the dependency set is not tracked). The
	// slices are immutable after prepareMiss; freshness is re-stamped by
	// storing the current catalog version into the atomic version field.
	deps      []string
	depVers   []uint64
	depsKnown bool

	// hits counts cache servings of this entry (CacheStats observability).
	hits atomic.Int64
}

// NumParams returns the number of `?` placeholders the statement binds.
func (s *Stmt) NumParams() int { return s.nparams }

// IsQuery reports whether the statement is a SELECT (use Query) rather
// than DML/DDL (use Exec).
func (s *Stmt) IsQuery() bool { return s.sel != nil }

// SQL returns the original statement text.
func (s *Stmt) SQL() string { return s.text }

// Columns describes the output of a prepared SELECT (nil otherwise).
func (s *Stmt) Columns() []exec.Column { return s.cols }

// Query executes a prepared SELECT with the given placeholder arguments and
// materializes the whole result. It is a thin wrapper over QueryRows — the
// streaming cursor is the primary execution path; use it directly when the
// result may be large. The statement revalidates itself against the catalog
// version first (a few atomic loads while nothing changed), so a handle
// retained across DDL/ANALYZE re-prepares instead of silently running a
// stale plan.
func (s *Stmt) Query(args ...types.Value) (*Result, error) {
	rows, err := s.QueryRows(args...)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	var out []types.Row
	for {
		row, err := rows.Next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			break
		}
		out = append(out, row)
	}
	return &Result{Cols: rows.Columns(), Rows: out, Counters: rows.Counters()}, nil
}

// Exec executes a prepared DML or DDL statement with the given placeholder
// arguments, returning the number of affected rows. Like Query, it
// revalidates the statement against the catalog version first.
func (s *Stmt) Exec(args ...types.Value) (int64, error) {
	s, err := s.Revalidate()
	if err != nil {
		return 0, err
	}
	if s.sel != nil {
		return 0, fmt.Errorf("engine: use Query for SELECT statements")
	}
	if len(args) != s.nparams {
		return 0, fmt.Errorf("engine: statement wants %d arguments, got %d", s.nparams, len(args))
	}
	start := time.Now()
	var n int64
	verb := byte(0)
	switch st := s.other.(type) {
	case *ast.InsertStmt:
		verb = 'I'
		n, err = s.db.execInsertWith(st, types.Row(args), s.plan, s.insertRows)
	case *ast.UpdateStmt:
		// The mutation was compiled at Prepare; Revalidate guarantees it
		// matches the current catalog version.
		verb = 'U'
		n, err = s.db.runUpdate(st, s.mut, types.Row(args))
	case *ast.DeleteStmt:
		verb = 'D'
		n, err = s.db.runDelete(st, s.mut, types.Row(args))
	default:
		// DDL never carries placeholders (Prepare rejects it); run as-is.
		n, err = s.db.ExecStmt(s.other)
	}
	s.db.stats.observeStatement(verb, s.text, start, n, exec.Counters{}, err)
	return n, err
}

// Revalidate returns a statement that is fresh against the current catalog
// version and optimizer options: the receiver itself while still valid
// (a few atomic loads — the hot path), or a re-Prepare of its text after
// DDL/ANALYZE/option changes. Query and Exec call it automatically; the
// wire server also calls it to refresh its session statement tables.
//
// A version mismatch alone no longer forces the recompile: if every catalog
// name the plan depends on is at the version recorded at compile time, the
// change was unrelated DDL and the statement is re-stamped fresh. The
// global version is read BEFORE the per-dep checks, so a dependency bumped
// concurrently leaves the stored version behind the catalog's and the
// statement detectably stale on the next call.
func (s *Stmt) Revalidate() (*Stmt, error) {
	if s.optOpts == s.db.OptOptions && s.rwOpts == s.db.RewriteOptions {
		cur := s.db.cat.Version()
		if s.version.Load() == cur {
			return s, nil
		}
		if s.depsKnown && s.depsFresh() {
			s.version.Store(cur)
			return s, nil
		}
	}
	return s.db.Prepare(s.text)
}

// depsFresh reports whether every recorded dependency is still at the
// version observed at compile time.
func (s *Stmt) depsFresh() bool {
	for i, d := range s.deps {
		if s.db.cat.NameVersion(d) != s.depVers[i] {
			return false
		}
	}
	return true
}

// recordDeps snapshots the per-name catalog versions for the given
// dependency names (already upper-cased by the semantic layer).
func (s *Stmt) recordDeps(deps []string) {
	s.deps = deps
	s.depVers = make([]uint64, len(deps))
	for i, d := range deps {
		s.depVers[i] = s.db.cat.NameVersion(d)
	}
	s.depsKnown = true
}

// mergeDep appends a catalog name (upper-cased, deduped) to a dep list.
func mergeDep(deps []string, name string) []string {
	key := strings.ToUpper(name)
	for _, d := range deps {
		if d == key {
			return deps
		}
	}
	return append(deps, key)
}

// Prepare compiles a statement against the current catalog, consulting and
// populating the database's plan cache. Two textually different but
// token-equivalent SQL strings (whitespace, keyword/identifier case) share
// one cache entry. The returned Stmt stays valid across DDL: every
// Query/Exec revalidates it against the catalog version and transparently
// re-prepares when stale.
//
// Compilation is single-flight: callers that miss on a key another caller
// is already compiling wait for that result instead of compiling it again,
// and count as cache hits. A failed compile is returned to its waiters; a
// statement that is not cacheable (DDL, literal DML) is not shared — each
// waiter then compiles its own.
func (db *Database) Prepare(sql string) (*Stmt, error) {
	norm, err := normalizeSQL(sql)
	if err != nil {
		db.stats.stmtErrors.Inc()
		return nil, err
	}
	key := planKey{norm: norm, version: db.cat.Version(), optOpts: db.OptOptions, rwOpts: db.RewriteOptions}
	st, fl, leader := db.plans.lookup(key)
	if st == nil && !leader {
		<-fl.done
		if fl.err != nil {
			db.stats.stmtErrors.Inc()
			return nil, fl.err
		}
		if fl.st.cacheable {
			st = fl.st
			st.hits.Add(1)
		}
	}
	if st != nil {
		db.Metrics.CacheHits.Add(1)
		return st, nil
	}
	db.Metrics.CacheMisses.Add(1)
	if leader {
		// Deferred so waiters are released even if the compile panics.
		defer func() { db.plans.finish(key, fl, st, err) }()
	}
	st, err = db.prepareMiss(sql, norm)
	if err != nil {
		db.stats.stmtErrors.Inc()
	}
	return st, err
}

func (db *Database) prepareMiss(sql, norm string) (*Stmt, error) {
	start := time.Now()
	parsed, err := parser.Parse(sql)
	if err != nil {
		return nil, err
	}
	ver := db.cat.Version()
	st := &Stmt{
		db:      db,
		text:    sql,
		norm:    norm,
		nparams: ast.NumPlaceholders(parsed),
		optOpts: db.OptOptions,
		rwOpts:  db.RewriteOptions,
	}
	st.version.Store(ver)
	switch s := parsed.(type) {
	case *ast.SelectStmt:
		plan, deps, err := db.compileSelectDeps(s)
		if err != nil {
			return nil, err
		}
		st.sel = s
		st.plan = plan
		st.cols = plan.Columns()
		st.cacheable = true
		st.recordDeps(deps)
	case *ast.InsertStmt:
		// INSERT … SELECT precompiles the source query (the expensive
		// pipeline) and plain VALUES precompiles its expressions; only
		// value evaluation and constraint checking remain per execution.
		// Like UPDATE/DELETE, unparameterized VALUES inserts are not
		// admitted to the cache (see below).
		if s.Select != nil {
			plan, deps, err := db.compileSelectDeps(s.Select)
			if err != nil {
				return nil, err
			}
			st.plan = plan
			st.recordDeps(mergeDep(deps, s.Table))
		} else {
			rows, deps, err := db.compileInsertRows(s)
			if err != nil {
				return nil, err
			}
			st.insertRows = rows
			st.recordDeps(mergeDep(deps, s.Table))
		}
		st.other = parsed
		st.cacheable = st.nparams > 0 || s.Select != nil
	case *ast.UpdateStmt:
		// UPDATE/DELETE compile the predicate and assignments once per
		// catalog version — repeated executions skip semantic analysis
		// entirely. Unparameterized DML is still not admitted to the
		// cache: a bulk load of distinct literal statements would flush
		// every hot compiled SELECT out of the LRU.
		mut, err := db.compileMutation(s.Table, s.Alias, s.Where, s.Set)
		if err != nil {
			return nil, err
		}
		st.mut = mut
		st.other = parsed
		st.cacheable = st.nparams > 0
		st.recordDeps(mut.deps)
	case *ast.DeleteStmt:
		mut, err := db.compileMutation(s.Table, s.Alias, s.Where, nil)
		if err != nil {
			return nil, err
		}
		st.mut = mut
		st.other = parsed
		st.cacheable = st.nparams > 0
		st.recordDeps(mut.deps)
	default:
		if st.nparams > 0 {
			return nil, fmt.Errorf("engine: placeholders are only allowed in SELECT, INSERT, UPDATE and DELETE statements")
		}
		// DDL is never cached: it self-invalidates by bumping the catalog
		// version, so caching it would only churn the LRU.
		st.other = parsed
	}
	if db.cat.Version() != ver {
		// DDL overtook the compile: the per-name versions read by
		// recordDeps may postdate the plan, so the dep fast path could
		// wrongly vouch for it. Fall back to whole-version invalidation.
		st.deps, st.depVers, st.depsKnown = nil, nil, false
	}
	if st.cacheable {
		st.cost = int64(time.Since(start))
		db.plans.put(st)
	}
	return st, nil
}

// normalizeSQL renders the token stream back to a canonical string: one
// space between tokens, keywords and identifiers upper-cased (the engine
// resolves identifiers case-insensitively), string literals re-quoted.
// Used only as the plan-cache key; the original text is what gets parsed.
func normalizeSQL(sql string) (string, error) {
	toks, err := lexer.Lex(sql)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.Grow(len(sql))
	for _, t := range toks {
		if t.Kind == lexer.EOF {
			break
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		switch t.Kind {
		case lexer.Ident:
			b.WriteString(strings.ToUpper(t.Text))
		case lexer.String:
			b.WriteByte('\'')
			b.WriteString(strings.ReplaceAll(t.Text, "'", "''"))
			b.WriteByte('\'')
		default:
			b.WriteString(t.Text)
		}
	}
	return b.String(), nil
}

// --- plan cache ---

// defaultPlanCacheCap bounds the number of cached statements per database.
const defaultPlanCacheCap = 256

// planCache is a concurrent LRU of prepared statements keyed by normalized
// SQL. Entries are validated against the catalog version and the optimizer
// options they were compiled under; a stale entry is evicted on lookup.
// Invalidation is per dependency: DDL and ANALYZE bump both the global
// catalog version and the changed name's own version, and an entry whose
// dependencies are all unchanged survives a global bump (it is merely
// re-stamped), so churn on one table does not flush plans over others.
type planCache struct {
	mu        sync.Mutex
	cap       int
	lru       *list.List // of *Stmt, front = most recently used
	byKey     map[string]*list.Element
	inflight  map[planKey]*flight // compilations in progress
	evictions atomic.Int64        // entries evicted to make room
}

// planKey is everything a cached plan is validated against: the normalized
// text, the catalog version and the option structs it was compiled under.
type planKey struct {
	norm    string
	version uint64
	optOpts opt.Options
	rwOpts  rewrite.Options
}

// flight is one compilation in progress; st and err are set before done is
// closed.
type flight struct {
	done chan struct{}
	st   *Stmt
	err  error
}

// metrics snapshots the cache size and cumulative eviction count.
func (pc *planCache) metrics() (size, evictions int64) {
	pc.mu.Lock()
	size = int64(pc.lru.Len())
	pc.mu.Unlock()
	return size, pc.evictions.Load()
}

func newPlanCache(capacity int) *planCache {
	return &planCache{cap: capacity, lru: list.New(), byKey: make(map[string]*list.Element), inflight: make(map[planKey]*flight)}
}

// lookup returns the cached statement for k. On a miss it returns the
// in-flight compilation of k instead: leader reports whether the caller
// registered it — and must call finish — or found another caller's, whose
// result it reads after fl.done closes.
func (pc *planCache) lookup(k planKey) (st *Stmt, fl *flight, leader bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if st := pc.get(k); st != nil {
		return st, nil, false
	}
	if fl, ok := pc.inflight[k]; ok {
		return nil, fl, false
	}
	fl = &flight{done: make(chan struct{})}
	pc.inflight[k] = fl
	return nil, fl, true
}

// finish publishes the leader's result to its waiters. prepareMiss has
// already put a cacheable statement, so no caller can fall between the
// cache and the in-flight table.
func (pc *planCache) finish(k planKey, fl *flight, st *Stmt, err error) {
	fl.st, fl.err = st, err
	pc.mu.Lock()
	delete(pc.inflight, k)
	pc.mu.Unlock()
	close(fl.done)
}

// get is the cache lookup proper; callers hold pc.mu.
func (pc *planCache) get(k planKey) *Stmt {
	key, version := k.norm, k.version
	el, ok := pc.byKey[key]
	if !ok {
		return nil
	}
	st := el.Value.(*Stmt)
	if st.optOpts != k.optOpts || st.rwOpts != k.rwOpts {
		pc.lru.Remove(el)
		delete(pc.byKey, key)
		return nil
	}
	if st.version.Load() != version {
		// The catalog moved since the plan was stamped. If none of the
		// plan's own dependencies changed, the DDL was unrelated — re-stamp
		// and serve; otherwise evict. `version` was read by the caller
		// before the dep checks, so a dep bumped concurrently leaves the
		// entry stale relative to the catalog and caught on the next get.
		if !st.depsKnown || !st.depsFresh() {
			pc.lru.Remove(el)
			delete(pc.byKey, key)
			return nil
		}
		st.version.Store(version)
	}
	pc.lru.MoveToFront(el)
	st.hits.Add(1)
	return st
}

// stats snapshots the per-entry hit counters in MRU order.
func (pc *planCache) stats() []CacheEntryStats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	out := make([]CacheEntryStats, 0, pc.lru.Len())
	for el := pc.lru.Front(); el != nil; el = el.Next() {
		st := el.Value.(*Stmt)
		out = append(out, CacheEntryStats{SQL: st.norm, Hits: st.hits.Load(), CostNs: st.cost})
	}
	return out
}

func (pc *planCache) put(st *Stmt) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.cap <= 0 {
		return
	}
	if el, ok := pc.byKey[st.norm]; ok {
		el.Value = st
		pc.lru.MoveToFront(el)
		return
	}
	pc.byKey[st.norm] = pc.lru.PushFront(st)
	for pc.lru.Len() > pc.cap {
		victim := pc.lru.Back()
		pc.lru.Remove(victim)
		delete(pc.byKey, victim.Value.(*Stmt).norm)
		pc.evictions.Add(1)
	}
}

func (pc *planCache) reset(capacity int) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.cap = capacity
	pc.lru.Init()
	pc.byKey = make(map[string]*list.Element)
}

func (pc *planCache) len() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.lru.Len()
}

// SetPlanCacheCapacity resizes the plan cache, dropping every cached plan.
// Capacity 0 disables caching (every Query/Exec/Prepare recompiles) — the
// bench harness uses that as the per-call baseline.
func (db *Database) SetPlanCacheCapacity(n int) { db.plans.reset(n) }

// PlanCacheLen reports the number of cached statements.
func (db *Database) PlanCacheLen() int { return db.plans.len() }

// CacheEntryStats describes one cached plan for observability: the
// normalized statement text, how many executions it has served, and what
// it cost to compile.
type CacheEntryStats struct {
	SQL    string
	Hits   int64
	CostNs int64
}

// CacheStats snapshots the plan cache's per-entry hit counters, most
// recently used first. The xnfsql shell surfaces it through \cache.
func (db *Database) CacheStats() []CacheEntryStats { return db.plans.stats() }

// --- compiled CO view cache ---

// coEntry is one cached CO view compilation, together with the lazily
// compiled per-output physical plan templates (the CO analog of the SQL
// plan cache: every stream runs private exec.ClonePlan copies of them).
type coEntry struct {
	compiled *core.Compiled
	version  uint64
	rwOpts   rewrite.Options

	plans    []exec.Plan
	planOpts opt.Options
}

// CompileCOView returns the compiled form of a stored CO view, reusing the
// cached compilation while the catalog version is unchanged. core.Compiled
// is read-only after compilation (every stream runs private plan clones),
// so one compilation serves concurrent QueryCO and wire checkout callers.
func (db *Database) CompileCOView(name string) (*core.Compiled, error) {
	key := strings.ToUpper(name)
	ver := db.cat.Version()
	db.coMu.Lock()
	if e, ok := db.coViews[key]; ok && e.version == ver && e.rwOpts == db.RewriteOptions {
		db.coMu.Unlock()
		db.Metrics.COCacheHits.Add(1)
		return e.compiled, nil
	}
	db.coMu.Unlock()
	db.Metrics.COCompiles.Add(1)
	compiled, err := core.CompileView(db.cat, name, db.RewriteOptions)
	if err != nil {
		return nil, err
	}
	db.coMu.Lock()
	// Dropped or superseded views leave stale entries behind; sweep them
	// on insert so create/query/drop churn cannot grow the map unboundedly.
	// Both the sweep and the admission use the version re-read under the
	// lock: entries fresher than this compilation must survive, and a
	// compilation overtaken by DDL mid-flight is not admitted at all.
	cur := db.cat.Version()
	for k, e := range db.coViews {
		if e.version != cur {
			delete(db.coViews, k)
		}
	}
	if ver == cur {
		db.coViews[key] = &coEntry{compiled: compiled, version: ver, rwOpts: db.RewriteOptions}
	}
	db.coMu.Unlock()
	return compiled, nil
}

// StreamCOView opens the one CO executor over a stored CO view. The
// compilation and plan templates come from the engine's CO caches (compiled
// once per catalog version); only plan cloning and execution happen per
// call, lazily as the consumer pulls. Memory reservations charge the
// session accountant carried by ctx (WithMem), or the process accountant;
// ctx cancellation aborts the stream at the next batch boundary.
func (db *Database) StreamCOView(ctx context.Context, name string) (*core.COStream, error) {
	compiled, err := db.CompileCOView(name)
	if err != nil {
		return nil, err
	}
	templates, err := db.coPlanTemplates(name, compiled)
	if err != nil {
		return nil, err
	}
	parent := memFromContext(ctx)
	if parent == nil {
		parent = db.mem
	}
	ectx := exec.NewCtx(db.store)
	ectx.Mem = parent.Child("co-stream", 0)
	ectx.Interrupt = ctx.Err
	return compiled.Open(ectx, templates, db.OptOptions)
}

// ExtractCOView extracts a stored CO view by draining StreamCOView, so
// in-process extraction shares the wire's plans, caches and memory
// accounting. parallel is ignored: there is one CO executor, and the
// argument stays only for the benchmark's call sites until a
// benchmark-side change drops it.
func (db *Database) ExtractCOView(name string, parallel bool) (*core.COResult, error) {
	s, err := db.StreamCOView(context.Background(), name)
	if err != nil {
		return nil, err
	}
	return s.Drain()
}

// coPlanTemplates returns the cached plan templates for a compiled CO
// view, compiling them on first use. compiled must be the entry's own
// compilation (identity-checked), so templates never mix catalog versions.
func (db *Database) coPlanTemplates(name string, compiled *core.Compiled) ([]exec.Plan, error) {
	key := strings.ToUpper(name)
	// One snapshot serves the cache check, the compile and the store, so
	// plans are never filed under options they were not compiled with.
	opts := db.OptOptions
	db.coMu.Lock()
	if e, ok := db.coViews[key]; ok && e.compiled == compiled && e.plans != nil && e.planOpts == opts {
		plans := e.plans
		db.coMu.Unlock()
		db.Metrics.COPlanCacheHits.Add(1)
		return plans, nil
	}
	db.coMu.Unlock()
	db.Metrics.COPlanCompiles.Add(1)
	plans, err := compiled.PlanTemplates(db.store, opts)
	if err != nil {
		return nil, err
	}
	db.coMu.Lock()
	if e, ok := db.coViews[key]; ok && e.compiled == compiled {
		e.plans = plans
		e.planOpts = opts
	}
	db.coMu.Unlock()
	return plans, nil
}
