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
	// COPlanCompiles / COPlanCacheHits count CO view lookups in the plan
	// cache: misses, each compiling the view together with its per-output
	// plan templates, and hits.
	COPlanCompiles  atomic.Int64
	COPlanCacheHits atomic.Int64
}

// Stmt is a prepared statement: SQL text compiled once and executed many
// times with `?` placeholder arguments — the compile-once/navigate-many
// economics of the paper applied to the SQL request path. A Stmt is a light
// per-text handle over a plan the cache shares between every text of the
// same shape: the handle holds the caller's text and the literals lifted
// out of it (see normalizeSQL), and binds them together with the caller's
// arguments at each execution. A Stmt is immutable after Prepare and safe
// for concurrent use; every execution runs the shared compiled plan in
// place, with iterators of its own.
type Stmt struct {
	*entry
	text    string // the caller's SQL
	nparams int    // the caller's `?` count
	// frame is the argument frame with the text's lifted literals in
	// place; user lists the slots the caller's arguments fill. frame is
	// nil when nothing was lifted (the caller's arguments are the frame).
	frame types.Row
	user  []int
}

// entry is one compiled object of the plan cache: a statement shape's
// plan, or a CO view's compilation and plan templates.
type entry struct {
	db         *Database
	norm       string        // cache key
	version    atomic.Uint64 // catalog version the plan is known fresh at
	optOpts    opt.Options
	rwOpts     rewrite.Options
	sel        *ast.SelectStmt // non-nil for SELECT
	plan       exec.Node       // compiled plan (SELECT and INSERT … SELECT)
	cols       []exec.Column
	other      ast.Statement     // non-nil for everything else
	mut        *compiledMutation // compiled UPDATE/DELETE predicate+assignments
	insertRows [][]exec.Expr     // compiled INSERT VALUES expressions
	cacheable  bool
	cost       int64 // compile wall time in nanoseconds (CacheStats observability)

	// literal marks a shape whose placeholder form does not compile (its
	// literals are load-bearing, or the statement is in error): Prepare
	// then compiles the text with its literals in place, under the
	// literal key, which also reports errors in the caller's own terms.
	literal bool

	// self is the handle of the text that compiled the entry; a later
	// Prepare of the same text reuses it instead of allocating one.
	self *Stmt

	// co and templates are a CO view's compilation and its per-output
	// plan templates (a CO entry of the plan cache; see coView).
	co        *core.Compiled
	templates []exec.Plan

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

// bind returns the plan's argument frame for one execution: the caller's
// arguments merged, in token order, with the text's lifted literals.
func (s *Stmt) bind(args []types.Value) types.Row {
	if s.frame == nil {
		return args
	}
	if len(s.user) == 0 {
		return s.frame
	}
	frame := append(types.Row(nil), s.frame...)
	for i, slot := range s.user {
		frame[slot] = args[i]
	}
	return frame
}

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
	switch st := s.other.(type) {
	case *ast.InsertStmt:
		n, err = s.db.execInsertWith(st, s.bind(args), s.plan, s.insertRows)
	case *ast.UpdateStmt:
		// The mutation was compiled at Prepare; Revalidate guarantees it
		// matches the current catalog version.
		n, err = s.db.runUpdate(st, s.mut, s.bind(args))
	case *ast.DeleteStmt:
		n, err = s.db.runDelete(st, s.mut, s.bind(args))
	default:
		// DDL never carries placeholders (Prepare rejects it); run as-is.
		n, err = s.db.execStmt(s.other)
	}
	s.db.stats.observeStatement(verbOf(s.other), s.text, start, n, exec.Counters{}, err)
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
	if s.fresh() {
		return s, nil
	}
	return s.db.Prepare(s.text)
}

// fresh reports whether the entry still matches the catalog and options,
// re-stamping it when only unrelated names changed.
func (e *entry) fresh() bool {
	if e.optOpts != e.db.OptOptions || e.rwOpts != e.db.RewriteOptions {
		return false
	}
	cur := e.db.cat.Version()
	if e.version.Load() == cur {
		return true
	}
	if e.depsKnown && e.depsFresh() {
		e.version.Store(cur)
		return true
	}
	return false
}

// depsFresh reports whether every recorded dependency is still at the
// version observed at compile time.
func (e *entry) depsFresh() bool {
	for i, d := range e.deps {
		if e.db.cat.NameVersion(d) != e.depVers[i] {
			return false
		}
	}
	return true
}

// recordDeps snapshots the per-name catalog versions for the given
// dependency names (already upper-cased by the semantic layer).
func (e *entry) recordDeps(deps []string) {
	e.deps = deps
	e.depVers = make([]uint64, len(deps))
	for i, d := range deps {
		e.depVers[i] = e.db.cat.NameVersion(d)
	}
	e.depsKnown = true
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
// populating the database's plan cache. The cache key is the statement's
// shape (see normalizeSQL): texts that differ in whitespace, keyword case,
// or the values of their literals share one compiled plan,
// and the returned handle binds its own literals at each execution. So
// 4000 point lookups that differ only in their key compile once, and so
// does literal DML. The returned Stmt stays valid across DDL: every
// Query/Exec revalidates it against the catalog version and transparently
// re-prepares when stale.
//
// Compilation is single-flight (see cached); DDL and multi-row literal
// INSERTs are not cacheable, so concurrent callers each compile their own.
func (db *Database) Prepare(sql string) (*Stmt, error) {
	st, err := db.prepare(sql)
	if err != nil {
		db.stats.stmtErrors.Inc()
	}
	return st, err
}

func (db *Database) prepare(sql string) (*Stmt, error) {
	n, err := normalizeSQL(sql)
	if err != nil {
		return nil, err
	}
	e, err := db.cached(n.key, &db.Metrics.CacheHits, &db.Metrics.CacheMisses, func() (*entry, error) {
		return db.prepareMiss(sql, n)
	})
	if err == nil && e.literal {
		if n, err = normalize(sql, false); err != nil {
			return nil, err
		}
		e, err = db.cached(n.key, &db.Metrics.CacheHits, &db.Metrics.CacheMisses, func() (*entry, error) {
			return db.prepareMiss(sql, n)
		})
	}
	if err != nil {
		return nil, err
	}
	if self := e.self; self != nil && self.text == sql {
		return self, nil
	}
	return &Stmt{entry: e, text: sql, nparams: n.nparams, frame: n.frame, user: n.user}, nil
}

// cached returns the entry the plan cache holds under norm for the
// current catalog version and options, or compiles it with miss and caches
// a cacheable result. miss stamps the entry with the catalog version it
// compiles against. hits and misses count the outcome.
//
// Compilation is single-flight: callers that miss on a key another caller
// is already compiling wait for that result instead of compiling it again,
// and count as hits. A failed compile is returned to its waiters; an entry
// that is not cacheable is not shared — each waiter then compiles its own.
func (db *Database) cached(norm string, hits, misses *atomic.Int64, miss func() (*entry, error)) (e *entry, err error) {
	key := planKey{norm: norm, version: db.cat.Version(), optOpts: db.OptOptions, rwOpts: db.RewriteOptions}
	e, fl, leader := db.plans.lookup(key)
	if e == nil && !leader {
		<-fl.done
		if fl.err != nil {
			return nil, fl.err
		}
		if fl.st.cacheable {
			e = fl.st
			e.hits.Add(1)
		}
	}
	if e != nil {
		hits.Add(1)
		return e, nil
	}
	misses.Add(1)
	if leader {
		// Deferred so waiters are released even if the compile panics.
		defer func() { db.plans.finish(key, fl, e, err) }()
	}
	start := time.Now()
	if e, err = miss(); err != nil {
		return nil, err
	}
	if db.cat.Version() != e.version.Load() {
		// DDL overtook the compile: the per-name versions read by
		// recordDeps may postdate the plan, so the dep fast path could
		// wrongly vouch for it. Fall back to whole-version invalidation.
		e.deps, e.depVers, e.depsKnown = nil, nil, false
	}
	if e.cacheable {
		e.cost = int64(time.Since(start))
		db.plans.put(e)
	}
	return e, nil
}

// newEntry starts a cache entry under key, stamped with the current
// catalog version and options.
func (db *Database) newEntry(norm string) *entry {
	e := &entry{db: db, norm: norm, optOpts: db.OptOptions, rwOpts: db.RewriteOptions}
	e.version.Store(db.cat.Version())
	return e
}

// prepareMiss compiles the entry for a normalized text. With lifted
// literals it compiles the placeholder form, each marker typed like the
// literal it replaces; if that form does not compile, the entry is a
// literal marker (see entry.literal).
func (db *Database) prepareMiss(sql string, n normalized) (*entry, error) {
	text := sql
	if n.frame != nil {
		text = placeholderText(sql, n.spans)
	}
	e := db.newEntry(n.key)
	parsed, err := parser.Parse(text)
	if err == nil {
		if n.frame != nil {
			ast.Placeholders(parsed, func(p *ast.Placeholder) { p.Type = n.frame[p.Idx].T })
		}
		err = db.compileEntry(e, parsed)
	}
	if err != nil {
		if n.frame == nil {
			return nil, err
		}
		// No dependencies are recorded, so any DDL evicts the marker.
		m := &entry{db: db, norm: n.key, optOpts: e.optOpts, rwOpts: e.rwOpts, literal: true, cacheable: true}
		m.version.Store(e.version.Load())
		return m, nil
	}
	e.self = &Stmt{entry: e, text: sql, nparams: n.nparams, frame: n.frame, user: n.user}
	return e, nil
}

// compileEntry compiles a parsed statement into e and decides whether the
// entry may be cached.
func (db *Database) compileEntry(e *entry, parsed ast.Statement) error {
	nargs := ast.NumPlaceholders(parsed)
	switch s := parsed.(type) {
	case *ast.SelectStmt:
		plan, deps, err := db.compileSelectDeps(s)
		if err != nil {
			return err
		}
		e.sel = s
		e.plan = plan
		e.cols = plan.Columns()
		e.cacheable = true
		e.recordDeps(deps)
	case *ast.InsertStmt:
		// INSERT … SELECT precompiles the source query (the expensive
		// pipeline) and plain VALUES precompiles its expressions; only
		// value evaluation and constraint checking remain per execution.
		// A multi-row VALUES list without placeholders is a one-shot bulk
		// load (its literals are never lifted): caching it would only
		// flush hot plans out of the LRU.
		if s.Select != nil {
			plan, deps, err := db.compileSelectDeps(s.Select)
			if err != nil {
				return err
			}
			e.plan = plan
			e.recordDeps(mergeDep(deps, s.Table))
		} else {
			rows, deps, err := db.compileInsertRows(s)
			if err != nil {
				return err
			}
			e.insertRows = rows
			e.recordDeps(mergeDep(deps, s.Table))
		}
		e.other = parsed
		e.cacheable = s.Select != nil || len(s.Rows) == 1 || nargs > 0
	case *ast.UpdateStmt:
		// UPDATE/DELETE compile the predicate and assignments once per
		// catalog version — repeated executions skip semantic analysis
		// entirely.
		mut, err := db.compileMutation(s.Table, s.Alias, s.Where, s.Set)
		if err != nil {
			return err
		}
		e.mut = mut
		e.other = parsed
		e.cacheable = true
		e.recordDeps(mut.deps)
	case *ast.DeleteStmt:
		mut, err := db.compileMutation(s.Table, s.Alias, s.Where, nil)
		if err != nil {
			return err
		}
		e.mut = mut
		e.other = parsed
		e.cacheable = true
		e.recordDeps(mut.deps)
	default:
		if nargs > 0 {
			return fmt.Errorf("engine: placeholders are only allowed in SELECT, INSERT, UPDATE and DELETE statements")
		}
		// DDL is never cached: it self-invalidates by bumping the catalog
		// version, so caching it would only churn the LRU.
		e.other = parsed
	}
	return nil
}

// --- plan cache ---

// defaultPlanCacheCap bounds the number of cached statements per database.
const defaultPlanCacheCap = 256

// planCache is a concurrent LRU of compiled objects: statement plans keyed
// by their shape (normalizeSQL; Prepare hands out per-text handles over
// them), and CO views keyed by coKeyPrefix plus the view name (see coView). Entries are validated against the catalog version and
// the optimizer options they were compiled under; a stale entry is evicted
// on lookup. Invalidation is per dependency: DDL and ANALYZE bump both the
// global catalog version and the changed name's own version, and an entry
// whose dependencies are all unchanged survives a global bump (it is merely
// re-stamped), so churn on one table does not flush plans over others.
type planCache struct {
	mu        sync.Mutex
	cap       int
	lru       *list.List // of *entry, front = most recently used
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
	st   *entry
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
func (pc *planCache) lookup(k planKey) (e *entry, fl *flight, leader bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if e := pc.get(k); e != nil {
		return e, nil, false
	}
	if fl, ok := pc.inflight[k]; ok {
		return nil, fl, false
	}
	fl = &flight{done: make(chan struct{})}
	pc.inflight[k] = fl
	return nil, fl, true
}

// finish publishes the leader's result to its waiters. cached has already
// put a cacheable entry, so no caller can fall between the cache and the
// in-flight table.
func (pc *planCache) finish(k planKey, fl *flight, e *entry, err error) {
	fl.st, fl.err = e, err
	pc.mu.Lock()
	delete(pc.inflight, k)
	pc.mu.Unlock()
	close(fl.done)
}

// get is the cache lookup proper; callers hold pc.mu.
func (pc *planCache) get(k planKey) *entry {
	key, version := k.norm, k.version
	el, ok := pc.byKey[key]
	if !ok {
		return nil
	}
	e := el.Value.(*entry)
	if e.optOpts != k.optOpts || e.rwOpts != k.rwOpts {
		pc.lru.Remove(el)
		delete(pc.byKey, key)
		return nil
	}
	if e.version.Load() != version {
		// The catalog moved since the plan was stamped. If none of the
		// plan's own dependencies changed, the DDL was unrelated — re-stamp
		// and serve; otherwise evict. `version` was read by the caller
		// before the dep checks, so a dep bumped concurrently leaves the
		// entry stale relative to the catalog and caught on the next get.
		if !e.depsKnown || !e.depsFresh() {
			pc.lru.Remove(el)
			delete(pc.byKey, key)
			return nil
		}
		e.version.Store(version)
	}
	pc.lru.MoveToFront(el)
	e.hits.Add(1)
	return e
}

// stats snapshots the per-entry hit counters in MRU order.
func (pc *planCache) stats() []CacheEntryStats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	out := make([]CacheEntryStats, 0, pc.lru.Len())
	for el := pc.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		out = append(out, CacheEntryStats{SQL: e.norm, Hits: e.hits.Load(), CostNs: e.cost})
	}
	return out
}

func (pc *planCache) put(e *entry) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.cap <= 0 {
		return
	}
	if el, ok := pc.byKey[e.norm]; ok {
		el.Value = e
		pc.lru.MoveToFront(el)
		return
	}
	pc.byKey[e.norm] = pc.lru.PushFront(e)
	for pc.lru.Len() > pc.cap {
		victim := pc.lru.Back()
		pc.lru.Remove(victim)
		delete(pc.byKey, victim.Value.(*entry).norm)
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

// --- CO views in the plan cache ---

// coKeyPrefix starts the plan-cache key of a CO view entry. The lexer
// rejects '#', so no SQL text normalizes to a key with this prefix.
const coKeyPrefix = "#CO "

// coView returns the plan-cache entry of a stored CO view: its
// compilation and per-output plan templates, compiled together on a miss.
// The entry shares everything SQL plans have — single-flight compilation,
// the LRU bound, CacheStats, and per-dependency invalidation: DDL or
// ANALYZE on a table the view reads, or redefining the view, recompiles
// it; changes to other tables do not.
func (db *Database) coView(name string) (*entry, error) {
	norm := coKeyPrefix + strings.ToUpper(name)
	return db.cached(norm, &db.Metrics.COPlanCacheHits, &db.Metrics.COPlanCompiles, func() (*entry, error) {
		e := db.newEntry(norm)
		e.cacheable = true
		co, err := core.CompileView(db.cat, name, e.rwOpts)
		if err != nil {
			return nil, err
		}
		if e.templates, err = co.PlanTemplates(db.store, e.optOpts); err != nil {
			return nil, err
		}
		e.co = co
		e.recordDeps(mergeDep(co.Graph.Deps, name))
		return e, nil
	})
}

// CompileCOView returns the compiled form of a stored CO view from the plan
// cache. core.Compiled and its plan templates are read-only after
// compilation (every stream runs them in place through handles of its
// own), so one compilation serves concurrent QueryCO and wire checkout
// callers.
func (db *Database) CompileCOView(name string) (*core.Compiled, error) {
	st, err := db.coView(name)
	if err != nil {
		return nil, err
	}
	return st.co, nil
}

// StreamCOView opens the one CO executor over a stored CO view. The
// compilation and plan templates come from the plan cache; only execution
// happens per call, lazily as the consumer pulls.
// Memory reservations charge the session accountant carried by ctx
// (WithMem), or the process accountant; ctx cancellation aborts the stream
// at the next batch boundary.
func (db *Database) StreamCOView(ctx context.Context, name string) (*core.COStream, error) {
	st, err := db.coView(name)
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
	return st.co.Open(ectx, st.templates, st.optOpts)
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
