package exec

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"xnf/internal/resource"
	"xnf/internal/storage"
	"xnf/internal/types"
)

// Counters accumulates runtime statistics; the benchmark harness reads
// them to report rows scanned, subquery probes and so on. Increment
// through the add method — the morsel workers of a parallel operator share
// one context across goroutines.
type Counters struct {
	RowsScanned   int64
	IndexLookups  int64
	SubplanRuns   int64
	HashBuilds    int64
	RowsProduced  int64
	SpoolMaterial int64
	// SegmentsScanned / SegmentsPruned count column-store segments the
	// scan actually read versus segments skipped by zone maps.
	SegmentsScanned int64
	SegmentsPruned  int64
	// JoinBuildRows / JoinProbeRows count hash-join build rows inserted
	// into the table and probe rows that probed it (NULL-key rows, which
	// never join, count on neither side). Both executors maintain them.
	JoinBuildRows int64
	JoinProbeRows int64
	// PoolWorkers counts extra workers granted by the shared vexec worker
	// pool; PoolFallbacks counts parallel operators that ran sequentially
	// because the pool was saturated.
	PoolWorkers   int64
	PoolFallbacks int64
	// MemReserved is the total bytes this statement reserved from its
	// memory accountant (a high-water of demand, not of residency);
	// MemFallbacks counts operators that degraded to a cheaper strategy
	// (chunked sort merge, sequential build) under memory pressure.
	MemReserved  int64
	MemFallbacks int64
	// EncodedCmpRows counts rows whose comparison predicate ran directly
	// on encoded segment data (dictionary code compares, packed ints);
	// EncodedHashRows counts rows grouped or joined with at least one key
	// column read from encoded data. Together they show how often scans
	// stay on the compressed path instead of decoding.
	EncodedCmpRows  int64
	EncodedHashRows int64
}

func add(c *int64, n int64) { atomic.AddInt64(c, n) }

// onceEntry holds a value computed at most once per execution context,
// even when several goroutines sharing the context ask for it at the same
// time.
type onceEntry struct {
	once sync.Once
	val  any
	err  error
}

// Ctx is the runtime context of one statement execution, or of every output
// of one CO extraction. Each of its iterators is driven by one goroutine at
// a time, but the morsel workers of a parallel batch operator
// (vexec.ParallelAggScan, the parallel hash-join build) run on
// goroutines of their own over the same context, so counters are bumped
// atomically and the per-context values of Once are synchronized.
type Ctx struct {
	Store    *storage.Store
	Counters Counters

	// Mem is the statement's memory accountant; nil accounts nothing.
	// Operators that materialize (hash tables, sort runs, distinct sets)
	// reserve their estimates through Ctx.Reserve so one statement
	// cannot exceed its budget chain.
	Mem *resource.Accountant

	// Interrupt, when set, reports why the statement should stop
	// (deadline exceeded, cancellation). Blocking operators poll it at
	// batch boundaries via Interrupted.
	Interrupt func() error

	mu sync.Mutex
	// once holds the values computed once per context: spooled shared
	// fragments, subplan hash tables and a recursive CO's fixpoint.
	once map[OnceKey]*onceEntry
}

// OnceKey names a value Ctx.Once computes: Kind separates the producers
// ("spool", "subplan", or a caller's own) and ID numbers them within a
// kind. A struct rather than an interface key, so per-row lookups (hashed
// subplan probes) do not allocate.
type OnceKey struct {
	Kind string
	ID   int
}

// NewCtx returns a fresh runtime context over a store.
func NewCtx(store *storage.Store) *Ctx {
	return &Ctx{Store: store}
}

// Once returns the value build computes for key, calling build at most once
// per context: the first caller computes it, later or concurrent callers
// wait for that result (value or error). build must not ask for its own
// key, which would wait on itself.
func (c *Ctx) Once(key OnceKey, build func() (any, error)) (any, error) {
	c.mu.Lock()
	e, ok := c.once[key]
	if !ok {
		if c.once == nil {
			c.once = make(map[OnceKey]*onceEntry)
		}
		e = &onceEntry{}
		c.once[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.val, e.err = build() })
	return e.val, e.err
}

// Reserve charges n bytes against the statement's memory accountant.
// The typed failure wraps resource.ErrResourceExhausted; operators with
// a cheaper strategy fall back on it, everything else propagates it.
func (c *Ctx) Reserve(n int64) error {
	if c.Mem == nil || n <= 0 {
		return nil
	}
	if err := c.Mem.Reserve(n); err != nil {
		return err
	}
	add(&c.Counters.MemReserved, n)
	return nil
}

// Release returns n bytes to the accountant chain.
func (c *Ctx) Release(n int64) {
	if c.Mem != nil && n > 0 {
		c.Mem.Release(n)
	}
}

// Interrupted reports the statement's cancellation state (nil when the
// statement may keep running). Cheap enough to poll per batch.
func (c *Ctx) Interrupted() error {
	if c.Interrupt == nil {
		return nil
	}
	return c.Interrupt()
}

// Node is a compiled physical operator. A node tree is immutable once
// compiled: each execution keeps its state in the iterators Open returns,
// and state shared by the consumers of one execution (spools, hashed
// subplans, a recursive CO's fixpoint) lives in Ctx.Once. So one tree — a
// cached template — runs in place for any number of executions at once.
type Node interface {
	// Open starts one execution of the subtree; params is the frame
	// visible to it (statement arguments, correlation values).
	Open(ctx *Ctx, params types.Row) (Iter, error)
	// Columns describes the output row.
	Columns() []Column
	// Explain renders the subtree, one node per line with indent.
	Explain(indent int) string
}

// Iter is one execution of a Node: a pull-based iterator.
type Iter interface {
	// Next returns the next row or nil at end of stream.
	Next(ctx *Ctx) (types.Row, error)
	// Close releases the execution's resources.
	Close(ctx *Ctx) error
}

// Plan is an execution handle: a compiled root Node plus the iterator of
// the one execution the handle has open. Handles are cheap (NewPlan makes
// one allocation), so every execution takes its own over the shared root.
type Plan interface {
	// Open starts an execution of the root with params as its frame.
	Open(ctx *Ctx, params types.Row) error
	// Next returns the next row or nil at end of stream.
	Next(ctx *Ctx) (types.Row, error)
	// Close ends the execution; the handle may be re-Opened afterwards.
	Close(ctx *Ctx) error
	// Columns describes the output row.
	Columns() []Column
	// Explain renders the plan, one node per line with indent.
	Explain(indent int) string
	// Root returns the compiled plan the handle runs.
	Root() Node
}

// NewPlan returns an execution handle over a compiled root.
func NewPlan(root Node) Plan { return &handle{root: root} }

// ClonePlan returns a fresh handle over p's root: one allocation, no tree
// walk, since the compiled nodes are shared rather than copied.
func ClonePlan(p Plan) Plan { return NewPlan(p.Root()) }

type handle struct {
	root Node
	it   Iter
}

func (h *handle) Open(ctx *Ctx, params types.Row) error {
	it, err := h.root.Open(ctx, params)
	h.it = it
	return err
}

func (h *handle) Next(ctx *Ctx) (types.Row, error) { return h.it.Next(ctx) }

func (h *handle) Close(ctx *Ctx) error {
	if h.it == nil {
		return nil
	}
	it := h.it
	h.it = nil
	return it.Close(ctx)
}

func (h *handle) Columns() []Column         { return h.root.Columns() }
func (h *handle) Explain(indent int) string { return h.root.Explain(indent) }
func (h *handle) Root() Node                { return h.root }

// Column describes one output column of a plan.
type Column struct {
	Name string
	Type types.Type
}

func pad(n int) string { return strings.Repeat("  ", n) }

// Collect drains a plan into a slice (convenience for callers and tests).
func Collect(ctx *Ctx, n Node) ([]types.Row, error) {
	return CollectWith(ctx, n, nil)
}

// CollectWith drains a plan opened with an explicit top-level parameter
// frame — the statement arguments of a prepared-statement execution.
func CollectWith(ctx *Ctx, n Node, params types.Row) ([]types.Row, error) {
	it, err := n.Open(ctx, params)
	if err != nil {
		return nil, err
	}
	var out []types.Row
	for {
		r, err := it.Next(ctx)
		if err != nil {
			it.Close(ctx)
			return nil, err
		}
		if r == nil {
			return out, it.Close(ctx)
		}
		out = append(out, r)
	}
}

// Replay returns an iterator over materialized rows: the output of a sort,
// an aggregation, a spool or a fixpoint.
func Replay(rows []types.Row) Iter { return &replay{rows: rows} }

type replay struct {
	rows []types.Row
	pos  int
}

func (r *replay) Next(*Ctx) (types.Row, error) {
	if r.pos >= len(r.rows) {
		return nil, nil
	}
	r.pos++
	return r.rows[r.pos-1], nil
}

func (r *replay) Close(*Ctx) error {
	r.rows = nil
	return nil
}

// closeAll closes every iterator and returns the first error.
func closeAll(ctx *Ctx, its ...Iter) error {
	var first error
	for _, it := range its {
		if it == nil {
			continue
		}
		if err := it.Close(ctx); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// --- Scan ---

// ScanPlan scans a stored table, applying an optional pushed-down filter.
type ScanPlan struct {
	Table  string
	Filter Expr
	Cols   []Column
}

// Open implements Node.
func (s *ScanPlan) Open(ctx *Ctx, params types.Row) (Iter, error) {
	td, err := ctx.Store.Table(s.Table)
	if err != nil {
		return nil, err
	}
	return &filterIter{rows: td.Snapshot(), filter: s.Filter, params: params, scan: true}, nil
}

// filterIter streams a row slice through an optional filter: a table
// snapshot (scan set: rows count as scanned, and the statement's
// cancellation is polled) or the matches of an index probe.
type filterIter struct {
	rows   []types.Row
	pos    int
	filter Expr
	params types.Row
	scan   bool
}

func (f *filterIter) Next(ctx *Ctx) (types.Row, error) {
	env := Env{Params: f.params, Ctx: ctx}
	for f.pos < len(f.rows) {
		// Every row-engine plan pulls from scans, so polling the
		// statement's cancellation here bounds how long any plan shape —
		// including a cross join re-scanning its inner — outlives its
		// deadline, without each operator polling individually.
		if f.scan {
			if f.pos&1023 == 0 {
				if err := ctx.Interrupted(); err != nil {
					return nil, err
				}
			}
			add(&ctx.Counters.RowsScanned, 1)
		}
		row := f.rows[f.pos]
		f.pos++
		env.Row = row
		ok, err := EvalPred(f.filter, &env)
		if err != nil {
			return nil, err
		}
		if ok {
			return row, nil
		}
	}
	return nil, nil
}

func (f *filterIter) Close(*Ctx) error {
	f.rows = nil
	return nil
}

// Columns implements Node.
func (s *ScanPlan) Columns() []Column { return s.Cols }

// Explain implements Node.
func (s *ScanPlan) Explain(indent int) string {
	f := ""
	if s.Filter != nil {
		f = " filter=" + s.Filter.String()
	}
	return fmt.Sprintf("%sScan %s%s\n", pad(indent), s.Table, f)
}

// --- IndexLookup ---

// IndexLookupPlan probes an index with key expressions evaluated against
// the parameter frame (the driving row of an index nested-loop join, or
// constants).
type IndexLookupPlan struct {
	Table  string
	Index  string
	Keys   []Expr // evaluated with Params only
	Filter Expr
	Cols   []Column
}

// Open implements Node.
func (p *IndexLookupPlan) Open(ctx *Ctx, params types.Row) (Iter, error) {
	td, err := ctx.Store.Table(p.Table)
	if err != nil {
		return nil, err
	}
	it := &filterIter{filter: p.Filter, params: params}
	key, ok, err := ProbeKey(p.Keys, &Env{Params: params, Ctx: ctx})
	if err != nil {
		return nil, err
	}
	if !ok {
		return it, nil
	}
	rids, err := td.IndexLookup(p.Index, key)
	if err != nil {
		return nil, err
	}
	add(&ctx.Counters.IndexLookups, 1)
	for _, rid := range rids {
		if row, ok := td.Get(rid); ok {
			it.rows = append(it.rows, row)
		}
	}
	return it, nil
}

// ProbeKey evaluates index-lookup key expressions. ok is false when a key
// value is NULL: NULL equals nothing, so such a probe matches no row.
func ProbeKey(keys []Expr, env *Env) (key types.Row, ok bool, err error) {
	key = make(types.Row, len(keys))
	for i, k := range keys {
		v, err := k.Eval(env)
		if err != nil || v.IsNull() {
			return nil, false, err
		}
		key[i] = v
	}
	return key, true, nil
}

// Columns implements Node.
func (p *IndexLookupPlan) Columns() []Column { return p.Cols }

// Explain implements Node.
func (p *IndexLookupPlan) Explain(indent int) string {
	keys := make([]string, len(p.Keys))
	for i, k := range p.Keys {
		keys[i] = k.String()
	}
	f := ""
	if p.Filter != nil {
		f = " filter=" + p.Filter.String()
	}
	return fmt.Sprintf("%sIndexLookup %s.%s keys=(%s)%s\n", pad(indent), p.Table, p.Index, strings.Join(keys, ", "), f)
}

// --- Values ---

// ValuesPlan emits fixed rows (SELECT without FROM emits one empty row
// that the projection fills in).
type ValuesPlan struct {
	Rows [][]Expr
	Cols []Column
}

// Open implements Node.
func (v *ValuesPlan) Open(_ *Ctx, params types.Row) (Iter, error) {
	return &valuesIter{rows: v.Rows, params: params}, nil
}

type valuesIter struct {
	rows   [][]Expr
	pos    int
	params types.Row
}

func (v *valuesIter) Next(ctx *Ctx) (types.Row, error) {
	if v.pos >= len(v.rows) {
		return nil, nil
	}
	exprs := v.rows[v.pos]
	v.pos++
	env := Env{Params: v.params, Ctx: ctx}
	row := make(types.Row, len(exprs))
	for i, e := range exprs {
		val, err := e.Eval(&env)
		if err != nil {
			return nil, err
		}
		row[i] = val
	}
	return row, nil
}

func (v *valuesIter) Close(*Ctx) error { return nil }

// Columns implements Node.
func (v *ValuesPlan) Columns() []Column { return v.Cols }

// Explain implements Node.
func (v *ValuesPlan) Explain(indent int) string {
	return fmt.Sprintf("%sValues %d row(s)\n", pad(indent), len(v.Rows))
}

// --- Filter ---

// FilterPlan drops rows not satisfying the predicate.
type FilterPlan struct {
	Child Node
	Pred  Expr
}

// Open implements Node.
func (f *FilterPlan) Open(ctx *Ctx, params types.Row) (Iter, error) {
	child, err := f.Child.Open(ctx, params)
	if err != nil {
		return nil, err
	}
	return &predIter{child: child, pred: f.Pred, params: params}, nil
}

type predIter struct {
	child  Iter
	pred   Expr
	params types.Row
}

func (f *predIter) Next(ctx *Ctx) (types.Row, error) {
	env := Env{Params: f.params, Ctx: ctx}
	for {
		row, err := f.child.Next(ctx)
		if err != nil || row == nil {
			return row, err
		}
		env.Row = row
		ok, err := EvalPred(f.pred, &env)
		if err != nil {
			return nil, err
		}
		if ok {
			return row, nil
		}
	}
}

func (f *predIter) Close(ctx *Ctx) error { return f.child.Close(ctx) }

// Columns implements Node.
func (f *FilterPlan) Columns() []Column { return f.Child.Columns() }

// Explain implements Node.
func (f *FilterPlan) Explain(indent int) string {
	return fmt.Sprintf("%sFilter %s\n%s", pad(indent), f.Pred.String(), f.Child.Explain(indent+1))
}

// --- Project ---

// ProjectPlan computes the output expressions.
type ProjectPlan struct {
	Child Node
	Exprs []Expr
	Cols  []Column
}

// Open implements Node.
func (p *ProjectPlan) Open(ctx *Ctx, params types.Row) (Iter, error) {
	child, err := p.Child.Open(ctx, params)
	if err != nil {
		return nil, err
	}
	return &projectIter{child: child, exprs: p.Exprs, params: params}, nil
}

type projectIter struct {
	child  Iter
	exprs  []Expr
	params types.Row
}

func (p *projectIter) Next(ctx *Ctx) (types.Row, error) {
	row, err := p.child.Next(ctx)
	if err != nil || row == nil {
		return nil, err
	}
	env := Env{Row: row, Params: p.params, Ctx: ctx}
	out := make(types.Row, len(p.exprs))
	for i, e := range p.exprs {
		v, err := e.Eval(&env)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func (p *projectIter) Close(ctx *Ctx) error { return p.child.Close(ctx) }

// Columns implements Node.
func (p *ProjectPlan) Columns() []Column { return p.Cols }

// Explain implements Node.
func (p *ProjectPlan) Explain(indent int) string {
	exprs := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		exprs[i] = e.String()
	}
	return fmt.Sprintf("%sProject %s\n%s", pad(indent), strings.Join(exprs, ", "), p.Child.Explain(indent+1))
}

// --- Distinct ---

// DistinctPlan removes duplicate rows (hash-based).
type DistinctPlan struct {
	Child Node
}

// Open implements Node.
func (d *DistinctPlan) Open(ctx *Ctx, params types.Row) (Iter, error) {
	child, err := d.Child.Open(ctx, params)
	if err != nil {
		return nil, err
	}
	return &unionIter{children: []Iter{child}, dedup: dedup{}}, nil
}

// Columns implements Node.
func (d *DistinctPlan) Columns() []Column { return d.Child.Columns() }

// Explain implements Node.
func (d *DistinctPlan) Explain(indent int) string {
	return fmt.Sprintf("%sDistinct\n%s", pad(indent), d.Child.Explain(indent+1))
}

// dedup is the seen-set of a duplicate-eliminating iterator.
type dedup map[uint64][]types.Row

// first reports whether row is the first occurrence of its value, and
// records it.
func (d dedup) first(row types.Row) bool {
	h := row.HashAll()
	for _, prev := range d[h] {
		if types.EqualRows(prev, row) {
			return false
		}
	}
	d[h] = append(d[h], row)
	return true
}

// --- Sort ---

// SortPlan fully materializes and sorts its input.
type SortPlan struct {
	Child Node
	Keys  []Expr
	Desc  []bool
}

// Open implements Node; the sort is computed eagerly.
func (s *SortPlan) Open(ctx *Ctx, params types.Row) (Iter, error) {
	child, err := s.Child.Open(ctx, params)
	if err != nil {
		return nil, err
	}
	env := Env{Params: params, Ctx: ctx}
	type keyed struct {
		row types.Row
		key types.Row
	}
	var data []keyed
	for {
		row, err := child.Next(ctx)
		if err != nil {
			child.Close(ctx)
			return nil, err
		}
		if row == nil {
			break
		}
		env.Row = row
		key := make(types.Row, len(s.Keys))
		for i, k := range s.Keys {
			v, err := k.Eval(&env)
			if err != nil {
				child.Close(ctx)
				return nil, err
			}
			key[i] = v
		}
		data = append(data, keyed{row: row, key: key})
	}
	ords := make([]int, len(s.Keys))
	for i := range ords {
		ords[i] = i
	}
	sort.SliceStable(data, func(i, j int) bool {
		return types.CompareRows(data[i].key, data[j].key, ords, s.Desc) < 0
	})
	rows := make([]types.Row, len(data))
	for i, d := range data {
		rows[i] = d.row
	}
	if err := child.Close(ctx); err != nil {
		return nil, err
	}
	return Replay(rows), nil
}

// Columns implements Node.
func (s *SortPlan) Columns() []Column { return s.Child.Columns() }

// Explain implements Node.
func (s *SortPlan) Explain(indent int) string {
	keys := make([]string, len(s.Keys))
	for i, k := range s.Keys {
		keys[i] = k.String()
		if i < len(s.Desc) && s.Desc[i] {
			keys[i] += " DESC"
		}
	}
	return fmt.Sprintf("%sSort %s\n%s", pad(indent), strings.Join(keys, ", "), s.Child.Explain(indent+1))
}

// --- Limit ---

// LimitPlan stops the stream after N rows.
type LimitPlan struct {
	Child Node
	N     int
}

// Open implements Node.
func (l *LimitPlan) Open(ctx *Ctx, params types.Row) (Iter, error) {
	child, err := l.Child.Open(ctx, params)
	if err != nil {
		return nil, err
	}
	return &limitIter{child: child, left: l.N}, nil
}

type limitIter struct {
	child Iter
	left  int
}

func (l *limitIter) Next(ctx *Ctx) (types.Row, error) {
	if l.left <= 0 {
		return nil, nil
	}
	row, err := l.child.Next(ctx)
	if err != nil || row == nil {
		return row, err
	}
	l.left--
	return row, nil
}

func (l *limitIter) Close(ctx *Ctx) error { return l.child.Close(ctx) }

// Columns implements Node.
func (l *LimitPlan) Columns() []Column { return l.Child.Columns() }

// Explain implements Node.
func (l *LimitPlan) Explain(indent int) string {
	return fmt.Sprintf("%sLimit %d\n%s", pad(indent), l.N, l.Child.Explain(indent+1))
}

// --- Union ---

// UnionPlan concatenates branch streams; Distinct adds set semantics.
type UnionPlan struct {
	Children []Node
	Distinct bool
}

// Open implements Node.
func (u *UnionPlan) Open(ctx *Ctx, params types.Row) (Iter, error) {
	it := &unionIter{children: make([]Iter, 0, len(u.Children))}
	if u.Distinct {
		it.dedup = dedup{}
	}
	for _, c := range u.Children {
		child, err := c.Open(ctx, params)
		if err != nil {
			closeAll(ctx, it.children...)
			return nil, err
		}
		it.children = append(it.children, child)
	}
	return it, nil
}

// unionIter drains its children in order, dropping repeated rows when it
// deduplicates (UNION, and DISTINCT as a one-child union).
type unionIter struct {
	children []Iter
	cur      int
	dedup    dedup // nil keeps duplicates
}

func (u *unionIter) Next(ctx *Ctx) (types.Row, error) {
	for u.cur < len(u.children) {
		row, err := u.children[u.cur].Next(ctx)
		if err != nil {
			return nil, err
		}
		if row == nil {
			u.cur++
			continue
		}
		if u.dedup == nil || u.dedup.first(row) {
			return row, nil
		}
	}
	return nil, nil
}

func (u *unionIter) Close(ctx *Ctx) error {
	u.dedup = nil
	return closeAll(ctx, u.children...)
}

// Columns implements Node.
func (u *UnionPlan) Columns() []Column { return u.Children[0].Columns() }

// Explain implements Node.
func (u *UnionPlan) Explain(indent int) string {
	kind := "UnionAll"
	if u.Distinct {
		kind = "Union"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s%s\n", pad(indent), kind)
	for _, c := range u.Children {
		b.WriteString(c.Explain(indent + 1))
	}
	return b.String()
}

// --- Spool ---

// SpoolPlan materializes a shared fragment once per execution context and
// replays it to every consumer — the runtime realization of a common
// subexpression shared in the QGM DAG (Sect. 4.2 / Table 1 of the paper).
type SpoolPlan struct {
	ID    int
	Child Node
}

// Open implements Node. The first consumer to arrive materializes the
// fragment; later or concurrent consumers sharing the context wait for it
// in Ctx.Once and then replay the shared rows.
func (s *SpoolPlan) Open(ctx *Ctx, params types.Row) (Iter, error) {
	rows, err := ctx.Once(OnceKey{Kind: "spool", ID: s.ID}, func() (any, error) {
		rows, err := CollectWith(ctx, s.Child, params)
		if err != nil {
			return nil, err
		}
		add(&ctx.Counters.SpoolMaterial, 1)
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	return Replay(rows.([]types.Row)), nil
}

// Columns implements Node.
func (s *SpoolPlan) Columns() []Column { return s.Child.Columns() }

// Explain implements Node.
func (s *SpoolPlan) Explain(indent int) string {
	return fmt.Sprintf("%sSpool #%d (shared)\n%s", pad(indent), s.ID, s.Child.Explain(indent+1))
}
