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
// of one CO extraction. Its plan trees are driven by one goroutine at a
// time, but the morsel workers of a parallel batch operator
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

// Plan is a physical operator: a pull-based iterator.
type Plan interface {
	// Open prepares the iterator; params is the frame visible to the
	// subtree (correlation values).
	Open(ctx *Ctx, params types.Row) error
	// Next returns the next row or nil at end of stream.
	Next(ctx *Ctx) (types.Row, error)
	// Close releases resources; the plan may be re-Opened afterwards.
	Close(ctx *Ctx) error
	// Columns describes the output row.
	Columns() []Column
	// Explain renders the subtree, one node per line with indent.
	Explain(indent int) string
}

// Column describes one output column of a plan.
type Column struct {
	Name string
	Type types.Type
}

func pad(n int) string { return strings.Repeat("  ", n) }

func colNames(cols []Column) string {
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.Name
	}
	return strings.Join(names, ", ")
}

// Collect drains a plan into a slice (convenience for callers and tests).
func Collect(ctx *Ctx, p Plan) ([]types.Row, error) {
	return CollectWith(ctx, p, nil)
}

// CollectWith drains a plan opened with an explicit top-level parameter
// frame — the statement arguments of a prepared-statement execution.
func CollectWith(ctx *Ctx, p Plan, params types.Row) ([]types.Row, error) {
	if err := p.Open(ctx, params); err != nil {
		return nil, err
	}
	defer p.Close(ctx)
	var out []types.Row
	for {
		r, err := p.Next(ctx)
		if err != nil {
			return nil, err
		}
		if r == nil {
			return out, nil
		}
		out = append(out, r)
	}
}

// --- Scan ---

// ScanPlan scans a stored table, applying an optional pushed-down filter.
type ScanPlan struct {
	Table  string
	Filter Expr
	Cols   []Column

	rows   []types.Row
	pos    int
	params types.Row
}

// Open implements Plan.
func (s *ScanPlan) Open(ctx *Ctx, params types.Row) error {
	td, err := ctx.Store.Table(s.Table)
	if err != nil {
		return err
	}
	s.rows = td.Snapshot()
	s.pos = 0
	s.params = params
	return nil
}

// Next implements Plan.
func (s *ScanPlan) Next(ctx *Ctx) (types.Row, error) {
	env := Env{Params: s.params, Ctx: ctx}
	for s.pos < len(s.rows) {
		// Every row-engine plan pulls from scans, so polling the
		// statement's cancellation here bounds how long any plan shape —
		// including a cross join re-scanning its inner — outlives its
		// deadline, without each operator polling individually.
		if s.pos&1023 == 0 {
			if err := ctx.Interrupted(); err != nil {
				return nil, err
			}
		}
		row := s.rows[s.pos]
		s.pos++
		add(&ctx.Counters.RowsScanned, 1)
		env.Row = row
		ok, err := EvalPred(s.Filter, &env)
		if err != nil {
			return nil, err
		}
		if ok {
			return row, nil
		}
	}
	return nil, nil
}

// Close implements Plan.
func (s *ScanPlan) Close(*Ctx) error {
	s.rows = nil
	return nil
}

// Columns implements Plan.
func (s *ScanPlan) Columns() []Column { return s.Cols }

// Explain implements Plan.
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

	matches []types.Row
	pos     int
	params  types.Row
}

// Open implements Plan.
func (p *IndexLookupPlan) Open(ctx *Ctx, params types.Row) error {
	td, err := ctx.Store.Table(p.Table)
	if err != nil {
		return err
	}
	p.matches = p.matches[:0]
	p.pos = 0
	p.params = params
	key, ok, err := ProbeKey(p.Keys, &Env{Params: params, Ctx: ctx})
	if err != nil || !ok {
		return err
	}
	rids, err := td.IndexLookup(p.Index, key)
	if err != nil {
		return err
	}
	add(&ctx.Counters.IndexLookups, 1)
	for _, rid := range rids {
		if row, ok := td.Get(rid); ok {
			p.matches = append(p.matches, row)
		}
	}
	return nil
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

// Next implements Plan.
func (p *IndexLookupPlan) Next(ctx *Ctx) (types.Row, error) {
	env := Env{Params: p.params, Ctx: ctx}
	for p.pos < len(p.matches) {
		row := p.matches[p.pos]
		p.pos++
		env.Row = row
		ok, err := EvalPred(p.Filter, &env)
		if err != nil {
			return nil, err
		}
		if ok {
			return row, nil
		}
	}
	return nil, nil
}

// Close implements Plan.
func (p *IndexLookupPlan) Close(*Ctx) error { return nil }

// Columns implements Plan.
func (p *IndexLookupPlan) Columns() []Column { return p.Cols }

// Explain implements Plan.
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

	pos    int
	params types.Row
}

// Open implements Plan.
func (v *ValuesPlan) Open(_ *Ctx, params types.Row) error {
	v.pos = 0
	v.params = params
	return nil
}

// Next implements Plan.
func (v *ValuesPlan) Next(ctx *Ctx) (types.Row, error) {
	if v.pos >= len(v.Rows) {
		return nil, nil
	}
	exprs := v.Rows[v.pos]
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

// Close implements Plan.
func (v *ValuesPlan) Close(*Ctx) error { return nil }

// Columns implements Plan.
func (v *ValuesPlan) Columns() []Column { return v.Cols }

// Explain implements Plan.
func (v *ValuesPlan) Explain(indent int) string {
	return fmt.Sprintf("%sValues %d row(s)\n", pad(indent), len(v.Rows))
}

// --- Filter ---

// FilterPlan drops rows not satisfying the predicate.
type FilterPlan struct {
	Child Plan
	Pred  Expr

	params types.Row
}

// Open implements Plan.
func (f *FilterPlan) Open(ctx *Ctx, params types.Row) error {
	f.params = params
	return f.Child.Open(ctx, params)
}

// Next implements Plan.
func (f *FilterPlan) Next(ctx *Ctx) (types.Row, error) {
	env := Env{Params: f.params, Ctx: ctx}
	for {
		row, err := f.Child.Next(ctx)
		if err != nil || row == nil {
			return row, err
		}
		env.Row = row
		ok, err := EvalPred(f.Pred, &env)
		if err != nil {
			return nil, err
		}
		if ok {
			return row, nil
		}
	}
}

// Close implements Plan.
func (f *FilterPlan) Close(ctx *Ctx) error { return f.Child.Close(ctx) }

// Columns implements Plan.
func (f *FilterPlan) Columns() []Column { return f.Child.Columns() }

// Explain implements Plan.
func (f *FilterPlan) Explain(indent int) string {
	return fmt.Sprintf("%sFilter %s\n%s", pad(indent), f.Pred.String(), f.Child.Explain(indent+1))
}

// --- Project ---

// ProjectPlan computes the output expressions.
type ProjectPlan struct {
	Child Plan
	Exprs []Expr
	Cols  []Column

	params types.Row
}

// Open implements Plan.
func (p *ProjectPlan) Open(ctx *Ctx, params types.Row) error {
	p.params = params
	return p.Child.Open(ctx, params)
}

// Next implements Plan.
func (p *ProjectPlan) Next(ctx *Ctx) (types.Row, error) {
	row, err := p.Child.Next(ctx)
	if err != nil || row == nil {
		return nil, err
	}
	env := Env{Row: row, Params: p.params, Ctx: ctx}
	out := make(types.Row, len(p.Exprs))
	for i, e := range p.Exprs {
		v, err := e.Eval(&env)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// Close implements Plan.
func (p *ProjectPlan) Close(ctx *Ctx) error { return p.Child.Close(ctx) }

// Columns implements Plan.
func (p *ProjectPlan) Columns() []Column { return p.Cols }

// Explain implements Plan.
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
	Child Plan

	seen map[uint64][]types.Row
	all  []int
}

// Open implements Plan.
func (d *DistinctPlan) Open(ctx *Ctx, params types.Row) error {
	d.seen = make(map[uint64][]types.Row)
	d.all = nil
	for i := range d.Child.Columns() {
		d.all = append(d.all, i)
	}
	return d.Child.Open(ctx, params)
}

// Next implements Plan.
func (d *DistinctPlan) Next(ctx *Ctx) (types.Row, error) {
	for {
		row, err := d.Child.Next(ctx)
		if err != nil || row == nil {
			return row, err
		}
		h := row.Hash(d.all)
		dup := false
		for _, prev := range d.seen[h] {
			if types.EqualRows(prev, row) {
				dup = true
				break
			}
		}
		if !dup {
			d.seen[h] = append(d.seen[h], row)
			return row, nil
		}
	}
}

// Close implements Plan.
func (d *DistinctPlan) Close(ctx *Ctx) error {
	d.seen = nil
	return d.Child.Close(ctx)
}

// Columns implements Plan.
func (d *DistinctPlan) Columns() []Column { return d.Child.Columns() }

// Explain implements Plan.
func (d *DistinctPlan) Explain(indent int) string {
	return fmt.Sprintf("%sDistinct\n%s", pad(indent), d.Child.Explain(indent+1))
}

// --- Sort ---

// SortPlan fully materializes and sorts its input.
type SortPlan struct {
	Child Plan
	Keys  []Expr
	Desc  []bool

	rows []types.Row
	pos  int
}

// Open implements Plan.
func (s *SortPlan) Open(ctx *Ctx, params types.Row) error {
	if err := s.Child.Open(ctx, params); err != nil {
		return err
	}
	s.rows = nil
	s.pos = 0
	env := Env{Params: params, Ctx: ctx}
	type keyed struct {
		row types.Row
		key types.Row
	}
	var data []keyed
	for {
		row, err := s.Child.Next(ctx)
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		env.Row = row
		key := make(types.Row, len(s.Keys))
		for i, k := range s.Keys {
			v, err := k.Eval(&env)
			if err != nil {
				return err
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
	for _, d := range data {
		s.rows = append(s.rows, d.row)
	}
	return s.Child.Close(ctx)
}

// Next implements Plan.
func (s *SortPlan) Next(*Ctx) (types.Row, error) {
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	r := s.rows[s.pos]
	s.pos++
	return r, nil
}

// Close implements Plan.
func (s *SortPlan) Close(*Ctx) error {
	s.rows = nil
	return nil
}

// Columns implements Plan.
func (s *SortPlan) Columns() []Column { return s.Child.Columns() }

// Explain implements Plan.
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
	Child Plan
	N     int

	emitted int
}

// Open implements Plan.
func (l *LimitPlan) Open(ctx *Ctx, params types.Row) error {
	l.emitted = 0
	return l.Child.Open(ctx, params)
}

// Next implements Plan.
func (l *LimitPlan) Next(ctx *Ctx) (types.Row, error) {
	if l.emitted >= l.N {
		return nil, nil
	}
	row, err := l.Child.Next(ctx)
	if err != nil || row == nil {
		return row, err
	}
	l.emitted++
	return row, nil
}

// Close implements Plan.
func (l *LimitPlan) Close(ctx *Ctx) error { return l.Child.Close(ctx) }

// Columns implements Plan.
func (l *LimitPlan) Columns() []Column { return l.Child.Columns() }

// Explain implements Plan.
func (l *LimitPlan) Explain(indent int) string {
	return fmt.Sprintf("%sLimit %d\n%s", pad(indent), l.N, l.Child.Explain(indent+1))
}

// --- Union ---

// UnionPlan concatenates branch streams; Distinct adds set semantics.
type UnionPlan struct {
	Children []Plan
	Distinct bool

	cur  int
	dset map[uint64][]types.Row
	all  []int
}

// Open implements Plan.
func (u *UnionPlan) Open(ctx *Ctx, params types.Row) error {
	u.cur = 0
	if u.Distinct {
		u.dset = make(map[uint64][]types.Row)
		u.all = nil
		for i := range u.Columns() {
			u.all = append(u.all, i)
		}
	}
	for _, c := range u.Children {
		if err := c.Open(ctx, params); err != nil {
			return err
		}
	}
	return nil
}

// Next implements Plan.
func (u *UnionPlan) Next(ctx *Ctx) (types.Row, error) {
	for u.cur < len(u.Children) {
		row, err := u.Children[u.cur].Next(ctx)
		if err != nil {
			return nil, err
		}
		if row == nil {
			u.cur++
			continue
		}
		if u.Distinct {
			h := row.Hash(u.all)
			dup := false
			for _, prev := range u.dset[h] {
				if types.EqualRows(prev, row) {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			u.dset[h] = append(u.dset[h], row)
		}
		return row, nil
	}
	return nil, nil
}

// Close implements Plan.
func (u *UnionPlan) Close(ctx *Ctx) error {
	u.dset = nil
	var first error
	for _, c := range u.Children {
		if err := c.Close(ctx); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Columns implements Plan.
func (u *UnionPlan) Columns() []Column { return u.Children[0].Columns() }

// Explain implements Plan.
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
	Child Plan

	rows []types.Row
	pos  int
}

// Open implements Plan. The first consumer to arrive materializes the
// fragment; later or concurrent consumers sharing the context wait for it
// in Ctx.Once and then replay the shared rows.
func (s *SpoolPlan) Open(ctx *Ctx, params types.Row) error {
	rows, err := ctx.Once(OnceKey{Kind: "spool", ID: s.ID}, func() (any, error) {
		if err := s.Child.Open(ctx, params); err != nil {
			return nil, err
		}
		var rows []types.Row
		for {
			row, err := s.Child.Next(ctx)
			if err != nil {
				return nil, err
			}
			if row == nil {
				break
			}
			rows = append(rows, row)
		}
		if err := s.Child.Close(ctx); err != nil {
			return nil, err
		}
		add(&ctx.Counters.SpoolMaterial, 1)
		return rows, nil
	})
	if err != nil {
		return err
	}
	s.rows = rows.([]types.Row)
	s.pos = 0
	return nil
}

// Next implements Plan.
func (s *SpoolPlan) Next(*Ctx) (types.Row, error) {
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	r := s.rows[s.pos]
	s.pos++
	return r, nil
}

// Close implements Plan.
func (s *SpoolPlan) Close(*Ctx) error {
	s.rows = nil
	return nil
}

// Columns implements Plan.
func (s *SpoolPlan) Columns() []Column { return s.Child.Columns() }

// Explain implements Plan.
func (s *SpoolPlan) Explain(indent int) string {
	return fmt.Sprintf("%sSpool #%d (shared)\n%s", pad(indent), s.ID, s.Child.Explain(indent+1))
}
