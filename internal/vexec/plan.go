package vexec

import (
	"fmt"
	"strings"
	"sync/atomic"

	"xnf/internal/colstore"
	"xnf/internal/exec"
	"xnf/internal/types"
)

func pad(n int) string { return strings.Repeat("  ", n) }

func add(c *int64, n int64) { atomic.AddInt64(c, n) }

// chunker streams a materialized row slice as filtered batches: the
// iterator of the two row-major leaf operators (table scan and index
// lookup), including the skip-empty-selection loop and selection-buffer
// reuse.
type chunker struct {
	rows   []types.Row
	pos    int
	width  int
	pred   VExpr
	scan   bool // rows count as scanned
	env    env
	batch  Batch
	selBuf []int
}

func newChunker(ctx *exec.Ctx, params types.Row, rows []types.Row, width int, pred VExpr, scan bool) *chunker {
	c := &chunker{rows: rows, width: width, pred: pred, scan: scan}
	c.env.open(ctx, params)
	return c
}

// NextBatch transposes the following chunk, applies the predicate as a
// selection vector and skips fully filtered chunks.
func (c *chunker) NextBatch(ctx *exec.Ctx) (*Batch, error) {
	for c.pos < len(c.rows) {
		n := len(c.rows) - c.pos
		if n > BatchSize {
			n = BatchSize
		}
		c.batch.fromRows(c.rows[c.pos:c.pos+n], c.width)
		c.pos += n
		if c.scan {
			add(&ctx.Counters.RowsScanned, int64(n))
		}
		buf, ok, err := applyPred(c.pred, &c.env, &c.batch, c.selBuf)
		if err != nil {
			return nil, err
		}
		c.selBuf = buf
		if !ok {
			continue
		}
		return &c.batch, nil
	}
	return nil, nil
}

// Close returns the chunker's pooled storage.
func (c *chunker) Close(*exec.Ctx) error {
	c.rows = nil
	c.batch.release()
	selPool.put(c.selBuf)
	c.selBuf = nil
	c.env.close()
	return nil
}

// colChunker streams colstore segment views as filtered batches: each view
// becomes one batch whose columns alias the view directly (no per-batch
// copy, no transpose), with the segment's live selection as the base
// selection vector. The views are immutable []int64/[]float64/[]string
// snapshots (copied once per segment version by the column store, cached
// for full segments) that the typed kernels read without ever boxing a
// value.
type colChunker struct {
	views  []colstore.TypedView
	pos    int
	pred   VExpr
	env    env
	batch  Batch
	selBuf []int
}

// NextBatch implements BatchIter.
func (c *colChunker) NextBatch(ctx *exec.Ctx) (*Batch, error) {
	for c.pos < len(c.views) {
		v := &c.views[c.pos]
		c.pos++
		live := v.Rows()
		if live == 0 {
			continue
		}
		c.batch.fromTypedView(v)
		add(&ctx.Counters.RowsScanned, int64(live))
		buf, ok, err := applyPred(c.pred, &c.env, &c.batch, c.selBuf)
		if err != nil {
			return nil, err
		}
		c.selBuf = buf
		if !ok {
			continue
		}
		return &c.batch, nil
	}
	return nil, nil
}

// Close returns the chunker's pooled storage.
func (c *colChunker) Close(*exec.Ctx) error {
	c.views = nil
	c.batch.release()
	selPool.put(c.selBuf)
	c.selBuf = nil
	c.env.close()
	return nil
}

// --- ScanBatch ---

// ScanBatch scans a stored table a chunk at a time, applying an optional
// vectorized filter as a selection vector. Column-major tables take the
// zero-copy fast path: typed segment views are sliced straight into batches
// (one batch per segment) with no row materialization, no transpose and no
// boxing; the choice is made per execution at Open, so a cached plan
// follows the table's current representation. Prune carries the zone-map
// conjuncts the optimizer extracted from Pred — segments whose min/max
// refute one of them are skipped before they are even decoded.
type ScanBatch struct {
	Table string
	Pred  VExpr // nil = no filter
	Cols  []exec.Column
	Prune []PruneTerm
}

// Open implements BatchPlan.
func (s *ScanBatch) Open(ctx *exec.Ctx, params types.Row) (BatchIter, error) {
	td, err := ctx.Store.Table(s.Table)
	if err != nil {
		return nil, err
	}
	if views, pruned, ok := td.TypedColumnViews(ResolveBounds(s.Prune, params)); ok {
		add(&ctx.Counters.SegmentsScanned, int64(len(views)))
		add(&ctx.Counters.SegmentsPruned, int64(pruned))
		c := &colChunker{views: views, pred: s.Pred}
		c.env.open(ctx, params)
		return c, nil
	}
	return newChunker(ctx, params, td.Snapshot(), len(s.Cols), s.Pred, true), nil
}

// Columns implements BatchPlan.
func (s *ScanBatch) Columns() []exec.Column { return s.Cols }

// Explain implements BatchPlan.
func (s *ScanBatch) Explain(indent int) string {
	f := ""
	if s.Pred != nil {
		f = " filter=" + s.Pred.String()
	}
	if len(s.Prune) > 0 {
		f += " zonemap=(" + PruneTermsString(s.Prune) + ")"
	}
	return fmt.Sprintf("%sBatchScan %s%s\n", pad(indent), s.Table, f)
}

// --- IndexLookupBatch ---

// IndexLookupBatch probes an index once at Open (key expressions are
// evaluated against the parameter frame only) and streams the matches in
// batches.
type IndexLookupBatch struct {
	Table, Index string
	Keys         []exec.Expr // row-style, parameter-frame only
	Pred         VExpr
	Cols         []exec.Column
}

// Open implements BatchPlan.
func (p *IndexLookupBatch) Open(ctx *exec.Ctx, params types.Row) (BatchIter, error) {
	td, err := ctx.Store.Table(p.Table)
	if err != nil {
		return nil, err
	}
	var matches []types.Row
	key, ok, err := exec.ProbeKey(p.Keys, &exec.Env{Params: params, Ctx: ctx})
	if err != nil {
		return nil, err
	}
	if ok {
		rids, err := td.IndexLookup(p.Index, key)
		if err != nil {
			return nil, err
		}
		add(&ctx.Counters.IndexLookups, 1)
		for _, rid := range rids {
			if row, ok := td.Get(rid); ok {
				matches = append(matches, row)
			}
		}
	}
	return newChunker(ctx, params, matches, len(p.Cols), p.Pred, false), nil
}

// Columns implements BatchPlan.
func (p *IndexLookupBatch) Columns() []exec.Column { return p.Cols }

// Explain implements BatchPlan.
func (p *IndexLookupBatch) Explain(indent int) string {
	keys := make([]string, len(p.Keys))
	for i, k := range p.Keys {
		keys[i] = k.String()
	}
	f := ""
	if p.Pred != nil {
		f = " filter=" + p.Pred.String()
	}
	return fmt.Sprintf("%sBatchIndexLookup %s.%s keys=(%s)%s\n", pad(indent), p.Table, p.Index, strings.Join(keys, ", "), f)
}

// --- FilterBatch ---

// FilterBatch narrows the selection vector of its child's batches.
type FilterBatch struct {
	Child BatchPlan
	Pred  VExpr
}

// Open implements BatchPlan.
func (f *FilterBatch) Open(ctx *exec.Ctx, params types.Row) (BatchIter, error) {
	child, err := f.Child.Open(ctx, params)
	if err != nil {
		return nil, err
	}
	it := &filterIter{child: child, pred: f.Pred}
	it.env.open(ctx, params)
	return it, nil
}

type filterIter struct {
	child  BatchIter
	pred   VExpr
	env    env
	selBuf []int
}

func (f *filterIter) NextBatch(ctx *exec.Ctx) (*Batch, error) {
	for {
		b, err := f.child.NextBatch(ctx)
		if err != nil || b == nil {
			return b, err
		}
		buf, ok, err := applyPred(f.pred, &f.env, b, f.selBuf)
		if err != nil {
			return nil, err
		}
		f.selBuf = buf
		if !ok {
			continue
		}
		return b, nil
	}
}

func (f *filterIter) Close(ctx *exec.Ctx) error {
	selPool.put(f.selBuf)
	f.selBuf = nil
	f.env.close()
	return f.child.Close(ctx)
}

// Columns implements BatchPlan.
func (f *FilterBatch) Columns() []exec.Column { return f.Child.Columns() }

// Explain implements BatchPlan.
func (f *FilterBatch) Explain(indent int) string {
	return fmt.Sprintf("%sBatchFilter %s\n%s", pad(indent), f.Pred.String(), f.Child.Explain(indent+1))
}

// --- ProjectBatch ---

// ProjectBatch computes the output expressions, compacting the selection
// into a dense batch.
type ProjectBatch struct {
	Child BatchPlan
	Exprs []VExpr
	Cols  []exec.Column
}

// Open implements BatchPlan.
func (p *ProjectBatch) Open(ctx *exec.Ctx, params types.Row) (BatchIter, error) {
	child, err := p.Child.Open(ctx, params)
	if err != nil {
		return nil, err
	}
	it := &projectIter{child: child, exprs: p.Exprs}
	it.env.open(ctx, params)
	return it, nil
}

type projectIter struct {
	child BatchIter
	exprs []VExpr
	env   env
	out   Batch
}

func (p *projectIter) NextBatch(ctx *exec.Ctx) (*Batch, error) {
	b, err := p.child.NextBatch(ctx)
	if err != nil || b == nil {
		return nil, err
	}
	sel := b.Sel
	if sel == nil {
		sel = p.env.identity(b.N)
	}
	p.env.reset()
	p.out.resize(len(p.exprs), len(sel))
	for c, ex := range p.exprs {
		// Typed expressions stay typed across the projection: the gather
		// compacts payload arrays and null bits instead of boxing, so a
		// downstream aggregate keeps its unboxed fold. The gathered vector
		// lives in the iterator's arena, which is reset on the next
		// NextBatch — exactly the output batch's validity window.
		tv, err := evalTypedOf(ex, &p.env, b, sel)
		if err != nil {
			return nil, err
		}
		if tv != nil {
			p.out.setTyped(c, gatherTyped(&p.env, tv, sel))
			continue
		}
		v, err := ex.eval(&p.env, b, sel)
		if err != nil {
			return nil, err
		}
		dst := p.out.Cols[c]
		for o, i := range sel {
			dst[o] = v[i]
		}
	}
	return &p.out, nil
}

func (p *projectIter) Close(ctx *exec.Ctx) error {
	p.out.release()
	p.env.close()
	return p.child.Close(ctx)
}

// Columns implements BatchPlan.
func (p *ProjectBatch) Columns() []exec.Column { return p.Cols }

// Explain implements BatchPlan.
func (p *ProjectBatch) Explain(indent int) string {
	exprs := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		exprs[i] = e.String()
	}
	return fmt.Sprintf("%sBatchProject %s\n%s", pad(indent), strings.Join(exprs, ", "), p.Child.Explain(indent+1))
}

// --- LimitBatch ---

// LimitBatch stops the stream after N logical rows, truncating the final
// batch's selection.
type LimitBatch struct {
	Child BatchPlan
	N     int
}

// Open implements BatchPlan.
func (l *LimitBatch) Open(ctx *exec.Ctx, params types.Row) (BatchIter, error) {
	child, err := l.Child.Open(ctx, params)
	if err != nil {
		return nil, err
	}
	return &limitIter{child: child, left: l.N}, nil
}

type limitIter struct {
	child BatchIter
	left  int
}

func (l *limitIter) NextBatch(ctx *exec.Ctx) (*Batch, error) {
	if l.left <= 0 {
		return nil, nil
	}
	b, err := l.child.NextBatch(ctx)
	if err != nil || b == nil {
		return nil, err
	}
	if b.Len() > l.left {
		if b.Sel != nil {
			b.Sel = b.Sel[:l.left]
		} else {
			b.N = l.left
		}
	}
	l.left -= b.Len()
	return b, nil
}

func (l *limitIter) Close(ctx *exec.Ctx) error { return l.child.Close(ctx) }

// Columns implements BatchPlan.
func (l *LimitBatch) Columns() []exec.Column { return l.Child.Columns() }

// Explain implements BatchPlan.
func (l *LimitBatch) Explain(indent int) string {
	return fmt.Sprintf("%sBatchLimit %d\n%s", pad(indent), l.N, l.Child.Explain(indent+1))
}

// --- RowSource (row → batch bridge) ---

// RowSource adapts any row plan into the batch engine: it pulls rows from
// the child iterator and transposes them into batches. The batch operators
// above it still win their amortization even when the source is row-based
// (a join, a spool, a union).
type RowSource struct {
	Plan exec.Node
}

// Open implements BatchPlan.
func (r *RowSource) Open(ctx *exec.Ctx, params types.Row) (BatchIter, error) {
	it, err := r.Plan.Open(ctx, params)
	if err != nil {
		return nil, err
	}
	return &rowSourceIter{it: it, width: len(r.Plan.Columns())}, nil
}

type rowSourceIter struct {
	it    exec.Iter
	width int
	batch Batch
	buf   []types.Row
	eof   bool
}

func (r *rowSourceIter) NextBatch(ctx *exec.Ctx) (*Batch, error) {
	if r.eof {
		return nil, nil
	}
	if r.buf == nil {
		r.buf = make([]types.Row, 0, BatchSize)
	}
	r.buf = r.buf[:0]
	for len(r.buf) < BatchSize {
		row, err := r.it.Next(ctx)
		if err != nil {
			return nil, err
		}
		if row == nil {
			r.eof = true
			break
		}
		r.buf = append(r.buf, row)
	}
	if len(r.buf) == 0 {
		return nil, nil
	}
	r.batch.fromRows(r.buf, r.width)
	return &r.batch, nil
}

func (r *rowSourceIter) Close(ctx *exec.Ctx) error {
	r.batch.release()
	return r.it.Close(ctx)
}

// Columns implements BatchPlan.
func (r *RowSource) Columns() []exec.Column { return r.Plan.Columns() }

// Explain implements BatchPlan.
func (r *RowSource) Explain(indent int) string {
	return fmt.Sprintf("%sRowSource\n%s", pad(indent), r.Plan.Explain(indent+1))
}

// --- BatchToRow (batch → row bridge) ---

// BatchToRow drains a batch pipeline back into the row iterator protocol,
// so lowered plan fragments compose with every row operator (joins, sorts,
// spools) and with exec.Collect. It is an exec.Node.
type BatchToRow struct {
	Child BatchPlan
}

// Open implements exec.Node.
func (p *BatchToRow) Open(ctx *exec.Ctx, params types.Row) (exec.Iter, error) {
	child, err := p.Child.Open(ctx, params)
	if err != nil {
		return nil, err
	}
	return &batchToRowIter{child: child}, nil
}

type batchToRowIter struct {
	child BatchIter
	cur   *Batch
	pos   int
}

func (p *batchToRowIter) Next(ctx *exec.Ctx) (types.Row, error) {
	for {
		if p.cur != nil {
			if p.cur.Sel != nil {
				if p.pos < len(p.cur.Sel) {
					row := p.cur.Row(p.cur.Sel[p.pos])
					p.pos++
					return row, nil
				}
			} else if p.pos < p.cur.N {
				row := p.cur.Row(p.pos)
				p.pos++
				return row, nil
			}
		}
		b, err := p.child.NextBatch(ctx)
		if err != nil {
			return nil, err
		}
		if b == nil {
			p.cur = nil
			return nil, nil
		}
		p.cur = b
		p.pos = 0
	}
}

func (p *batchToRowIter) Close(ctx *exec.Ctx) error {
	p.cur = nil
	return p.child.Close(ctx)
}

// Columns implements exec.Node.
func (p *BatchToRow) Columns() []exec.Column { return p.Child.Columns() }

// Explain implements exec.Node.
func (p *BatchToRow) Explain(indent int) string {
	return fmt.Sprintf("%sBatchPipeline\n%s", pad(indent), p.Child.Explain(indent+1))
}

// rowBatches replays materialized rows in batches — the output of the
// blocking operators (sort, aggregation) — and returns the operator's
// memory reservation at Close.
type rowBatches struct {
	rows  []types.Row
	pos   int
	width int
	ob    Batch
	mem   memTracker
}

func (r *rowBatches) NextBatch(*exec.Ctx) (*Batch, error) {
	if r.pos >= len(r.rows) {
		return nil, nil
	}
	n := min(len(r.rows)-r.pos, BatchSize)
	r.ob.fromRows(r.rows[r.pos:r.pos+n], r.width)
	r.pos += n
	return &r.ob, nil
}

func (r *rowBatches) Close(ctx *exec.Ctx) error {
	r.rows = nil
	r.ob.release()
	r.mem.releaseAll(ctx)
	return nil
}
