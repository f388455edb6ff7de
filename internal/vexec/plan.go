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

// chunker streams a materialized row slice as filtered batches; the two
// leaf operators (table scan and index lookup) share its state machine,
// including the skip-empty-selection loop and selection-buffer reuse.
type chunker struct {
	rows   []types.Row
	pos    int
	env    env
	batch  Batch
	selBuf []int
}

func (c *chunker) open(rows []types.Row, params types.Row) {
	c.rows = rows
	c.pos = 0
	c.env.open(params)
}

// next transposes the following chunk, applies pred as a selection vector
// and skips fully filtered chunks; scanned, when non-nil, accumulates the
// physical row count.
func (c *chunker) next(width int, pred VExpr, scanned *int64) (*Batch, error) {
	for c.pos < len(c.rows) {
		n := len(c.rows) - c.pos
		if n > BatchSize {
			n = BatchSize
		}
		c.batch.fromRows(c.rows[c.pos:c.pos+n], width)
		c.pos += n
		if scanned != nil {
			add(scanned, int64(n))
		}
		buf, ok, err := applyPred(pred, &c.env, &c.batch, c.selBuf)
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

// close returns the chunker's pooled storage.
func (c *chunker) close() {
	c.rows = nil
	c.batch.release()
	selPool.put(c.selBuf)
	c.selBuf = nil
	c.env.close()
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
	env    env
	batch  Batch
	selBuf []int
}

func (c *colChunker) open(views []colstore.TypedView, params types.Row) {
	c.views = views
	c.pos = 0
	c.env.open(params)
}

func (c *colChunker) next(pred VExpr, scanned *int64) (*Batch, error) {
	for c.pos < len(c.views) {
		v := &c.views[c.pos]
		c.pos++
		live := v.Rows()
		if live == 0 {
			continue
		}
		c.batch.fromTypedView(v)
		if scanned != nil {
			add(scanned, int64(live))
		}
		buf, ok, err := applyPred(pred, &c.env, &c.batch, c.selBuf)
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

// close returns the chunker's pooled storage.
func (c *colChunker) close() {
	c.views = nil
	c.batch.release()
	selPool.put(c.selBuf)
	c.selBuf = nil
	c.env.close()
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

	ch      chunker
	cc      colChunker
	colMode bool
}

// Open implements BatchPlan.
func (s *ScanBatch) Open(ctx *exec.Ctx, params types.Row) error {
	td, err := ctx.Store.Table(s.Table)
	if err != nil {
		return err
	}
	s.cc.env.ctr = &ctx.Counters
	s.ch.env.ctr = &ctx.Counters
	if views, pruned, ok := td.TypedColumnViews(ResolveBounds(s.Prune, params)); ok {
		s.colMode = true
		add(&ctx.Counters.SegmentsScanned, int64(len(views)))
		add(&ctx.Counters.SegmentsPruned, int64(pruned))
		s.cc.open(views, params)
		return nil
	}
	s.colMode = false
	s.ch.open(td.Snapshot(), params)
	return nil
}

// NextBatch implements BatchPlan.
func (s *ScanBatch) NextBatch(ctx *exec.Ctx) (*Batch, error) {
	if s.colMode {
		return s.cc.next(s.Pred, &ctx.Counters.RowsScanned)
	}
	return s.ch.next(len(s.Cols), s.Pred, &ctx.Counters.RowsScanned)
}

// Close implements BatchPlan.
func (s *ScanBatch) Close(*exec.Ctx) error {
	s.ch.close()
	s.cc.close()
	return nil
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

// Clone implements BatchPlan. Vectorized expressions are stateless and
// shared; only iterator state is per-instance.
func (s *ScanBatch) Clone(func(exec.Plan) exec.Plan) BatchPlan {
	return &ScanBatch{Table: s.Table, Pred: s.Pred, Cols: s.Cols, Prune: s.Prune}
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

	matches []types.Row
	ch      chunker
}

// Open implements BatchPlan.
func (p *IndexLookupBatch) Open(ctx *exec.Ctx, params types.Row) error {
	td, err := ctx.Store.Table(p.Table)
	if err != nil {
		return err
	}
	p.matches = p.matches[:0]
	key, ok, err := exec.ProbeKey(p.Keys, &exec.Env{Params: params, Ctx: ctx})
	if err != nil {
		return err
	}
	if ok {
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
	}
	p.ch.open(p.matches, params)
	p.ch.env.ctr = &ctx.Counters
	return nil
}

// NextBatch implements BatchPlan.
func (p *IndexLookupBatch) NextBatch(*exec.Ctx) (*Batch, error) {
	return p.ch.next(len(p.Cols), p.Pred, nil)
}

// Close implements BatchPlan.
func (p *IndexLookupBatch) Close(*exec.Ctx) error {
	p.ch.close()
	return nil
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

// Clone implements BatchPlan.
func (p *IndexLookupBatch) Clone(func(exec.Plan) exec.Plan) BatchPlan {
	return &IndexLookupBatch{Table: p.Table, Index: p.Index, Keys: p.Keys, Pred: p.Pred, Cols: p.Cols}
}

// --- FilterBatch ---

// FilterBatch narrows the selection vector of its child's batches.
type FilterBatch struct {
	Child BatchPlan
	Pred  VExpr

	env    env
	selBuf []int
}

// Open implements BatchPlan.
func (f *FilterBatch) Open(ctx *exec.Ctx, params types.Row) error {
	f.env.open(params)
	f.env.ctr = &ctx.Counters
	return f.Child.Open(ctx, params)
}

// NextBatch implements BatchPlan.
func (f *FilterBatch) NextBatch(ctx *exec.Ctx) (*Batch, error) {
	for {
		b, err := f.Child.NextBatch(ctx)
		if err != nil || b == nil {
			return b, err
		}
		buf, ok, err := applyPred(f.Pred, &f.env, b, f.selBuf)
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

// Close implements BatchPlan.
func (f *FilterBatch) Close(ctx *exec.Ctx) error {
	selPool.put(f.selBuf)
	f.selBuf = nil
	f.env.close()
	return f.Child.Close(ctx)
}

// Columns implements BatchPlan.
func (f *FilterBatch) Columns() []exec.Column { return f.Child.Columns() }

// Explain implements BatchPlan.
func (f *FilterBatch) Explain(indent int) string {
	return fmt.Sprintf("%sBatchFilter %s\n%s", pad(indent), f.Pred.String(), f.Child.Explain(indent+1))
}

// Clone implements BatchPlan.
func (f *FilterBatch) Clone(cloneRow func(exec.Plan) exec.Plan) BatchPlan {
	return &FilterBatch{Child: f.Child.Clone(cloneRow), Pred: f.Pred}
}

// --- ProjectBatch ---

// ProjectBatch computes the output expressions, compacting the selection
// into a dense batch.
type ProjectBatch struct {
	Child BatchPlan
	Exprs []VExpr
	Cols  []exec.Column

	env env
	out Batch
}

// Open implements BatchPlan.
func (p *ProjectBatch) Open(ctx *exec.Ctx, params types.Row) error {
	p.env.open(params)
	p.env.ctr = &ctx.Counters
	return p.Child.Open(ctx, params)
}

// NextBatch implements BatchPlan.
func (p *ProjectBatch) NextBatch(ctx *exec.Ctx) (*Batch, error) {
	b, err := p.Child.NextBatch(ctx)
	if err != nil || b == nil {
		return nil, err
	}
	sel := b.Sel
	if sel == nil {
		sel = p.env.identity(b.N)
	}
	p.env.reset()
	p.out.resize(len(p.Exprs), len(sel))
	for c, ex := range p.Exprs {
		// Typed expressions stay typed across the projection: the gather
		// compacts payload arrays and null bits instead of boxing, so a
		// downstream aggregate keeps its unboxed fold. The gathered vector
		// lives in the operator arena, which is reset on the next
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

// Close implements BatchPlan.
func (p *ProjectBatch) Close(ctx *exec.Ctx) error {
	p.out.release()
	p.env.close()
	return p.Child.Close(ctx)
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

// Clone implements BatchPlan.
func (p *ProjectBatch) Clone(cloneRow func(exec.Plan) exec.Plan) BatchPlan {
	return &ProjectBatch{Child: p.Child.Clone(cloneRow), Exprs: p.Exprs, Cols: p.Cols}
}

// --- LimitBatch ---

// LimitBatch stops the stream after N logical rows, truncating the final
// batch's selection.
type LimitBatch struct {
	Child BatchPlan
	N     int

	emitted int
}

// Open implements BatchPlan.
func (l *LimitBatch) Open(ctx *exec.Ctx, params types.Row) error {
	l.emitted = 0
	return l.Child.Open(ctx, params)
}

// NextBatch implements BatchPlan.
func (l *LimitBatch) NextBatch(ctx *exec.Ctx) (*Batch, error) {
	if l.emitted >= l.N {
		return nil, nil
	}
	b, err := l.Child.NextBatch(ctx)
	if err != nil || b == nil {
		return nil, err
	}
	remain := l.N - l.emitted
	if b.Len() > remain {
		if b.Sel != nil {
			b.Sel = b.Sel[:remain]
		} else {
			b.Sel = nil
			b.N = remain
		}
	}
	l.emitted += b.Len()
	return b, nil
}

// Close implements BatchPlan.
func (l *LimitBatch) Close(ctx *exec.Ctx) error { return l.Child.Close(ctx) }

// Columns implements BatchPlan.
func (l *LimitBatch) Columns() []exec.Column { return l.Child.Columns() }

// Explain implements BatchPlan.
func (l *LimitBatch) Explain(indent int) string {
	return fmt.Sprintf("%sBatchLimit %d\n%s", pad(indent), l.N, l.Child.Explain(indent+1))
}

// Clone implements BatchPlan.
func (l *LimitBatch) Clone(cloneRow func(exec.Plan) exec.Plan) BatchPlan {
	return &LimitBatch{Child: l.Child.Clone(cloneRow), N: l.N}
}

// --- RowSource (row → batch bridge) ---

// RowSource adapts any row plan into the batch engine: it pulls rows from
// the child iterator and transposes them into batches. The batch operators
// above it still win their amortization even when the source is row-based
// (a join, a spool, a union).
type RowSource struct {
	Plan exec.Plan

	batch Batch
	buf   []types.Row
	eof   bool
}

// Open implements BatchPlan.
func (r *RowSource) Open(ctx *exec.Ctx, params types.Row) error {
	r.eof = false
	return r.Plan.Open(ctx, params)
}

// NextBatch implements BatchPlan.
func (r *RowSource) NextBatch(ctx *exec.Ctx) (*Batch, error) {
	if r.eof {
		return nil, nil
	}
	if r.buf == nil {
		r.buf = make([]types.Row, 0, BatchSize)
	}
	r.buf = r.buf[:0]
	for len(r.buf) < BatchSize {
		row, err := r.Plan.Next(ctx)
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
	r.batch.fromRows(r.buf, len(r.Plan.Columns()))
	return &r.batch, nil
}

// Close implements BatchPlan.
func (r *RowSource) Close(ctx *exec.Ctx) error {
	r.batch.release()
	return r.Plan.Close(ctx)
}

// Columns implements BatchPlan.
func (r *RowSource) Columns() []exec.Column { return r.Plan.Columns() }

// Explain implements BatchPlan.
func (r *RowSource) Explain(indent int) string {
	return fmt.Sprintf("%sRowSource\n%s", pad(indent), r.Plan.Explain(indent+1))
}

// Clone implements BatchPlan: the embedded row plan is cloned through the
// caller's exec.ClonePlan memo so shared DAG nodes stay shared.
func (r *RowSource) Clone(cloneRow func(exec.Plan) exec.Plan) BatchPlan {
	return &RowSource{Plan: cloneRow(r.Plan)}
}

// --- BatchToRow (batch → row bridge) ---

// BatchToRow drains a batch pipeline back into the row iterator protocol,
// so lowered plan fragments compose with every row operator (joins, sorts,
// spools) and with exec.Collect. It implements exec.Plan and participates
// in exec.ClonePlan through the SelfCloner hook.
type BatchToRow struct {
	Child BatchPlan

	cur *Batch
	pos int
}

var _ exec.SelfCloner = (*BatchToRow)(nil)

// Open implements exec.Plan.
func (p *BatchToRow) Open(ctx *exec.Ctx, params types.Row) error {
	p.cur = nil
	p.pos = 0
	return p.Child.Open(ctx, params)
}

// Next implements exec.Plan.
func (p *BatchToRow) Next(ctx *exec.Ctx) (types.Row, error) {
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
		b, err := p.Child.NextBatch(ctx)
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

// Close implements exec.Plan.
func (p *BatchToRow) Close(ctx *exec.Ctx) error {
	p.cur = nil
	return p.Child.Close(ctx)
}

// Columns implements exec.Plan.
func (p *BatchToRow) Columns() []exec.Column { return p.Child.Columns() }

// Explain implements exec.Plan.
func (p *BatchToRow) Explain(indent int) string {
	return fmt.Sprintf("%sBatchPipeline\n%s", pad(indent), p.Child.Explain(indent+1))
}

// CloneWith implements exec.SelfCloner.
func (p *BatchToRow) CloneWith(cloneChild func(exec.Plan) exec.Plan) exec.Plan {
	return &BatchToRow{Child: p.Child.Clone(cloneChild)}
}
