package vexec

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"xnf/internal/colstore"
	"xnf/internal/exec"
	"xnf/internal/storage"
	"xnf/internal/types"
)

// DefaultParallelMinRows is the live row count below which the parallel
// operators (aggregate scan, hash-join build, sort) run sequentially: for
// small inputs the worker handoff costs more than the work.
const DefaultParallelMinRows = 16384

// rowMorselRows is the morsel size for row-major tables (column-major
// tables use one segment per morsel).
const rowMorselRows = 2 * colstore.SegRows

// morsel is one unit of parallel scan work: a typed colstore segment view
// or a slice of a row snapshot.
type morsel struct {
	view *colstore.TypedView
	rows []types.Row
}

func (m morsel) liveRows() int {
	if m.rows != nil {
		return len(m.rows)
	}
	return m.view.Rows()
}

// tableMorsels splits a stored table into parallel scan units — one
// colstore segment per morsel, or fixed-size row ranges for row-major
// tables — and reports the total live row count plus the number of
// column-store segments actually read and the number the zone-map bounds
// pruned. Shared by ParallelAggScan and the morsel-parallel hash-join build.
func tableMorsels(td *storage.TableData, bounds []colstore.ColBound) (morsels []morsel, total, scanned, pruned int) {
	if views, p, ok := td.TypedColumnViews(bounds); ok {
		scanned = len(views)
		pruned = p
		for i := range views {
			if views[i].Rows() > 0 {
				morsels = append(morsels, morsel{view: &views[i]})
			}
		}
	} else {
		rows := td.Snapshot()
		for lo := 0; lo < len(rows); lo += rowMorselRows {
			hi := lo + rowMorselRows
			if hi > len(rows) {
				hi = len(rows)
			}
			morsels = append(morsels, morsel{rows: rows[lo:hi]})
		}
	}
	for _, m := range morsels {
		total += m.liveRows()
	}
	return morsels, total, scanned, pruned
}

// ParallelAggScan is the morsel-parallel fusion of scan → filter →
// aggregate: the table is split into morsels (one per colstore segment, or
// fixed-size row ranges), a bounded worker pool folds each morsel into
// per-worker group tables, and the partial states are merged — in the
// deterministic first-appearance order a sequential scan would have
// produced — when every worker is done. Column-major tables feed the
// workers zero-copy segment views.
//
// Morsels are assigned statically (worker w takes morsels w, w+N, w+2N …),
// not through a racing work queue, so the partition of rows into partial
// states is a pure function of the morsel count and the worker count:
// executions with the same worker count return bit-identical results,
// including floating-point aggregates. Workers are admitted by the shared
// process-wide pool (Shared), so the effective count can shrink under
// concurrent load — which, like resizing the pool, may move a float SUM by
// an ulp (parallel FP reduction reorders additions by construction).
// Isolated executions always receive their full request and stay
// bit-identical run to run.
type ParallelAggScan struct {
	Table  string
	Pred   VExpr // nil = no filter
	Groups []VExpr
	Aggs   []AggSpec
	Cols   []exec.Column // aggregate output columns
	Width  int           // scanned table width (Pred/Groups/Aggs slot space)
	Prune  []PruneTerm   // zone-map pruning conjuncts over the fused Pred
}

// workerErr is an execution error tagged with the morsel it happened in;
// the smallest morsel index wins, so the surfaced error does not depend on
// scheduling.
type workerErr struct {
	morsel int
	err    error
}

// Open implements BatchPlan; the aggregation is computed eagerly.
func (p *ParallelAggScan) Open(ctx *exec.Ctx, params types.Row) (BatchIter, error) {
	gt, err := p.aggregate(ctx, params)
	if err != nil {
		return nil, err
	}
	out := &rowBatches{rows: gt.emit(), width: len(p.Cols)}
	if err := out.mem.reserve(ctx, rowsBytes(len(out.rows), len(p.Cols))); err != nil {
		return nil, err
	}
	return out, nil
}

// aggregate folds the table's morsels, on pool-admitted workers when the
// table is large enough, and returns the merged group table.
func (p *ParallelAggScan) aggregate(ctx *exec.Ctx, params types.Row) (*groupTable, error) {
	td, err := ctx.Store.Table(p.Table)
	if err != nil {
		return nil, err
	}
	morsels, total, scanned, pruned := tableMorsels(td, ResolveBounds(p.Prune, params))
	add(&ctx.Counters.SegmentsScanned, int64(scanned))
	add(&ctx.Counters.SegmentsPruned, int64(pruned))
	add(&ctx.Counters.RowsScanned, int64(total))

	// Admission: extra workers come from the process-wide pool, so total
	// fan-out stays bounded no matter how many statements run at once. A
	// zero grant (pool saturated) degrades to the sequential fold. Small
	// tables never look at the pool.
	var grant Grant
	if total >= DefaultParallelMinRows {
		if workers := min(Shared.Stats().Workers, len(morsels)); workers > 1 {
			grant = Shared.Acquire(workers - 1)
			if grant.N() == 0 {
				add(&ctx.Counters.PoolFallbacks, 1)
			}
		}
	}
	if grant.N() == 0 {
		// Sequential fold: same code path, one worker inline.
		w := newAggWorker(ctx, p, params)
		defer w.close()
		for i := range morsels {
			if err := ctx.Interrupted(); err != nil {
				return nil, err
			}
			if err := w.foldMorsel(i, morsels[i]); err != nil {
				return nil, err
			}
		}
		return w.gt, nil
	}
	defer grant.Release()
	workers := grant.N() + 1
	add(&ctx.Counters.PoolWorkers, int64(grant.N()))

	tables := make([]*groupTable, workers)
	werrs := make([]*workerErr, workers)
	run := func(wi int) {
		w := newAggWorker(ctx, p, params)
		defer w.close()
		tables[wi] = w.gt
		// Static strided assignment keeps the row→partial-state
		// partition deterministic (see the type comment).
		for mi := wi; mi < len(morsels); mi += workers {
			if err := ctx.Interrupted(); err != nil {
				werrs[wi] = &workerErr{morsel: mi, err: err}
				return
			}
			if err := w.foldMorsel(mi, morsels[mi]); err != nil {
				werrs[wi] = &workerErr{morsel: mi, err: err}
				return
			}
		}
	}
	var wg sync.WaitGroup
	for wi := 1; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			run(wi)
		}(wi)
	}
	run(0)
	wg.Wait()
	var firstErr *workerErr
	for _, we := range werrs {
		if we != nil && (firstErr == nil || we.morsel < firstErr.morsel) {
			firstErr = we
		}
	}
	if firstErr != nil {
		return nil, firstErr.err
	}
	return mergeGroupTables(tables, p.Groups, p.Aggs), nil
}

// aggWorker is the per-worker fold state: a private expression arena,
// batch buffer, selection buffer and group table.
type aggWorker struct {
	p      *ParallelAggScan
	gt     *groupTable
	env    env
	batch  Batch
	selBuf []int
}

func newAggWorker(ctx *exec.Ctx, p *ParallelAggScan, params types.Row) *aggWorker {
	w := &aggWorker{p: p, gt: newGroupTable(p.Groups, p.Aggs)}
	w.env.open(ctx, params)
	return w
}

// close returns the worker's pooled storage once its morsels are folded
// (group keys and states are boxed copies, so nothing dangles).
func (w *aggWorker) close() {
	w.batch.release()
	selPool.put(w.selBuf)
	w.selBuf = nil
	w.env.close()
}

// foldMorsel filters and folds one morsel into the worker's group table.
func (w *aggWorker) foldMorsel(mi int, m morsel) error {
	w.gt.morsel = mi
	if m.rows != nil {
		for lo := 0; lo < len(m.rows); lo += BatchSize {
			hi := lo + BatchSize
			if hi > len(m.rows) {
				hi = len(m.rows)
			}
			w.batch.fromRows(m.rows[lo:hi], w.p.Width)
			if err := w.foldBatch(); err != nil {
				return err
			}
		}
		return nil
	}
	w.batch.fromTypedView(m.view)
	return w.foldBatch()
}

func (w *aggWorker) foldBatch() error {
	buf, ok, err := applyPred(w.p.Pred, &w.env, &w.batch, w.selBuf)
	if err != nil {
		return err
	}
	w.selBuf = buf
	if !ok {
		return nil
	}
	return w.gt.fold(&w.env, &w.batch)
}

// mergeGroupTables combines per-worker partial aggregates: equal keys merge
// their states and keep the earliest (morsel, seq) stamp; the merged order
// sorts on that stamp, which reproduces the first-appearance order of a
// sequential scan (each morsel is folded by exactly one worker, and every
// worker sees its morsels in ascending order, so the minimum stamp of a
// group is its true first appearance).
func mergeGroupTables(tables []*groupTable, groupExprs []VExpr, specs []AggSpec) *groupTable {
	merged := newGroupTable(groupExprs, specs)
	for _, t := range tables {
		if t == nil {
			continue
		}
		for _, g := range t.order {
			h := rowHash(g.key)
			var dst *aggGroup
		probe:
			for _, cand := range merged.groups[h] {
				for i := range g.key {
					if !types.Equal(cand.key[i], g.key[i]) {
						continue probe
					}
				}
				dst = cand
				break
			}
			if dst == nil {
				merged.groups[h] = append(merged.groups[h], g)
				merged.order = append(merged.order, g)
				continue
			}
			if g.morsel < dst.morsel || (g.morsel == dst.morsel && g.seq < dst.seq) {
				dst.morsel, dst.seq = g.morsel, g.seq
			}
			for i := range dst.states {
				dst.states[i].Merge(g.states[i])
			}
		}
	}
	sort.Slice(merged.order, func(i, j int) bool {
		a, b := merged.order[i], merged.order[j]
		if a.morsel != b.morsel {
			return a.morsel < b.morsel
		}
		return a.seq < b.seq
	})
	return merged
}

// Columns implements BatchPlan.
func (p *ParallelAggScan) Columns() []exec.Column { return p.Cols }

// Explain implements BatchPlan.
func (p *ParallelAggScan) Explain(indent int) string {
	gs := make([]string, len(p.Groups))
	for i, g := range p.Groups {
		gs[i] = g.String()
	}
	as := make([]string, len(p.Aggs))
	for i, s := range p.Aggs {
		switch {
		case s.Star:
			as[i] = s.Name + "(*)"
		case s.Distinct:
			as[i] = fmt.Sprintf("%s(DISTINCT %s)", s.Name, s.Arg.String())
		default:
			as[i] = fmt.Sprintf("%s(%s)", s.Name, s.Arg.String())
		}
	}
	f := ""
	if p.Pred != nil {
		f = " filter=" + p.Pred.String()
	}
	if len(p.Prune) > 0 {
		f += " zonemap=(" + PruneTermsString(p.Prune) + ")"
	}
	return fmt.Sprintf("%sBatchParallelAggScan %s groups=(%s) aggs=(%s)%s\n",
		pad(indent), p.Table, strings.Join(gs, ", "), strings.Join(as, ", "), f)
}

// andSeq conjoins two optional predicates with filter-chain semantics: the
// right side is evaluated only where the left is true, exactly as a
// downstream FilterBatch only sees rows the upstream filter passed (plain
// vAnd would also run the right side on unknown-left rows, surfacing
// errors the pipeline form never evaluates).
func andSeq(l, r VExpr) VExpr {
	if l == nil {
		return r
	}
	if r == nil {
		return l
	}
	return &vSeqAnd{l: l, r: r}
}

// vSeqAnd is the fused form of two chained filters; see andSeq.
type vSeqAnd struct {
	l, r VExpr
}

func (a *vSeqAnd) String() string { return fmt.Sprintf("(%s AND %s)", a.l.String(), a.r.String()) }

func (a *vSeqAnd) evalTri(e *env, b *Batch, sel []int, out []types.TriBool) error {
	if err := evalTriOf(a.l, e, b, sel, out); err != nil {
		return err
	}
	need := e.getSel(len(sel))
	for _, i := range sel {
		if out[i] == types.True {
			need = append(need, i)
		} else {
			out[i] = types.False // not passed on to the next filter
		}
	}
	if len(need) == 0 {
		return nil
	}
	rt := e.getTri(b.N)
	if err := evalTriOf(a.r, e, b, need, rt); err != nil {
		return err
	}
	for _, i := range need {
		if rt[i] != types.True {
			out[i] = types.False
		}
	}
	return nil
}

func (a *vSeqAnd) eval(e *env, b *Batch, sel []int) (Vector, error) {
	tri := e.getTri(b.N)
	if err := a.evalTri(e, b, sel, tri); err != nil {
		return nil, err
	}
	out := e.get(b.N)
	for _, i := range sel {
		out[i] = tri[i].ToValue()
	}
	return out, nil
}

// composeV rewrites x so that slot references resolve through inputs: slot
// i becomes inputs[i]. Vectorized expressions are immutable trees, so
// shared untouched subtrees are reused. ok is false for slot indexes
// outside inputs or unknown node kinds.
func composeV(x VExpr, inputs []VExpr) (VExpr, bool) {
	switch n := x.(type) {
	case nil:
		return nil, true
	case *vSlot:
		if n.idx < len(inputs) {
			return inputs[n.idx], true
		}
		return nil, false
	case *vConst, *vParam, *vTail:
		return x, true
	case *vCmp:
		l, ok := composeV(n.l, inputs)
		if !ok {
			return nil, false
		}
		r, ok := composeV(n.r, inputs)
		if !ok {
			return nil, false
		}
		return &vCmp{opc: n.opc, l: l, r: r}, true
	case *vAnd:
		l, ok := composeV(n.l, inputs)
		if !ok {
			return nil, false
		}
		r, ok := composeV(n.r, inputs)
		if !ok {
			return nil, false
		}
		return &vAnd{l: l, r: r}, true
	case *vOr:
		l, ok := composeV(n.l, inputs)
		if !ok {
			return nil, false
		}
		r, ok := composeV(n.r, inputs)
		if !ok {
			return nil, false
		}
		return &vOr{l: l, r: r}, true
	case *vSeqAnd:
		l, ok := composeV(n.l, inputs)
		if !ok {
			return nil, false
		}
		r, ok := composeV(n.r, inputs)
		if !ok {
			return nil, false
		}
		return &vSeqAnd{l: l, r: r}, true
	case *vLike:
		l, ok := composeV(n.l, inputs)
		if !ok {
			return nil, false
		}
		r, ok := composeV(n.r, inputs)
		if !ok {
			return nil, false
		}
		return &vLike{l: l, r: r}, true
	case *vArith:
		l, ok := composeV(n.l, inputs)
		if !ok {
			return nil, false
		}
		r, ok := composeV(n.r, inputs)
		if !ok {
			return nil, false
		}
		return &vArith{op: n.op, l: l, r: r}, true
	case *vUn:
		sub, ok := composeV(n.x, inputs)
		if !ok {
			return nil, false
		}
		return &vUn{op: n.op, x: sub}, true
	case *vFunc:
		sub, ok := composeV(n.x, inputs)
		if !ok {
			return nil, false
		}
		return &vFunc{name: n.name, x: sub}, true
	case *vCase:
		whens := make([]vWhen, len(n.whens))
		for i, w := range n.whens {
			cond, ok := composeV(w.cond, inputs)
			if !ok {
				return nil, false
			}
			res, ok := composeV(w.result, inputs)
			if !ok {
				return nil, false
			}
			whens[i] = vWhen{cond: cond, result: res}
		}
		els, ok := composeV(n.els, inputs)
		if !ok {
			return nil, false
		}
		return &vCase{whens: whens, els: els}, true
	default:
		return nil, false
	}
}

// ParallelizeAgg rewrites a batch aggregation whose input is a pure table
// scan pipeline — any stack of filters and projections over one ScanBatch
// — into a morsel-parallel scan-aggregate: intervening projections are
// fused by composing the group/aggregate/filter expressions down to table
// columns (projection expressions carry no state and no subplans, so
// substitution is sound). ok is false for any other shape — index lookups
// are small by design, limits cut the stream, and row bridges pull
// from a row plan that cannot be split. Prune terms are extracted from the
// fused predicate, which folds downstream filters into the scan and so can
// prune more than the scan's own conjuncts alone.
func ParallelizeAgg(a *HashAggBatch) (BatchPlan, bool) {
	// Walk down to the scan, recording the operator chain.
	var chain []BatchPlan
	cur := a.Child
walk:
	for {
		switch c := cur.(type) {
		case *FilterBatch:
			chain = append(chain, c)
			cur = c.Child
		case *ProjectBatch:
			chain = append(chain, c)
			cur = c.Child
		case *ScanBatch:
			chain = append(chain, c)
			break walk
		default:
			return nil, false
		}
	}
	// Replay bottom-up, maintaining the mapping from the current stream's
	// columns to expressions over the scan's table columns.
	scan := chain[len(chain)-1].(*ScanBatch)
	pred := scan.Pred
	mapping := make([]VExpr, len(scan.Cols))
	for i := range mapping {
		mapping[i] = &vSlot{idx: i, name: scan.Cols[i].Name}
	}
	for i := len(chain) - 2; i >= 0; i-- {
		switch c := chain[i].(type) {
		case *FilterBatch:
			p, ok := composeV(c.Pred, mapping)
			if !ok {
				return nil, false
			}
			pred = andSeq(pred, p)
		case *ProjectBatch:
			next := make([]VExpr, len(c.Exprs))
			for j, ex := range c.Exprs {
				e, ok := composeV(ex, mapping)
				if !ok {
					return nil, false
				}
				next[j] = e
			}
			mapping = next
		}
	}
	groups := make([]VExpr, len(a.Groups))
	for i, g := range a.Groups {
		e, ok := composeV(g, mapping)
		if !ok {
			return nil, false
		}
		groups[i] = e
	}
	aggs := make([]AggSpec, len(a.Aggs))
	for i, s := range a.Aggs {
		spec := AggSpec{Name: s.Name, Star: s.Star, Distinct: s.Distinct}
		if !s.Star {
			arg, ok := composeV(s.Arg, mapping)
			if !ok {
				return nil, false
			}
			spec.Arg = arg
		}
		aggs[i] = spec
	}
	return &ParallelAggScan{Table: scan.Table, Pred: pred, Groups: groups, Aggs: aggs, Cols: a.Cols, Width: len(scan.Cols), Prune: ExtractPruneTerms(pred)}, true
}
