// Package vexec is the vectorized batch execution engine that sits under
// the row executor: operators exchange column-major chunks of ~1024 rows
// instead of single tuples, amortizing the per-row interface dispatch and
// expression interpretation that dominates the row path once plans come
// precompiled from the shared plan cache.
//
// # Operator set and lowering
//
// The batch operators are scan (ScanBatch, IndexLookupBatch), filter,
// project, limit, hash aggregation (HashAggBatch and its morsel-parallel
// fusion ParallelAggScan), hash join (BatchHashJoin), sort (BatchSort),
// duplicate elimination (BatchDistinct) and union (BatchUnion). The
// optimizer lowers maximal pipelines of these shapes into this engine —
// multi-table equi-join queries with sorts, DISTINCT and grouped
// aggregates on top stay batched end to end — and bridges at the
// boundaries for everything else, in both directions: BatchToRow adapts a
// batch pipeline to the row iterator protocol at the plan root or under a
// row-only operator, and RowSource feeds a row subtree (a spool, a
// correlated subquery, a nested-loop join) into a batch operator such as a
// hash join input or an aggregate. Operators whose own work does not
// vectorize — notably the re-Opened right side of a correlated nested-loop
// join — stay on the row path entirely.
//
// # Worker pool and admission control
//
// Parallel operators (the morsel-parallel aggregate scan, hash-join build
// and sort) do not spawn goroutines freely: they request extra workers
// from one process-wide pool (Shared, resized with SetWorkers, default
// GOMAXPROCS). Admission is non-blocking — a request is clipped to the
// requester's fair share (pool size divided by currently active parallel
// operators, at least 1) and to the pool's free capacity, and whatever is
// granted is released when the operator finishes. A zero grant means the
// pool is saturated; the operator then runs sequentially on its own
// goroutine rather than queueing, so the process-wide extra-goroutine
// count stays bounded by the pool size no matter how many statements run
// concurrently, and every statement always makes progress. Tables below
// DefaultParallelMinRows never request workers at all — for small inputs
// the handoff costs more than the scan.
//
// Column-store scans feed batches in typed form: a column is an []int64,
// []float64 or []string payload plus a null bitmap (TypedVec), and the
// comparison/arithmetic/boolean/aggregate kernels run directly on those
// arrays — values are boxed into types.Value only on demand, at projection
// and row-bridge boundaries (Batch.Boxed, Batch.Row). Row-major sources and
// computed columns keep the boxed Vector representation.
//
// Evaluation granularity: expressions are evaluated a batch at a time.
// Boolean connectives mask their lazy side exactly like the row evaluator
// (AND's right side runs only where the left is not false), and LIMIT is
// pushed beneath projections so projection expressions are never evaluated
// for cut-off rows — but a filter predicate still runs over every row of
// the current batch, so a runtime error (division by zero) in a row the
// row executor would not have reached before satisfying a LIMIT surfaces
// here. This batch-granular error behavior is shared by all vectorized
// engines.
package vexec

import (
	"sync"

	"xnf/internal/colstore"
	"xnf/internal/exec"
	"xnf/internal/types"
)

// BatchSize is the target number of rows per batch: large enough to
// amortize dispatch, small enough to keep a batch's columns in cache.
const BatchSize = 1024

// Vector is one boxed column of a batch.
type Vector []types.Value

// TypedVec is one typed column of a batch: a colstore segment column, or a
// kernel result allocated from the expression arena.
type TypedVec = colstore.TypedCol

// --- allocation pools ---

// slicePool recycles slices of one element type across executions, so
// steady-state scans stop churning the garbage collector. put resets every
// element before the slice re-enters the pool: pooled memory never carries
// values (or string references) from one execution into another.
type slicePool[T any] struct{ p sync.Pool }

func (sp *slicePool[T]) get(n int) []T {
	if v := sp.p.Get(); v != nil {
		s := *(v.(*[]T))
		if cap(s) >= n {
			return s[:n]
		}
	}
	c := n
	if c < BatchSize {
		// Round small requests up so one pooled slice serves any batch.
		c = BatchSize
	}
	return make([]T, n, c)
}

func (sp *slicePool[T]) put(s []T) {
	if cap(s) == 0 {
		return
	}
	s = s[:cap(s)]
	clear(s) // reset-on-put
	sp.p.Put(&s)
}

var (
	vecPool   slicePool[types.Value]
	triPool   slicePool[types.TriBool]
	selPool   slicePool[int]
	intPool   slicePool[int64]
	floatPool slicePool[float64]
	strPool   slicePool[string]
	wordPool  slicePool[uint64]
)

// Batch is a column-major chunk of rows. N is the physical row count; Sel,
// when non-nil, lists the physical row indexes that are logically present,
// in ascending order — filters qualify rows by shrinking the selection
// instead of copying the survivors.
//
// A column is present in boxed form (Cols[c] non-nil), typed form
// (Typed[c] non-nil), or both: typed-only columns come from column-store
// segment views and are boxed lazily by Boxed/value, so a pipeline that
// never leaves the typed kernels materializes no types.Value at all.
type Batch struct {
	Cols  []Vector
	Typed []*TypedVec
	Sel   []int
	N     int

	// own is the pool-acquired boxed column storage, reused across
	// NextBatch calls and returned to the pool by release; non-nil Cols
	// entries alias own entries.
	own []Vector
}

// Len returns the logical (selected) row count.
func (b *Batch) Len() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.N
}

// value reads physical row i of column c, boxing typed-only entries.
func (b *Batch) value(c, i int) types.Value {
	if v := b.Cols[c]; v != nil {
		return v[i]
	}
	return b.Typed[c].Value(i)
}

// Row gathers physical row i into a freshly allocated row.
func (b *Batch) Row(i int) types.Row {
	row := make(types.Row, len(b.Cols))
	for c := range b.Cols {
		row[c] = b.value(c, i)
	}
	return row
}

// Boxed returns the boxed form of column c, materializing it from the
// typed form on first use (box-on-demand at projection and row-bridge
// boundaries). Only currently selected positions are filled — entries
// outside the selection are unspecified, matching the expression
// evaluator's vector contract — and the selection only ever narrows, so
// the cached boxing stays valid for the rest of the batch's lifetime.
func (b *Batch) Boxed(c int) Vector {
	if v := b.Cols[c]; v != nil {
		return v
	}
	tv := b.Typed[c]
	b.ensureOwn(len(b.Cols))
	out := b.ownCol(c, b.N)
	if b.Sel != nil {
		for _, i := range b.Sel {
			out[i] = tv.Value(i)
		}
	} else {
		for i := 0; i < b.N; i++ {
			out[i] = tv.Value(i)
		}
	}
	b.Cols[c] = out
	return out
}

func (b *Batch) ensureOwn(width int) {
	for len(b.own) < width {
		b.own = append(b.own, nil)
	}
}

// ownCol returns owned storage for column c with room for n rows.
func (b *Batch) ownCol(c, n int) Vector {
	if cap(b.own[c]) < n {
		vecPool.put(b.own[c])
		b.own[c] = vecPool.get(n)
	}
	return b.own[c][:n]
}

// resize readies the batch to hold n physical rows of the given width in
// boxed form, reusing pooled column storage across NextBatch calls.
func (b *Batch) resize(width, n int) {
	if cap(b.Cols) < width {
		b.Cols = make([]Vector, width)
	}
	b.Cols = b.Cols[:width]
	b.ensureOwn(width)
	for c := range b.Cols {
		b.Cols[c] = b.ownCol(c, n)
	}
	b.Typed = b.Typed[:0]
	b.N = n
	b.Sel = nil
}

// fromRows transposes rows into the batch.
func (b *Batch) fromRows(rows []types.Row, width int) {
	b.resize(width, len(rows))
	for i, r := range rows {
		for c := 0; c < width; c++ {
			b.Cols[c][i] = r[c]
		}
	}
}

// fromTypedView aliases a typed colstore segment view: the batch's columns
// become the view's typed vectors (zero copy, nothing boxed) and the
// view's live selection carries over. The view is immutable.
func (b *Batch) fromTypedView(v *colstore.TypedView) {
	width := len(v.Cols)
	if cap(b.Cols) < width {
		b.Cols = make([]Vector, width)
	}
	b.Cols = b.Cols[:width]
	if cap(b.Typed) < width {
		b.Typed = make([]*TypedVec, width)
	}
	b.Typed = b.Typed[:width]
	for c := range v.Cols {
		b.Cols[c] = nil
		b.Typed[c] = &v.Cols[c]
	}
	b.N = v.N
	b.Sel = v.Sel
}

// setTyped marks column c as typed-only (after resize), growing the typed
// column list on demand.
func (b *Batch) setTyped(c int, tv *TypedVec) {
	for len(b.Typed) < len(b.Cols) {
		b.Typed = append(b.Typed, nil)
	}
	b.Typed[c] = tv
	b.Cols[c] = nil
}

// release returns the batch's pooled column storage; iterators call it
// from Close. The batch must be re-filled (resize/fromRows/fromTypedView) before its
// next use.
func (b *Batch) release() {
	for c := range b.own {
		vecPool.put(b.own[c])
		b.own[c] = nil
	}
	for c := range b.Cols {
		b.Cols[c] = nil
	}
	b.Typed = b.Typed[:0]
	b.Sel = nil
	b.N = 0
}

// BatchPlan is a compiled operator of the batch engine. Like exec.Node it
// is immutable once compiled: Open starts one execution and returns its
// iterator, so one cached template runs in place for any number of
// executions at once.
type BatchPlan interface {
	// Open starts one execution; params is the statement/correlation
	// parameter frame, constant for the whole execution.
	Open(ctx *exec.Ctx, params types.Row) (BatchIter, error)
	// Columns describes the output row.
	Columns() []exec.Column
	// Explain renders the subtree, one node per line with indent.
	Explain(indent int) string
}

// BatchIter is one execution of a BatchPlan: a pull-based iterator over
// batches.
type BatchIter interface {
	// NextBatch returns the next non-empty batch, or nil at end of stream.
	// The batch (and its selection) is valid until the next NextBatch or
	// Close call on the same iterator.
	NextBatch(ctx *exec.Ctx) (*Batch, error)
	// Close releases the execution's resources (pooled vectors return to
	// the arena pools).
	Close(ctx *exec.Ctx) error
}

// Collect drains a batch plan into rows (tests and benchmarks).
func Collect(ctx *exec.Ctx, p BatchPlan, params types.Row) ([]types.Row, error) {
	it, err := p.Open(ctx, params)
	if err != nil {
		return nil, err
	}
	defer it.Close(ctx)
	var out []types.Row
	for {
		b, err := it.NextBatch(ctx)
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		if b.Sel != nil {
			for _, i := range b.Sel {
				out = append(out, b.Row(i))
			}
		} else {
			for i := 0; i < b.N; i++ {
				out = append(out, b.Row(i))
			}
		}
	}
}
