package vexec

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"xnf/internal/exec"
	"xnf/internal/types"
)

// BatchSort fully materializes its child and sorts on the key
// expressions. Keys are evaluated a batch at a time — typed (unboxed)
// whenever the expression supports it — and boxed into per-row key tuples;
// the comparison is types.CompareRows, so ordering (NULLs first,
// cross-type numeric comparison) and stability match exec.SortPlan
// exactly.
//
// Inputs of at least DefaultParallelMinRows rows sort in parallel when
// Parallel is set: pool-admitted workers stable-sort contiguous index
// chunks and a stable k-way merge (ties resolve to the earlier chunk)
// recombines them, which reproduces the sequential stable sort bit for bit.
//
// Memory governance: rows and key tuples are charged against the
// statement's accountant as they accumulate. The rows themselves are
// mandatory (no spill path), but the O(n) key tuples are not — when a
// key reservation is denied, the sort degrades to chunked mode: the
// chunk accumulated so far is stable-sorted and its key memory
// released, and the finished chunks are recombined by a stable k-way
// merge that re-evaluates keys lazily at the chunk heads (O(#chunks)
// key tuples live instead of O(n)). Only when even one batch of keys
// does not fit does the statement fail with ErrResourceExhausted.
type BatchSort struct {
	Child    BatchPlan
	Keys     []VExpr
	Desc     []bool
	Parallel bool
}

// sorter is the build state of one BatchSort execution.
type sorter struct {
	*BatchSort
	env   env
	keys  keyCols
	rows  []types.Row
	kr    []types.Row // key tuple per row of the current chunk
	width int

	mem        memTracker
	keyBytes   int64 // reservation held for s.kr
	chunkStart int   // first row of the chunk s.kr describes
	chunks     []int // start index of each finalized chunk
	degraded   bool  // chunked mode entered (memory pressure)
	kb         Batch // scratch batch for lazy key re-evaluation
	krow       [1]types.Row
}

// Open implements BatchPlan; the sort is computed eagerly.
func (n *BatchSort) Open(ctx *exec.Ctx, params types.Row) (BatchIter, error) {
	child, err := n.Child.Open(ctx, params)
	if err != nil {
		return nil, err
	}
	s := &sorter{BatchSort: n, width: len(n.Child.Columns())}
	s.env.open(ctx, params)
	err = s.load(ctx, child)
	if cerr := child.Close(ctx); err == nil {
		err = cerr
	}
	if err == nil {
		if s.degraded {
			s.finalizeChunk(ctx)
			err = s.mergeChunks(ctx)
		} else {
			s.sortRows(ctx)
			s.mem.releaseN(ctx, s.keyBytes)
		}
	}
	s.env.close()
	s.kb.release()
	out := &rowBatches{rows: s.rows, width: s.width, mem: s.mem}
	if err != nil {
		out.Close(ctx)
		return nil, err
	}
	return out, nil
}

// load drains the child, boxing each row and its key tuple.
func (s *sorter) load(ctx *exec.Ctx, child BatchIter) error {
	nk := len(s.Keys)
	for {
		if err := ctx.Interrupted(); err != nil {
			return err
		}
		b, err := child.NextBatch(ctx)
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		sel := b.Sel
		if sel == nil {
			sel = s.env.identity(b.N)
		}
		// The rows are non-negotiable; the key tuples degrade to
		// chunked mode under pressure (see the type comment).
		if err := s.mem.reserve(ctx, rowsBytes(len(sel), s.width)); err != nil {
			return err
		}
		kbytes := rowsBytes(len(sel), nk)
		if err := s.mem.reserve(ctx, kbytes); err != nil {
			if len(s.kr) == 0 {
				return err
			}
			s.finalizeChunk(ctx)
			if err := s.mem.reserve(ctx, kbytes); err != nil {
				return err
			}
		}
		s.keyBytes += kbytes
		s.env.reset()
		if err := s.keys.eval(s.Keys, &s.env, b, sel); err != nil {
			return err
		}
		for _, i := range sel {
			s.rows = append(s.rows, b.Row(i))
			key := make(types.Row, nk)
			for k := 0; k < nk; k++ {
				key[k] = s.keys.valueAt(k, i)
			}
			s.kr = append(s.kr, key)
		}
	}
}

// finalizeChunk stable-sorts the rows accumulated since chunkStart by
// their key tuples, records the chunk boundary, and releases the key
// memory — the degraded-mode step taken whenever the next batch of keys
// no longer fits the budget.
func (s *sorter) finalizeChunk(ctx *exec.Ctx) {
	if !s.degraded {
		s.degraded = true
		add(&ctx.Counters.MemFallbacks, 1)
	}
	chunk := s.rows[s.chunkStart:]
	if len(chunk) > 1 {
		ords := make([]int, len(s.Keys))
		for i := range ords {
			ords[i] = i
		}
		perm := make([]int, len(chunk))
		for i := range perm {
			perm[i] = i
		}
		sort.SliceStable(perm, func(i, j int) bool {
			return types.CompareRows(s.kr[perm[i]], s.kr[perm[j]], ords, s.Desc) < 0
		})
		out := make([]types.Row, len(chunk))
		for o, i := range perm {
			out[o] = chunk[i]
		}
		copy(chunk, out)
	}
	s.chunks = append(s.chunks, s.chunkStart)
	s.chunkStart = len(s.rows)
	s.kr = s.kr[:0]
	s.mem.releaseN(ctx, s.keyBytes)
	s.keyBytes = 0
}

// rowKey re-evaluates the sort keys of one materialized row through a
// one-row scratch batch — the lazy per-head evaluation of the degraded
// merge.
func (s *sorter) rowKey(row types.Row) (types.Row, error) {
	s.krow[0] = row
	s.kb.fromRows(s.krow[:], s.width)
	s.env.reset()
	sel := s.env.identity(1)
	if err := s.keys.eval(s.Keys, &s.env, &s.kb, sel); err != nil {
		return nil, err
	}
	key := make(types.Row, len(s.Keys))
	for k := range s.Keys {
		key[k] = s.keys.valueAt(k, 0)
	}
	return key, nil
}

// mergeChunks recombines the sorted chunks with a stable k-way merge:
// smallest head key wins, ties resolve to the earliest chunk (earlier
// chunks hold earlier input rows), reproducing the one-shot stable
// sort's order with only O(#chunks) key tuples live.
func (s *sorter) mergeChunks(ctx *exec.Ctx) error {
	k := len(s.chunks)
	if k <= 1 {
		return nil
	}
	bounds := append(append([]int{}, s.chunks...), len(s.rows))
	heads := make([]int, k)
	copy(heads, bounds[:k])
	headKey := make([]types.Row, k)
	ords := make([]int, len(s.Keys))
	for i := range ords {
		ords[i] = i
	}
	var err error
	for c := 0; c < k; c++ {
		if heads[c] < bounds[c+1] {
			if headKey[c], err = s.rowKey(s.rows[heads[c]]); err != nil {
				return err
			}
		}
	}
	out := make([]types.Row, 0, len(s.rows))
	for len(out) < len(s.rows) {
		if len(out)%BatchSize == 0 {
			if err := ctx.Interrupted(); err != nil {
				return err
			}
		}
		best := -1
		for c := 0; c < k; c++ {
			if heads[c] >= bounds[c+1] {
				continue
			}
			if best < 0 || types.CompareRows(headKey[c], headKey[best], ords, s.Desc) < 0 {
				best = c
			}
		}
		out = append(out, s.rows[heads[best]])
		heads[best]++
		if heads[best] < bounds[best+1] {
			if headKey[best], err = s.rowKey(s.rows[heads[best]]); err != nil {
				return err
			}
		} else {
			headKey[best] = nil
		}
	}
	s.rows = out
	return nil
}

// sortRows orders s.rows by s.kr, stable, splitting across pool workers
// for large inputs.
func (s *sorter) sortRows(ctx *exec.Ctx) {
	n := len(s.rows)
	if n < 2 {
		return
	}
	ords := make([]int, len(s.Keys))
	for i := range ords {
		ords[i] = i
	}
	less := func(a, b int) bool {
		return types.CompareRows(s.kr[a], s.kr[b], ords, s.Desc) < 0
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}

	var grant Grant
	if s.Parallel && n >= DefaultParallelMinRows {
		if workers := Shared.Stats().Workers; workers > 1 {
			grant = Shared.Acquire(workers - 1)
			if grant.N() == 0 {
				add(&ctx.Counters.PoolFallbacks, 1)
			}
		}
	}
	if grant.N() == 0 {
		sort.SliceStable(perm, func(i, j int) bool { return less(perm[i], perm[j]) })
		s.apply(perm)
		return
	}
	defer grant.Release()
	w := grant.N() + 1
	add(&ctx.Counters.PoolWorkers, int64(grant.N()))

	// Contiguous chunks keep each chunk internally in input order, so a
	// chunk-stable merge reproduces the global stable sort.
	bounds := make([]int, w+1)
	for i := 0; i <= w; i++ {
		bounds[i] = i * n / w
	}
	var wg sync.WaitGroup
	sortChunk := func(c int) {
		chunk := perm[bounds[c]:bounds[c+1]]
		sort.SliceStable(chunk, func(i, j int) bool { return less(chunk[i], chunk[j]) })
	}
	for c := 1; c < w; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sortChunk(c)
		}(c)
	}
	sortChunk(0)
	wg.Wait()

	// Stable k-way merge: among the chunk heads, take the smallest key,
	// ties to the earliest chunk (earlier chunks hold earlier input rows).
	heads := make([]int, w)
	copy(heads, bounds[:w])
	merged := make([]int, 0, n)
	for len(merged) < n {
		best := -1
		for c := 0; c < w; c++ {
			if heads[c] >= bounds[c+1] {
				continue
			}
			if best < 0 || less(perm[heads[c]], perm[heads[best]]) {
				best = c
			}
		}
		merged = append(merged, perm[heads[best]])
		heads[best]++
	}
	s.apply(merged)
}

// apply reorders rows (and drops the key tuples) per the sorted
// permutation.
func (s *sorter) apply(perm []int) {
	out := make([]types.Row, len(perm))
	for o, i := range perm {
		out[o] = s.rows[i]
	}
	s.rows = out
	s.kr = nil
}

// Columns implements BatchPlan.
func (s *BatchSort) Columns() []exec.Column { return s.Child.Columns() }

// Explain implements BatchPlan.
func (s *BatchSort) Explain(indent int) string {
	keys := make([]string, len(s.Keys))
	for i, k := range s.Keys {
		keys[i] = k.String()
		if i < len(s.Desc) && s.Desc[i] {
			keys[i] += " DESC"
		}
	}
	return fmt.Sprintf("%sBatchSort %s\n%s", pad(indent), strings.Join(keys, ", "), s.Child.Explain(indent+1))
}

// batchRowHash combines the column hashes of physical row i without boxing
// typed columns; consistent with rowHash over the boxed row.
func batchRowHash(b *Batch, i int) uint64 {
	h := uint64(fnvOffset)
	for c := range b.Cols {
		if b.Cols[c] == nil {
			h = mixHash(h, typedHashAt(b.Typed[c], i))
		} else {
			h = mixHash(h, valHash(b.Cols[c][i]))
		}
	}
	return h
}

// dedup is the shared duplicate-elimination state of BatchDistinct and
// BatchUnion: first occurrences are kept (boxed copies — they outlive the
// batch), duplicates are dropped by narrowing the selection.
type dedup struct {
	seen map[uint64][]types.Row
}

// filter appends the physical indexes of b's first-occurrence rows to
// buf[:0] and returns it.
func (d *dedup) filter(b *Batch, buf []int) []int {
	buf = buf[:0]
	keep := func(i int) {
		h := batchRowHash(b, i)
		for _, prev := range d.seen[h] {
			eq := true
			for c := range prev {
				if !types.Equal(prev[c], b.value(c, i)) {
					eq = false
					break
				}
			}
			if eq {
				return
			}
		}
		d.seen[h] = append(d.seen[h], b.Row(i))
		buf = append(buf, i)
	}
	if b.Sel != nil {
		for _, i := range b.Sel {
			keep(i)
		}
	} else {
		for i := 0; i < b.N; i++ {
			keep(i)
		}
	}
	return buf
}

// BatchDistinct drops duplicate rows by narrowing each batch's selection
// to first occurrences — zero-copy for the surviving rows. Semantics
// match exec.DistinctPlan: whole-row equality under types.Equal, first
// occurrence wins, child order preserved.
type BatchDistinct struct {
	Child BatchPlan
}

// Open implements BatchPlan: a distinct is a deduplicating union of one
// branch.
func (d *BatchDistinct) Open(ctx *exec.Ctx, params types.Row) (BatchIter, error) {
	return openUnion(ctx, params, []BatchPlan{d.Child}, true)
}

// Columns implements BatchPlan.
func (d *BatchDistinct) Columns() []exec.Column { return d.Child.Columns() }

// Explain implements BatchPlan.
func (d *BatchDistinct) Explain(indent int) string {
	return fmt.Sprintf("%sBatchDistinct\n%s", pad(indent), d.Child.Explain(indent+1))
}

// BatchUnion concatenates branch streams; Distinct adds set semantics with
// the dedup state shared across branches. Like exec.UnionPlan, every
// branch is opened at Open and the branches drain in order.
type BatchUnion struct {
	Children []BatchPlan
	Distinct bool
}

// Open implements BatchPlan.
func (u *BatchUnion) Open(ctx *exec.Ctx, params types.Row) (BatchIter, error) {
	return openUnion(ctx, params, u.Children, u.Distinct)
}

func openUnion(ctx *exec.Ctx, params types.Row, children []BatchPlan, distinct bool) (BatchIter, error) {
	it := &unionIter{children: make([]BatchIter, 0, len(children))}
	if distinct {
		it.dd = &dedup{seen: make(map[uint64][]types.Row)}
	}
	for _, c := range children {
		child, err := c.Open(ctx, params)
		if err != nil {
			it.Close(ctx)
			return nil, err
		}
		it.children = append(it.children, child)
	}
	return it, nil
}

type unionIter struct {
	children []BatchIter
	cur      int
	dd       *dedup // nil = keep duplicates
	mem      memTracker
	selBuf   []int
}

func (u *unionIter) NextBatch(ctx *exec.Ctx) (*Batch, error) {
	for u.cur < len(u.children) {
		if err := ctx.Interrupted(); err != nil {
			return nil, err
		}
		b, err := u.children[u.cur].NextBatch(ctx)
		if err != nil {
			return nil, err
		}
		if b == nil {
			u.cur++
			continue
		}
		if u.dd != nil {
			u.selBuf = u.dd.filter(b, u.selBuf)
			if len(u.selBuf) == 0 {
				continue
			}
			// Every surviving row was boxed into the seen table and is
			// retained for the execution's lifetime.
			if err := u.mem.reserve(ctx, rowsBytes(len(u.selBuf), len(b.Cols))); err != nil {
				return nil, err
			}
			b.Sel = u.selBuf
		}
		return b, nil
	}
	return nil, nil
}

func (u *unionIter) Close(ctx *exec.Ctx) error {
	u.dd = nil
	u.mem.releaseAll(ctx)
	selPool.put(u.selBuf)
	u.selBuf = nil
	var first error
	for _, c := range u.children {
		if err := c.Close(ctx); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Columns implements BatchPlan.
func (u *BatchUnion) Columns() []exec.Column { return u.Children[0].Columns() }

// Explain implements BatchPlan.
func (u *BatchUnion) Explain(indent int) string {
	kind := "BatchUnionAll"
	if u.Distinct {
		kind = "BatchUnion"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s%s\n", pad(indent), kind)
	for _, c := range u.Children {
		b.WriteString(c.Explain(indent + 1))
	}
	return b.String()
}
