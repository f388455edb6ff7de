package vexec

import (
	"fmt"
	"strings"
	"sync"

	"xnf/internal/exec"
	"xnf/internal/types"
)

// keyCols evaluates a set of join/sort key expressions over one batch and
// gives positional access to the results without committing to a
// representation: each key stays typed (segment payload arrays) when the
// expression supports it and falls back to the boxed vector otherwise.
// Hashing and equality read through both forms consistently (typedHashAt
// reproduces valHash's byte stream).
type keyCols struct {
	vecs  []Vector
	typed []*TypedVec
}

// eval computes the key expressions for the rows in sel. The results live
// in e's arena: they are valid until the arena is reset.
func (kc *keyCols) eval(keys []VExpr, e *env, b *Batch, sel []int) error {
	if cap(kc.vecs) < len(keys) {
		kc.vecs = make([]Vector, len(keys))
		kc.typed = make([]*TypedVec, len(keys))
	}
	kc.vecs = kc.vecs[:len(keys)]
	kc.typed = kc.typed[:len(keys)]
	for k, x := range keys {
		tv, err := evalTypedOf(x, e, b, sel)
		if err != nil {
			return err
		}
		if tv != nil {
			kc.typed[k], kc.vecs[k] = tv, nil
			continue
		}
		v, err := x.eval(e, b, sel)
		if err != nil {
			return err
		}
		kc.vecs[k], kc.typed[k] = v, nil
	}
	for _, tv := range kc.typed {
		if tv != nil && tv.Encoded() {
			e.encodedHash(len(sel))
			break
		}
	}
	return nil
}

// hashAt combines the key hashes of physical row i; null reports a NULL in
// any key column (NULL keys never join, matching the row operator).
func (kc *keyCols) hashAt(i int) (h uint64, null bool) {
	h = fnvOffset
	for k := range kc.vecs {
		if tv := kc.typed[k]; tv != nil {
			if tv.IsNull(i) {
				return 0, true
			}
			h = mixHash(h, typedHashAt(tv, i))
			continue
		}
		v := kc.vecs[k][i]
		if v.IsNull() {
			return 0, true
		}
		h = mixHash(h, valHash(v))
	}
	return h, false
}

// valueAt boxes key k of physical row i.
func (kc *keyCols) valueAt(k, i int) types.Value {
	if tv := kc.typed[k]; tv != nil {
		return tv.Value(i)
	}
	return kc.vecs[k][i]
}

// BatchHashJoin is the vectorized equi-join: the right (build) side is
// drained into pooled hash buckets a batch at a time — reading typed
// column-store segment arrays directly when the build side is a column
// table scan — and the left (probe) side streams through batch-at-a-time
// key evaluation with selection-vector output. Key semantics match
// exec.HashJoinPlan exactly: a NULL in any key column drops the row on
// either side, key equality is types.Equal (so 2 joins 2.0), the residual
// is evaluated over the concatenated row only for key-matched pairs, and
// the output order is probe order × bucket insertion (build) order.
//
// When Parallel is set and the build side is a base-table scan at least
// DefaultParallelMinRows rows large, the build is morsel-parallel: workers
// admitted by the shared pool hash disjoint segment ranges and the
// per-morsel entry runs are merged in morsel order, so the bucket layout —
// and therefore the output order — is identical to a sequential build.
type BatchHashJoin struct {
	Left, Right BatchPlan
	LeftKeys    []VExpr // over left (probe) rows
	RightKeys   []VExpr // over right (build) rows
	Residual    VExpr   // over concatenated rows; nil = none
	Parallel    bool    // morsel-parallel build when the build side is a table scan
}

// joinIter is one execution of a BatchHashJoin.
type joinIter struct {
	*BatchHashJoin
	left   BatchIter
	table  map[uint64][]types.Row // entry = key values ++ build row
	mem    memTracker             // build-side slab reservations
	kenv   env                    // probe-key evaluation
	renv   env                    // residual evaluation over the output batch
	keys   keyCols
	cur    *Batch // current probe batch; pairs index into it
	pairL  []int  // matched probe rows (physical indexes into cur)
	pairR  []types.Row
	ppos   int
	out    Batch
	selBuf []int
	leftW  int
	rightW int
}

// Open implements BatchPlan: the hash table is built eagerly, then the
// probe side is opened.
func (n *BatchHashJoin) Open(ctx *exec.Ctx, params types.Row) (BatchIter, error) {
	j := &joinIter{
		BatchHashJoin: n,
		table:         make(map[uint64][]types.Row),
		leftW:         len(n.Left.Columns()),
		rightW:        len(n.Right.Columns()),
	}
	j.kenv.open(ctx, params)
	j.renv.open(ctx, params)
	err := j.build(ctx, params)
	if err == nil {
		add(&ctx.Counters.HashBuilds, 1)
		j.left, err = n.Left.Open(ctx, params)
	}
	if err != nil {
		j.Close(ctx)
		return nil, err
	}
	return j, nil
}

// build hashes the build side, morsel-parallel when it can.
func (j *joinIter) build(ctx *exec.Ctx, params types.Row) error {
	if scan, ok := j.Right.(*ScanBatch); ok && j.Parallel {
		if built, err := j.parallelBuild(ctx, params, scan); built || err != nil {
			return err
		}
	}
	return j.seqBuild(ctx, params)
}

// seqBuild drains the build child through the ordinary batch protocol.
func (j *joinIter) seqBuild(ctx *exec.Ctx, params types.Row) error {
	right, err := j.Right.Open(ctx, params)
	if err != nil {
		return err
	}
	var benv env
	var bkeys keyCols
	benv.open(ctx, params)
	defer benv.close()
	built := int64(0)
	entryW := len(j.RightKeys) + j.rightW
	for {
		if err := ctx.Interrupted(); err != nil {
			right.Close(ctx)
			return err
		}
		b, err := right.NextBatch(ctx)
		if err != nil {
			right.Close(ctx)
			return err
		}
		if b == nil {
			break
		}
		// The slab retains up to one entry per selected row for the
		// execution's lifetime; charge it before allocating.
		if err := j.mem.reserve(ctx, rowsBytes(selCount(b), entryW)); err != nil {
			right.Close(ctx)
			return err
		}
		n, err := j.buildBatch(&benv, &bkeys, b, func(h uint64, entry types.Row) {
			j.table[h] = append(j.table[h], entry)
		})
		if err != nil {
			right.Close(ctx)
			return err
		}
		built += int64(n)
	}
	add(&ctx.Counters.JoinBuildRows, built)
	return right.Close(ctx)
}

// buildBatch hashes one build-side batch into entries via sink. Entries
// are sliced out of one exactly-sized slab per batch (they are retained
// for the execution's lifetime, so they cannot live in an arena).
func (j *joinIter) buildBatch(e *env, kc *keyCols, b *Batch, sink func(uint64, types.Row)) (int, error) {
	sel := b.Sel
	if sel == nil {
		sel = e.identity(b.N)
	}
	e.reset()
	if err := kc.eval(j.RightKeys, e, b, sel); err != nil {
		return 0, err
	}
	nkeys := len(j.RightKeys)
	entryW := nkeys + j.rightW
	// Box the build columns once per batch; entries gather from these.
	cols := make([]Vector, j.rightW)
	for c := 0; c < j.rightW; c++ {
		cols[c] = b.Boxed(c)
	}
	slab := make(types.Row, 0, len(sel)*entryW)
	built := 0
	for _, i := range sel {
		h, null := kc.hashAt(i)
		if null {
			continue // NULL keys never join
		}
		off := len(slab)
		for k := 0; k < nkeys; k++ {
			slab = append(slab, kc.valueAt(k, i))
		}
		for c := 0; c < j.rightW; c++ {
			slab = append(slab, cols[c][i])
		}
		sink(h, slab[off:len(slab):len(slab)])
		built++
	}
	return built, nil
}

// buildEnt is one hashed build row produced by a parallel build worker.
type buildEnt struct {
	h   uint64
	row types.Row
}

// parallelBuild splits a build-side table scan into morsels and hashes
// them on pool-admitted workers. ok is false when the build should fall
// back to the sequential batch drain: the table is below
// DefaultParallelMinRows, there is only one morsel, or the pool is
// saturated.
func (j *joinIter) parallelBuild(ctx *exec.Ctx, params types.Row, scan *ScanBatch) (bool, error) {
	td, err := ctx.Store.Table(scan.Table)
	if err != nil {
		return false, err
	}
	morsels, total, scanned, pruned := tableMorsels(td, ResolveBounds(scan.Prune, params))
	if total < DefaultParallelMinRows {
		return false, nil
	}
	workers := min(Shared.Stats().Workers, len(morsels))
	if workers <= 1 {
		return false, nil
	}
	// Charge the whole build estimate up front: parallel workers must
	// not race reservations mid-build. If it does not fit, degrade to
	// the sequential build, which charges incrementally and so can get
	// further before failing (probe-side batches free up as it runs).
	if err := j.mem.reserve(ctx, rowsBytes(total, len(j.RightKeys)+j.rightW)); err != nil {
		add(&ctx.Counters.MemFallbacks, 1)
		return false, nil
	}
	grant := Shared.Acquire(workers - 1)
	if grant.N() == 0 {
		add(&ctx.Counters.PoolFallbacks, 1)
		return false, nil
	}
	defer grant.Release()
	w := grant.N() + 1
	add(&ctx.Counters.PoolWorkers, int64(grant.N()))
	add(&ctx.Counters.RowsScanned, int64(total))
	add(&ctx.Counters.SegmentsScanned, int64(scanned))
	add(&ctx.Counters.SegmentsPruned, int64(pruned))

	// Workers hash disjoint morsel stripes into private entry runs; the
	// runs are stitched together in morsel index order afterwards, so the
	// bucket insertion order is exactly the sequential build's.
	perMorsel := make([][]buildEnt, len(morsels))
	werrs := make([]*workerErr, w)
	run := func(wi int) {
		var benv env
		var bkeys keyCols
		var batch Batch
		var selBuf []int
		benv.open(ctx, params)
		defer func() {
			batch.release()
			selPool.put(selBuf)
			benv.close()
		}()
		for mi := wi; mi < len(morsels); mi += w {
			if err := ctx.Interrupted(); err != nil {
				werrs[wi] = &workerErr{morsel: mi, err: err}
				return
			}
			ents, err := j.buildMorsel(&benv, &bkeys, &batch, &selBuf, scan.Pred, morsels[mi])
			if err != nil {
				werrs[wi] = &workerErr{morsel: mi, err: err}
				return
			}
			perMorsel[mi] = ents
		}
	}
	var wg sync.WaitGroup
	for wi := 1; wi < w; wi++ {
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
		return false, firstErr.err
	}
	built := int64(0)
	for _, ents := range perMorsel {
		for _, ent := range ents {
			j.table[ent.h] = append(j.table[ent.h], ent.row)
		}
		built += int64(len(ents))
	}
	add(&ctx.Counters.JoinBuildRows, built)
	return true, nil
}

// buildMorsel filters and hashes one morsel into an entry run.
func (j *joinIter) buildMorsel(e *env, kc *keyCols, batch *Batch, selBuf *[]int, pred VExpr, m morsel) ([]buildEnt, error) {
	var ents []buildEnt
	hash := func() error {
		buf, ok, err := applyPred(pred, e, batch, *selBuf)
		if err != nil {
			return err
		}
		*selBuf = buf
		if !ok {
			return nil
		}
		_, err = j.buildBatch(e, kc, batch, func(h uint64, entry types.Row) {
			ents = append(ents, buildEnt{h: h, row: entry})
		})
		return err
	}
	if m.rows != nil {
		for lo := 0; lo < len(m.rows); lo += BatchSize {
			hi := lo + BatchSize
			if hi > len(m.rows) {
				hi = len(m.rows)
			}
			batch.fromRows(m.rows[lo:hi], j.rightW)
			if err := hash(); err != nil {
				return nil, err
			}
		}
		return ents, nil
	}
	batch.fromTypedView(m.view)
	return ents, hash()
}

// NextBatch implements BatchIter: pending matched pairs are emitted in
// BatchSize chunks with the residual applied as a selection vector; when
// the pair buffer drains, the next probe batch is pulled and probed.
func (j *joinIter) NextBatch(ctx *exec.Ctx) (*Batch, error) {
	nkeys := len(j.LeftKeys)
	for {
		for j.ppos < len(j.pairL) {
			n := len(j.pairL) - j.ppos
			if n > BatchSize {
				n = BatchSize
			}
			j.emit(n)
			j.ppos += n
			buf, ok, err := applyPred(j.Residual, &j.renv, &j.out, j.selBuf)
			if err != nil {
				return nil, err
			}
			j.selBuf = buf
			if !ok {
				continue
			}
			return &j.out, nil
		}
		if err := ctx.Interrupted(); err != nil {
			return nil, err
		}
		b, err := j.left.NextBatch(ctx)
		if err != nil {
			return nil, err
		}
		if b == nil {
			return nil, nil
		}
		sel := b.Sel
		if sel == nil {
			sel = j.kenv.identity(b.N)
		}
		j.kenv.reset()
		if err := j.keys.eval(j.LeftKeys, &j.kenv, b, sel); err != nil {
			return nil, err
		}
		j.pairL = j.pairL[:0]
		j.pairR = j.pairR[:0]
		j.ppos = 0
		probed := int64(0)
		for _, i := range sel {
			h, null := j.keys.hashAt(i)
			if null {
				continue
			}
			probed++
			for _, entry := range j.table[h] {
				match := true
				for k := 0; k < nkeys; k++ {
					if !types.Equal(entry[k], j.keys.valueAt(k, i)) {
						match = false
						break
					}
				}
				if match {
					j.pairL = append(j.pairL, i)
					j.pairR = append(j.pairR, entry[nkeys:])
				}
			}
		}
		add(&ctx.Counters.JoinProbeRows, probed)
		j.cur = b
	}
}

// emit fills the output batch with the next n matched pairs: left columns
// gather from the current probe batch, right columns from the build rows.
func (j *joinIter) emit(n int) {
	j.out.resize(j.leftW+j.rightW, n)
	for c := 0; c < j.leftW; c++ {
		src := j.cur.Boxed(c)
		dst := j.out.Cols[c]
		for o := 0; o < n; o++ {
			dst[o] = src[j.pairL[j.ppos+o]]
		}
	}
	for o := 0; o < n; o++ {
		er := j.pairR[j.ppos+o]
		for c := 0; c < j.rightW; c++ {
			j.out.Cols[j.leftW+c][o] = er[c]
		}
	}
}

// Close implements BatchIter.
func (j *joinIter) Close(ctx *exec.Ctx) error {
	j.table = nil
	j.mem.releaseAll(ctx)
	j.cur = nil
	j.out.release()
	selPool.put(j.selBuf)
	j.selBuf = nil
	j.kenv.close()
	j.renv.close()
	if j.left == nil {
		return nil
	}
	return j.left.Close(ctx)
}

// Columns implements BatchPlan.
func (j *BatchHashJoin) Columns() []exec.Column {
	return append(append([]exec.Column{}, j.Left.Columns()...), j.Right.Columns()...)
}

// Explain implements BatchPlan.
func (j *BatchHashJoin) Explain(indent int) string {
	lk := make([]string, len(j.LeftKeys))
	for i, k := range j.LeftKeys {
		lk[i] = k.String()
	}
	rk := make([]string, len(j.RightKeys))
	for i, k := range j.RightKeys {
		rk[i] = k.String()
	}
	res := ""
	if j.Residual != nil {
		res = " residual=" + j.Residual.String()
	}
	par := ""
	if j.Parallel {
		par = " parallel-build"
	}
	return fmt.Sprintf("%sBatchHashJoin (%s)=(%s)%s%s\n%s%s", pad(indent),
		strings.Join(lk, ", "), strings.Join(rk, ", "), res, par,
		j.Left.Explain(indent+1), j.Right.Explain(indent+1))
}
