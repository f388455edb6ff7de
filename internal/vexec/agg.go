package vexec

import (
	"fmt"
	"math"
	"strings"

	"xnf/internal/exec"
	"xnf/internal/types"
)

// valHash hashes one value without the per-call allocation of
// types.Value.Hash, producing the same byte sequence (integral floats hash
// like the equivalent integer, so cross-type group keys that compare equal
// land in the same bucket).
func valHash(v types.Value) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	switch v.T {
	case types.NullType:
		h ^= 0
		h *= prime
	case types.StringType:
		h ^= 2
		h *= prime
		for i := 0; i < len(v.S); i++ {
			h ^= uint64(v.S[i])
			h *= prime
		}
	default:
		u := uint64(v.I)
		if v.T == types.FloatType {
			f := v.F
			if f == math.Trunc(f) && f >= math.MinInt64 && f <= math.MaxInt64 {
				u = uint64(int64(f))
			} else {
				u = math.Float64bits(f)
			}
		}
		h ^= 1
		h *= prime
		for i := 0; i < 8; i++ {
			h ^= u & 0xff
			h *= prime
			u >>= 8
		}
	}
	return h
}

// typedHashAt hashes element i of a typed vector without boxing it,
// producing exactly valHash's byte sequence for the boxed equivalent —
// typed and boxed group columns must land in the same buckets.
func typedHashAt(tv *TypedVec, i int) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	if tv.IsNull(i) {
		h ^= 0
		h *= prime
		return h
	}
	switch tv.Typ {
	case types.StringType:
		h ^= 2
		h *= prime
		// Dictionary columns hash the dictionary string's bytes, not the
		// code — hash equality with raw and boxed vectors must hold.
		s := tv.StrAt(i)
		for j := 0; j < len(s); j++ {
			h ^= uint64(s[j])
			h *= prime
		}
	default:
		var u uint64
		if tv.Typ == types.FloatType { // float vectors carry no Ints payload
			f := tv.Floats[i]
			if f == math.Trunc(f) && f >= math.MinInt64 && f <= math.MaxInt64 {
				u = uint64(int64(f))
			} else {
				u = math.Float64bits(f)
			}
		} else {
			u = uint64(tv.IntAt(i))
		}
		h ^= 1
		h *= prime
		for j := 0; j < 8; j++ {
			h ^= u & 0xff
			h *= prime
			u >>= 8
		}
	}
	return h
}

// mixHash folds one value hash into a running FNV-1a state. groupHash and
// rowHash must mix identically — merge-time probing relies on it.
func mixHash(h, u uint64) uint64 {
	const prime = 1099511628211
	for b := 0; b < 8; b++ {
		h ^= u & 0xff
		h *= prime
		u >>= 8
	}
	return h
}

const fnvOffset = 14695981039346656037

// AggSpec describes one aggregate computed by a HashAggBatch; semantics
// mirror exec.AggSpec exactly (NULL-skipping, DISTINCT, AVG as SUM/COUNT).
type AggSpec struct {
	Name     string // COUNT, SUM, AVG, MIN, MAX
	Star     bool   // COUNT(*)
	Distinct bool
	Arg      VExpr // nil for COUNT(*)
}

// rowHash combines the hashes of a materialized group key (merge-time
// probing of parallel partial aggregates); consistent with groupHash.
func rowHash(key types.Row) uint64 {
	h := uint64(fnvOffset)
	for _, v := range key {
		h = mixHash(h, valHash(v))
	}
	return h
}

// aggGroup is one group's accumulator. morsel/seq record where the group
// first appeared (morsel index, appearance position within the folding
// stream); the parallel merge sorts on them to reproduce the sequential
// first-appearance output order.
type aggGroup struct {
	key    types.Row
	states []*exec.AggState
	morsel int
	seq    int
}

// groupTable is the hash-aggregation state shared by the single-threaded
// HashAggBatch and the per-worker partials of ParallelAggScan: group keys
// and aggregate arguments are evaluated one vector at a time — in typed
// form whenever the expression supports it, boxed otherwise — then folded
// into per-group states without boxing typed elements (hashing reads the
// payload arrays, aggregate folding goes through AggState.AddInt/AddFloat).
type groupTable struct {
	groupExprs []VExpr
	specs      []AggSpec
	groups     map[uint64][]*aggGroup
	order      []*aggGroup
	morsel     int // current morsel index, stamped onto new groups
	seq        int

	groupVecs  []Vector
	argVecs    []Vector
	groupTyped []*TypedVec
	argTyped   []*TypedVec

	// intGroups is the single-INTEGER-group fast path: one map[int64]
	// lookup replaces the FNV hash chain and the equality probe. It is
	// maintained alongside groups (every group lives in both), and shut
	// off the moment a non-integer key appears — cross-type numeric
	// equality (2 = 2.0) is only safe under the generic probe.
	intGroups map[int64]*aggGroup
	nullGroup *aggGroup
	global    *aggGroup // the one group of a global aggregate
}

func newGroupTable(groupExprs []VExpr, specs []AggSpec) *groupTable {
	g := &groupTable{
		groupExprs: groupExprs,
		specs:      specs,
		groups:     make(map[uint64][]*aggGroup),
		groupVecs:  make([]Vector, len(groupExprs)),
		argVecs:    make([]Vector, len(specs)),
		groupTyped: make([]*TypedVec, len(groupExprs)),
		argTyped:   make([]*TypedVec, len(specs)),
	}
	if len(groupExprs) == 1 {
		g.intGroups = make(map[int64]*aggGroup)
	}
	return g
}

// groupValAt boxes the group-key value of column gi at physical row i.
func (g *groupTable) groupValAt(gi, i int) types.Value {
	if tv := g.groupTyped[gi]; tv != nil {
		return tv.Value(i)
	}
	return g.groupVecs[gi][i]
}

// addGroup registers a new group under hash h, keeping the int fast-path
// index consistent with the generic table.
func (g *groupTable) addGroup(key types.Row, h uint64) *aggGroup {
	grp := &aggGroup{key: key, states: g.newStates(), morsel: g.morsel, seq: g.seq}
	g.seq++
	g.groups[h] = append(g.groups[h], grp)
	g.order = append(g.order, grp)
	if g.intGroups != nil {
		switch {
		case key[0].T == types.IntType:
			g.intGroups[key[0].I] = grp
		case key[0].IsNull():
			g.nullGroup = grp
		default:
			// A non-integer key joined the table; integer-keyed probing can
			// no longer see every group that compares equal (2 = 2.0), so
			// the fast path retires for this table's lifetime.
			g.intGroups = nil
			g.nullGroup = nil
		}
	}
	return grp
}

// foldRow folds the aggregate arguments of physical row i into grp.
func (g *groupTable) foldRow(grp *aggGroup, i int) {
	for ai := range g.specs {
		st := grp.states[ai]
		if g.specs[ai].Star {
			st.Add(types.Value{})
			continue
		}
		if tv := g.argTyped[ai]; tv != nil {
			// Typed fold: NULLs skip (exactly Add's rule), INTEGER and
			// FLOAT fold unboxed, BOOLEAN/VARCHAR box per element.
			if tv.IsNull(i) {
				continue
			}
			switch tv.Typ {
			case types.IntType:
				st.AddInt(tv.IntAt(i))
			case types.FloatType:
				st.AddFloat(tv.Floats[i])
			default:
				st.Add(tv.Value(i))
			}
			continue
		}
		st.Add(g.argVecs[ai][i])
	}
}

func (g *groupTable) newStates() []*exec.AggState {
	states := make([]*exec.AggState, len(g.specs))
	for i := range g.specs {
		states[i] = exec.NewAggState(g.specs[i].Name, g.specs[i].Star, g.specs[i].Distinct)
	}
	return states
}

// fold accumulates one batch. It resets the expression arena, so the
// batch's selection must not live in it (operator-owned buffers only —
// the invariant every batch operator already maintains).
func (g *groupTable) fold(e *env, b *Batch) error {
	sel := b.Sel
	if sel == nil {
		sel = e.identity(b.N)
	}
	e.reset()
	for gi, ge := range g.groupExprs {
		tv, err := evalTypedOf(ge, e, b, sel)
		if err != nil {
			return err
		}
		if tv != nil {
			g.groupTyped[gi], g.groupVecs[gi] = tv, nil
			continue
		}
		v, err := ge.eval(e, b, sel)
		if err != nil {
			return err
		}
		g.groupVecs[gi], g.groupTyped[gi] = v, nil
	}
	for ai := range g.specs {
		if g.specs[ai].Star {
			continue
		}
		tv, err := evalTypedOf(g.specs[ai].Arg, e, b, sel)
		if err != nil {
			return err
		}
		if tv != nil {
			g.argTyped[ai], g.argVecs[ai] = tv, nil
			continue
		}
		v, err := g.specs[ai].Arg.eval(e, b, sel)
		if err != nil {
			return err
		}
		g.argVecs[ai], g.argTyped[ai] = v, nil
	}
	for _, tv := range g.groupTyped {
		if tv != nil && tv.Encoded() {
			e.encodedHash(len(sel))
			break
		}
	}
	// Global aggregate: one group serves every row.
	if len(g.groupExprs) == 0 {
		grp := g.global
		if grp == nil {
			grp = g.addGroup(types.Row{}, rowHash(nil))
			g.global = grp
		}
		for _, i := range sel {
			g.foldRow(grp, i)
		}
		return nil
	}
	// Single integer group column: probe by payload, no FNV chain, no
	// boxed equality. NULL keys get their own cached group.
	if g.intGroups != nil && g.groupTyped[0] != nil && g.groupTyped[0].Typ == types.IntType {
		tv := g.groupTyped[0]
		for _, i := range sel {
			var grp *aggGroup
			if tv.IsNull(i) {
				if grp = g.nullGroup; grp == nil {
					grp = g.addGroup(types.Row{types.Null}, rowHash(types.Row{types.Null}))
				}
			} else {
				k := tv.IntAt(i)
				if grp = g.intGroups[k]; grp == nil {
					key := types.Row{types.NewInt(k)}
					grp = g.addGroup(key, rowHash(key))
				}
			}
			g.foldRow(grp, i)
		}
		return nil
	}
	for _, i := range sel {
		h := uint64(fnvOffset)
		for gi := range g.groupExprs {
			if tv := g.groupTyped[gi]; tv != nil {
				h = mixHash(h, typedHashAt(tv, i))
			} else {
				h = mixHash(h, valHash(g.groupVecs[gi][i]))
			}
		}
		var grp *aggGroup
	probe:
		for _, cand := range g.groups[h] {
			for gi := range g.groupExprs {
				if !types.Equal(cand.key[gi], g.groupValAt(gi, i)) {
					continue probe
				}
			}
			grp = cand
			break
		}
		if grp == nil {
			key := make(types.Row, len(g.groupExprs))
			for gi := range g.groupExprs {
				key[gi] = g.groupValAt(gi, i)
			}
			grp = g.addGroup(key, h)
		}
		g.foldRow(grp, i)
	}
	return nil
}

// emit materializes the result rows in first-appearance order. A global
// aggregate (no group expressions) over empty input yields exactly one row
// (SQL semantics).
func (g *groupTable) emit() []types.Row {
	order := g.order
	if len(order) == 0 && len(g.groupExprs) == 0 {
		order = []*aggGroup{{states: g.newStates()}}
	}
	out := make([]types.Row, 0, len(order))
	for _, grp := range order {
		row := make(types.Row, 0, len(grp.key)+len(grp.states))
		row = append(row, grp.key...)
		for _, st := range grp.states {
			row = append(row, st.Result())
		}
		out = append(out, row)
	}
	return out
}

// HashAggBatch is the batch-native hash aggregation: group keys and
// aggregate arguments are evaluated one vector at a time, then folded into
// per-group states. With no group expressions it is a global aggregate
// producing exactly one row even for empty input (SQL semantics). Output
// order is first appearance, matching exec.AggPlan.
type HashAggBatch struct {
	Child  BatchPlan
	Groups []VExpr
	Aggs   []AggSpec
	Cols   []exec.Column
}

// aggGroupBytes estimates the retained footprint of one hash-agg group:
// the boxed key, the aggregate states (DISTINCT states carry a set) and
// the bucket bookkeeping.
func aggGroupBytes(ngroups, naggs int) int64 {
	return int64(ngroups)*bytesPerValue + int64(naggs)*96 + bytesPerRow
}

// Open implements BatchPlan; the aggregation is computed eagerly. New
// groups are charged against the statement accountant a batch at a
// time; an over-budget aggregation fails with ErrResourceExhausted.
func (a *HashAggBatch) Open(ctx *exec.Ctx, params types.Row) (BatchIter, error) {
	child, err := a.Child.Open(ctx, params)
	if err != nil {
		return nil, err
	}
	out := &rowBatches{width: len(a.Cols)}
	var e env
	e.open(ctx, params)
	gt := newGroupTable(a.Groups, a.Aggs)
	err = a.fold(ctx, child, &e, gt, &out.mem)
	if cerr := child.Close(ctx); err == nil {
		err = cerr
	}
	e.close()
	if err != nil {
		out.Close(ctx)
		return nil, err
	}
	out.rows = gt.emit()
	return out, nil
}

// fold drains the child into the group table.
func (a *HashAggBatch) fold(ctx *exec.Ctx, child BatchIter, e *env, gt *groupTable, mem *memTracker) error {
	perGroup := aggGroupBytes(len(a.Groups), len(a.Aggs))
	for {
		if err := ctx.Interrupted(); err != nil {
			return err
		}
		b, err := child.NextBatch(ctx)
		if err != nil || b == nil {
			return err
		}
		before := len(gt.order)
		if err := gt.fold(e, b); err != nil {
			return err
		}
		if grown := len(gt.order) - before; grown > 0 {
			if err := mem.reserve(ctx, int64(grown)*perGroup); err != nil {
				return err
			}
		}
	}
}

// Columns implements BatchPlan.
func (a *HashAggBatch) Columns() []exec.Column { return a.Cols }

// Explain implements BatchPlan.
func (a *HashAggBatch) Explain(indent int) string {
	gs := make([]string, len(a.Groups))
	for i, g := range a.Groups {
		gs[i] = g.String()
	}
	as := make([]string, len(a.Aggs))
	for i, s := range a.Aggs {
		switch {
		case s.Star:
			as[i] = s.Name + "(*)"
		case s.Distinct:
			as[i] = fmt.Sprintf("%s(DISTINCT %s)", s.Name, s.Arg.String())
		default:
			as[i] = fmt.Sprintf("%s(%s)", s.Name, s.Arg.String())
		}
	}
	return fmt.Sprintf("%sBatchAgg groups=(%s) aggs=(%s)\n%s", pad(indent),
		strings.Join(gs, ", "), strings.Join(as, ", "), a.Child.Explain(indent+1))
}
