package vexec

import (
	"fmt"
	"strings"

	"xnf/internal/colstore"
	"xnf/internal/exec"
	"xnf/internal/types"
)

// env is the per-execution evaluation context of the vectorized expression
// interpreter: the parameter frame, plus a small vector arena so operator
// trees reuse result storage across batches. Arena slices are acquired from
// the shared slice pools and returned by close, so steady-state executions
// allocate nothing. One env belongs to exactly one iterator (compiled
// plans are shared, their iterators are not), so no synchronization is
// needed.
type env struct {
	params types.Row
	ctr    *exec.Counters // statement counter sink; nil = don't count

	scratch []Vector
	used    int
	tris    [][]types.TriBool
	triUsed int
	sels    [][]int
	selUsed int
	tvs     []*TypedVec
	tvUsed  int
	ident   []int
}

// open binds a fresh env to one execution's parameter frame and counters.
func (e *env) open(ctx *exec.Ctx, params types.Row) {
	e.params = params
	e.ctr = &ctx.Counters
}

// reset recycles the arena; operators call it once per batch before
// evaluating their expressions.
func (e *env) reset() {
	e.used = 0
	e.triUsed = 0
	e.selUsed = 0
	e.tvUsed = 0
}

// close returns every arena slice to the shared pools; iterators call it
// from Close.
func (e *env) close() {
	for _, v := range e.scratch {
		vecPool.put(v)
	}
	e.scratch = e.scratch[:0]
	for _, v := range e.tris {
		triPool.put(v)
	}
	e.tris = e.tris[:0]
	for _, v := range e.sels {
		selPool.put(v)
	}
	e.sels = e.sels[:0]
	for _, tv := range e.tvs {
		intPool.put(tv.Ints)
		floatPool.put(tv.Floats)
		strPool.put(tv.Strs)
		wordPool.put(tv.Nulls)
		*tv = TypedVec{}
	}
	e.tvs = e.tvs[:0]
	e.used, e.triUsed, e.selUsed, e.tvUsed = 0, 0, 0, 0
}

// get returns an arena vector of length n.
func (e *env) get(n int) Vector {
	if e.used < len(e.scratch) {
		v := e.scratch[e.used]
		e.used++
		if cap(v) < n {
			vecPool.put(v)
			v = vecPool.get(n)
			e.scratch[e.used-1] = v
		}
		return v[:n]
	}
	v := vecPool.get(n)
	e.scratch = append(e.scratch, v)
	e.used++
	return v
}

// getTri returns an arena truth-value vector of length n.
func (e *env) getTri(n int) []types.TriBool {
	if e.triUsed < len(e.tris) {
		v := e.tris[e.triUsed]
		e.triUsed++
		if cap(v) < n {
			triPool.put(v)
			v = triPool.get(n)
			e.tris[e.triUsed-1] = v
		}
		return v[:n]
	}
	v := triPool.get(n)
	e.tris = append(e.tris, v)
	e.triUsed++
	return v
}

// getSel returns an empty arena selection buffer with capacity n.
func (e *env) getSel(n int) []int {
	if e.selUsed < len(e.sels) {
		v := e.sels[e.selUsed]
		e.selUsed++
		if cap(v) < n {
			selPool.put(v)
			v = selPool.get(n)
			e.sels[e.selUsed-1] = v
		}
		return v[:0]
	}
	v := selPool.get(n)
	e.sels = append(e.sels, v)
	e.selUsed++
	return v[:0]
}

// getTyped returns an arena typed vector of length n with no nulls; typed
// kernels attach a bitmap via getNulls when they produce NULLs.
func (e *env) getTyped(typ types.Type, n int) *TypedVec {
	var tv *TypedVec
	if e.tvUsed < len(e.tvs) {
		tv = e.tvs[e.tvUsed]
		e.tvUsed++
	} else {
		tv = &TypedVec{}
		e.tvs = append(e.tvs, tv)
		e.tvUsed++
	}
	if tv.Nulls != nil {
		wordPool.put(tv.Nulls)
		tv.Nulls = nil
	}
	tv.Typ = typ
	tv.Dict, tv.Pack = nil, nil // arena vectors are always raw
	switch typ {
	case types.FloatType:
		if cap(tv.Floats) < n {
			floatPool.put(tv.Floats)
			tv.Floats = floatPool.get(n)
		}
		tv.Floats = tv.Floats[:n]
	case types.StringType:
		if cap(tv.Strs) < n {
			strPool.put(tv.Strs)
			tv.Strs = strPool.get(n)
		}
		tv.Strs = tv.Strs[:n]
	default:
		if cap(tv.Ints) < n {
			intPool.put(tv.Ints)
			tv.Ints = intPool.get(n)
		}
		tv.Ints = tv.Ints[:n]
	}
	return tv
}

// getNulls returns a zeroed arena null bitmap covering n slots. The caller
// attaches it to an arena typed vector, whose lifecycle returns it.
func (e *env) getNulls(n int) colstore.Bitmap {
	w := wordPool.get((n + 63) / 64)
	clear(w)
	return colstore.Bitmap(w)
}

// encodedCmp and encodedHash record rows whose comparison or hash kernel
// ran directly on encoded payloads (dictionary codes, packed ints).
func (e *env) encodedCmp(n int) {
	if e.ctr != nil && n > 0 {
		add(&e.ctr.EncodedCmpRows, int64(n))
	}
}

func (e *env) encodedHash(n int) {
	if e.ctr != nil && n > 0 {
		add(&e.ctr.EncodedHashRows, int64(n))
	}
}

// identity returns the cached selection [0, n).
func (e *env) identity(n int) []int {
	for len(e.ident) < n {
		e.ident = append(e.ident, len(e.ident))
	}
	return e.ident[:n]
}

// VExpr is a compiled vectorized expression. eval computes the expression
// for the physical batch positions listed in sel and returns a vector
// indexed by physical position (entries outside sel are unspecified). The
// returned vector is owned by the evaluator — callers must not retain it
// across batches or mutate it.
type VExpr interface {
	eval(e *env, b *Batch, sel []int) (Vector, error)
	String() string
}

// triEvaluator is the masked-evaluation protocol behind the boolean
// connectives: it fills out (indexed by physical position) with the
// three-valued truth of the expression for the rows in sel. AND/OR need
// the full truth value — not just the qualifying subset — so their right
// sides run exactly where the row evaluator would run them (left not
// false for AND, left not true for OR), which keeps error behavior of
// guard predicates identical between the two executors.
type triEvaluator interface {
	evalTri(e *env, b *Batch, sel []int, out []types.TriBool) error
}

// evalTriOf fills out with the truth values of any expression.
func evalTriOf(x VExpr, e *env, b *Batch, sel []int, out []types.TriBool) error {
	if t, ok := x.(triEvaluator); ok {
		return t.evalTri(e, b, sel, out)
	}
	v, err := x.eval(e, b, sel)
	if err != nil {
		return err
	}
	for _, i := range sel {
		out[i] = types.TruthOf(v[i])
	}
	return nil
}

// selectWith filters sel through any expression: comparisons and boolean
// connectives go through the truth-vector protocol (no Value
// materialization), everything else through eval plus TruthOf.
func selectWith(x VExpr, e *env, b *Batch, sel []int, dst []int) ([]int, error) {
	if t, ok := x.(triEvaluator); ok {
		out := e.getTri(b.N)
		if err := t.evalTri(e, b, sel, out); err != nil {
			return nil, err
		}
		for _, i := range sel {
			if out[i] == types.True {
				dst = append(dst, i)
			}
		}
		return dst, nil
	}
	v, err := x.eval(e, b, sel)
	if err != nil {
		return nil, err
	}
	for _, i := range sel {
		if types.TruthOf(v[i]) == types.True {
			dst = append(dst, i)
		}
	}
	return dst, nil
}

// applyPred narrows b.Sel through an optional predicate, using the
// operator-owned arena and selection buffer (the buffer must not live in
// the arena — the arena is reset here; every batch operator maintains this
// invariant). It returns the possibly-regrown buffer for reuse and whether
// any rows survived. The scan, morsel and filter operators all funnel
// through it so the selection-lifetime rules live in one place.
func applyPred(pred VExpr, e *env, b *Batch, buf []int) ([]int, bool, error) {
	if pred == nil {
		return buf, b.Len() > 0, nil
	}
	sel := b.Sel
	if sel == nil {
		sel = e.identity(b.N)
	}
	e.reset()
	out, err := selectWith(pred, e, b, sel, buf[:0])
	if err != nil {
		return buf, false, err
	}
	b.Sel = out
	return out, len(out) > 0, nil
}

// CompileExpr lowers a row expression to a vectorized one. ok is false
// when the expression uses a feature the batch engine keeps on the row
// path (subplans, scalar functions, CASE) — callers then skip lowering the
// surrounding operator.
func CompileExpr(x exec.Expr) (VExpr, bool) {
	switch n := x.(type) {
	case nil:
		return nil, true
	case *exec.Slot:
		return &vSlot{idx: n.Idx, name: n.String()}, true
	case *exec.Const:
		return &vConst{v: n.V, str: n.String()}, true
	case *exec.Param:
		return &vParam{idx: n.Idx, str: n.String()}, true
	case *exec.TailParam:
		return &vTail{back: n.Back, str: n.String()}, true
	case *exec.Bin:
		l, ok := CompileExpr(n.L)
		if !ok {
			return nil, false
		}
		r, ok := CompileExpr(n.R)
		if !ok {
			return nil, false
		}
		switch n.Op {
		case "AND":
			return &vAnd{l: l, r: r}, true
		case "OR":
			return &vOr{l: l, r: r}, true
		case "=", "<>", "!=", "<", "<=", ">", ">=":
			return newCmp(n.Op, l, r), true
		case "LIKE":
			return &vLike{l: l, r: r}, true
		case "+", "-", "*", "/", "%", "||":
			return &vArith{op: n.Op, l: l, r: r}, true
		default:
			return nil, false
		}
	case *exec.Un:
		sub, ok := CompileExpr(n.X)
		if !ok {
			return nil, false
		}
		switch n.Op {
		case "NOT", "-", "ISNULL", "ISNOTNULL":
			return &vUn{op: n.Op, x: sub}, true
		default:
			return nil, false
		}
	case *exec.ScalarFunc:
		name := strings.ToUpper(n.Name)
		switch name {
		case "UPPER", "LOWER", "LENGTH", "ABS":
		default:
			return nil, false
		}
		if len(n.Args) != 1 {
			return nil, false
		}
		arg, ok := CompileExpr(n.Args[0])
		if !ok {
			return nil, false
		}
		return &vFunc{name: name, x: arg}, true
	case *exec.CaseExpr:
		whens := make([]vWhen, len(n.Whens))
		for i, w := range n.Whens {
			cond, ok := CompileExpr(w.Cond)
			if !ok {
				return nil, false
			}
			res, ok := CompileExpr(w.Result)
			if !ok {
				return nil, false
			}
			whens[i] = vWhen{cond: cond, result: res}
		}
		var els VExpr
		if n.Else != nil {
			e, ok := CompileExpr(n.Else)
			if !ok {
				return nil, false
			}
			els = e
		}
		return &vCase{whens: whens, els: els}, true
	default:
		// Subplan-carrying expressions: row path only.
		return nil, false
	}
}

// CompileExprs lowers a list; ok is false if any element fails.
func CompileExprs(xs []exec.Expr) ([]VExpr, bool) {
	out := make([]VExpr, len(xs))
	for i, x := range xs {
		v, ok := CompileExpr(x)
		if !ok {
			return nil, false
		}
		out[i] = v
	}
	return out, true
}

// --- leaves ---

type vSlot struct {
	idx  int
	name string
}

func (s *vSlot) eval(e *env, b *Batch, sel []int) (Vector, error) {
	if s.idx >= len(b.Cols) {
		return nil, fmt.Errorf("vexec: slot %d out of range (batch width %d)", s.idx, len(b.Cols))
	}
	// Boxed may materialize a typed column on demand — the box-on-demand
	// boundary for expressions the typed kernels do not cover.
	return b.Boxed(s.idx), nil
}

func (s *vSlot) String() string { return s.name }

type vConst struct {
	v   types.Value
	str string
}

func (c *vConst) eval(e *env, b *Batch, sel []int) (Vector, error) {
	out := e.get(b.N)
	for _, i := range sel {
		out[i] = c.v
	}
	return out, nil
}

func (c *vConst) String() string { return c.str }

type vParam struct {
	idx int
	str string
}

func (p *vParam) eval(e *env, b *Batch, sel []int) (Vector, error) {
	if p.idx >= len(e.params) {
		return nil, fmt.Errorf("vexec: parameter %d out of range (frame width %d)", p.idx, len(e.params))
	}
	v := e.params[p.idx]
	out := e.get(b.N)
	for _, i := range sel {
		out[i] = v
	}
	return out, nil
}

func (p *vParam) String() string { return p.str }

type vTail struct {
	back int
	str  string
}

func (p *vTail) eval(e *env, b *Batch, sel []int) (Vector, error) {
	idx := len(e.params) - 1 - p.back
	if idx < 0 {
		return nil, fmt.Errorf("vexec: tail parameter %d out of range (frame width %d)", p.back, len(e.params))
	}
	v := e.params[idx]
	out := e.get(b.N)
	for _, i := range sel {
		out[i] = v
	}
	return out, nil
}

func (p *vTail) String() string { return p.str }

// --- comparison ---

// cmp opcode: index into the comparison dispatch.
const (
	opEq = iota
	opNe
	opLt
	opLe
	opGt
	opGe
)

var cmpName = [...]string{"=", "<>", "<", "<=", ">", ">="}

func cmpHolds(opc int, c int) bool {
	switch opc {
	case opEq:
		return c == 0
	case opNe:
		return c != 0
	case opLt:
		return c < 0
	case opLe:
		return c <= 0
	case opGt:
		return c > 0
	default: // opGe
		return c >= 0
	}
}

// vCmp compares two vectors under three-valued logic. When the right side
// is constant for the execution — a literal or a parameter — the
// per-element loop specializes: the common `col <op> constant` filter runs
// without per-element type dispatch.
type vCmp struct {
	opc  int
	l, r VExpr
}

func newCmp(op string, l, r VExpr) *vCmp {
	opc := opEq
	switch op {
	case "<>", "!=":
		opc = opNe
	case "<":
		opc = opLt
	case "<=":
		opc = opLe
	case ">":
		opc = opGt
	case ">=":
		opc = opGe
	}
	return &vCmp{opc: opc, l: l, r: r}
}

func (c *vCmp) String() string {
	return fmt.Sprintf("(%s %s %s)", c.l.String(), cmpName[c.opc], c.r.String())
}

// tri computes one element.
func (c *vCmp) tri(a, b types.Value) (types.TriBool, error) {
	return types.CompareTri(cmpName[c.opc], a, b)
}

func (c *vCmp) eval(e *env, b *Batch, sel []int) (Vector, error) {
	out := e.get(b.N)
	tri := e.getTri(b.N)
	if err := c.evalTri(e, b, sel, tri); err != nil {
		return nil, err
	}
	for _, i := range sel {
		out[i] = tri[i].ToValue()
	}
	return out, nil
}

func (c *vCmp) evalTri(e *env, b *Batch, sel []int, out []types.TriBool) error {
	// Typed fast path: unboxed loops over segment arrays (typed.go).
	if done, err := c.evalTriTyped(e, b, sel, out); done || err != nil {
		return err
	}
	lv, err := c.l.eval(e, b, sel)
	if err != nil {
		return err
	}
	if rc, ok := scalarOf(c.r, e); ok {
		if rc.T == types.IntType {
			k := rc.I
			opc := c.opc
			for _, i := range sel {
				v := lv[i]
				if v.T == types.IntType {
					d := 0
					if v.I < k {
						d = -1
					} else if v.I > k {
						d = 1
					}
					out[i] = types.Tri(cmpHolds(opc, d))
					continue
				}
				t, err := c.tri(v, rc)
				if err != nil {
					return err
				}
				out[i] = t
			}
			return nil
		}
		for _, i := range sel {
			t, err := c.tri(lv[i], rc)
			if err != nil {
				return err
			}
			out[i] = t
		}
		return nil
	}
	rv, err := c.r.eval(e, b, sel)
	if err != nil {
		return err
	}
	for _, i := range sel {
		t, err := c.tri(lv[i], rv[i])
		if err != nil {
			return err
		}
		out[i] = t
	}
	return nil
}

// --- boolean connectives ---

// vAnd short-circuits per row exactly like the row evaluator's Bin AND:
// the right side is evaluated wherever the left is not false (true OR
// unknown), so row-level guards (x <> 0 AND y/x > 1) keep their
// protective semantics and error behavior matches the row executor even
// for NULL left operands.
type vAnd struct {
	l, r VExpr
}

func (a *vAnd) String() string { return fmt.Sprintf("(%s AND %s)", a.l.String(), a.r.String()) }

func (a *vAnd) evalTri(e *env, b *Batch, sel []int, out []types.TriBool) error {
	if err := evalTriOf(a.l, e, b, sel, out); err != nil {
		return err
	}
	need := e.getSel(len(sel))
	for _, i := range sel {
		if out[i] != types.False {
			need = append(need, i)
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
		out[i] = out[i].And(rt[i])
	}
	return nil
}

func (a *vAnd) eval(e *env, b *Batch, sel []int) (Vector, error) {
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

// vOr mirrors vAnd: the right side is evaluated wherever the left is not
// already true.
type vOr struct {
	l, r VExpr
}

func (o *vOr) String() string { return fmt.Sprintf("(%s OR %s)", o.l.String(), o.r.String()) }

func (o *vOr) evalTri(e *env, b *Batch, sel []int, out []types.TriBool) error {
	if err := evalTriOf(o.l, e, b, sel, out); err != nil {
		return err
	}
	need := e.getSel(len(sel))
	for _, i := range sel {
		if out[i] != types.True {
			need = append(need, i)
		}
	}
	if len(need) == 0 {
		return nil
	}
	rt := e.getTri(b.N)
	if err := evalTriOf(o.r, e, b, need, rt); err != nil {
		return err
	}
	for _, i := range need {
		out[i] = out[i].Or(rt[i])
	}
	return nil
}

func (o *vOr) eval(e *env, b *Batch, sel []int) (Vector, error) {
	tri := e.getTri(b.N)
	if err := o.evalTri(e, b, sel, tri); err != nil {
		return nil, err
	}
	out := e.get(b.N)
	for _, i := range sel {
		out[i] = tri[i].ToValue()
	}
	return out, nil
}

// --- LIKE ---

type vLike struct {
	l, r VExpr
}

func (k *vLike) String() string { return fmt.Sprintf("(%s LIKE %s)", k.l.String(), k.r.String()) }

func (k *vLike) eval(e *env, b *Batch, sel []int) (Vector, error) {
	lv, err := k.l.eval(e, b, sel)
	if err != nil {
		return nil, err
	}
	rv, err := k.r.eval(e, b, sel)
	if err != nil {
		return nil, err
	}
	out := e.get(b.N)
	for _, i := range sel {
		t, err := types.Like(lv[i], rv[i])
		if err != nil {
			return nil, err
		}
		out[i] = t.ToValue()
	}
	return out, nil
}

// --- arithmetic ---

type vArith struct {
	op   string
	l, r VExpr
}

func (a *vArith) String() string { return fmt.Sprintf("(%s %s %s)", a.l.String(), a.op, a.r.String()) }

func (a *vArith) eval(e *env, b *Batch, sel []int) (Vector, error) {
	lv, err := a.l.eval(e, b, sel)
	if err != nil {
		return nil, err
	}
	rv, err := a.r.eval(e, b, sel)
	if err != nil {
		return nil, err
	}
	out := e.get(b.N)
	// Integer fast paths for the three total operators; everything else
	// (division, mixed types, NULLs, strings) goes through types.Arith.
	switch a.op {
	case "+":
		for _, i := range sel {
			l, r := lv[i], rv[i]
			if l.T == types.IntType && r.T == types.IntType {
				out[i] = types.NewInt(l.I + r.I)
				continue
			}
			v, err := types.Arith("+", l, r)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
	case "-":
		for _, i := range sel {
			l, r := lv[i], rv[i]
			if l.T == types.IntType && r.T == types.IntType {
				out[i] = types.NewInt(l.I - r.I)
				continue
			}
			v, err := types.Arith("-", l, r)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
	case "*":
		for _, i := range sel {
			l, r := lv[i], rv[i]
			if l.T == types.IntType && r.T == types.IntType {
				out[i] = types.NewInt(l.I * r.I)
				continue
			}
			v, err := types.Arith("*", l, r)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
	default:
		for _, i := range sel {
			v, err := types.Arith(a.op, lv[i], rv[i])
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
	}
	return out, nil
}

// --- scalar functions ---

// vFunc is the per-element kernel for the built-in scalar functions; the
// dispatch on the function name happens once per batch, not per row.
type vFunc struct {
	name string // uppercased: UPPER, LOWER, LENGTH, ABS
	x    VExpr
}

func (f *vFunc) String() string { return fmt.Sprintf("%s(%s)", f.name, f.x.String()) }

func (f *vFunc) eval(e *env, b *Batch, sel []int) (Vector, error) {
	xv, err := f.x.eval(e, b, sel)
	if err != nil {
		return nil, err
	}
	out := e.get(b.N)
	var fn func(types.Value) (types.Value, error)
	switch f.name {
	case "UPPER":
		fn = types.Upper
	case "LOWER":
		fn = types.Lower
	case "LENGTH":
		fn = types.Length
	case "ABS":
		fn = types.Abs
	default:
		return nil, fmt.Errorf("vexec: unknown scalar function %s", f.name)
	}
	for _, i := range sel {
		v, err := fn(xv[i])
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// --- CASE ---

// vWhen is one WHEN cond THEN result arm of a vectorized CASE.
type vWhen struct {
	cond   VExpr
	result VExpr
}

// vCase evaluates a searched CASE with the row evaluator's laziness
// translated to masks: each arm's condition runs only on the rows no
// earlier arm matched, and each arm's result runs only on the rows its
// condition selected — so a division that a row at a time CASE would have
// guarded stays guarded here, and error behavior matches the row executor.
type vCase struct {
	whens []vWhen
	els   VExpr // nil = ELSE NULL
}

func (c *vCase) String() string {
	var b strings.Builder
	b.WriteString("CASE")
	for _, w := range c.whens {
		fmt.Fprintf(&b, " WHEN %s THEN %s", w.cond.String(), w.result.String())
	}
	if c.els != nil {
		fmt.Fprintf(&b, " ELSE %s", c.els.String())
	}
	b.WriteString(" END")
	return b.String()
}

func (c *vCase) eval(e *env, b *Batch, sel []int) (Vector, error) {
	out := e.get(b.N)
	remaining := append(e.getSel(len(sel)), sel...)
	for _, w := range c.whens {
		if len(remaining) == 0 {
			break
		}
		tri := e.getTri(b.N)
		if err := evalTriOf(w.cond, e, b, remaining, tri); err != nil {
			return nil, err
		}
		matched := e.getSel(len(remaining))
		rest := e.getSel(len(remaining))
		for _, i := range remaining {
			if tri[i] == types.True {
				matched = append(matched, i)
			} else {
				rest = append(rest, i)
			}
		}
		if len(matched) > 0 {
			rv, err := w.result.eval(e, b, matched)
			if err != nil {
				return nil, err
			}
			for _, i := range matched {
				out[i] = rv[i]
			}
		}
		remaining = rest
	}
	if len(remaining) > 0 {
		if c.els != nil {
			ev, err := c.els.eval(e, b, remaining)
			if err != nil {
				return nil, err
			}
			for _, i := range remaining {
				out[i] = ev[i]
			}
		} else {
			for _, i := range remaining {
				out[i] = types.Null
			}
		}
	}
	return out, nil
}

// --- unary ---

type vUn struct {
	op string
	x  VExpr
}

func (u *vUn) String() string { return fmt.Sprintf("%s(%s)", u.op, u.x.String()) }

// evalTri lets NOT and the null tests participate in the truth-vector
// protocol. IS NULL / IS NOT NULL over a typed column read the null bitmap
// directly — no value is ever boxed; NOT negates its child's truth vector.
// Both reproduce the eval+TruthOf result exactly (the null tests yield only
// True/False; NOT's ToValue/TruthOf round-trip is the identity).
func (u *vUn) evalTri(e *env, b *Batch, sel []int, out []types.TriBool) error {
	switch u.op {
	case "NOT":
		if err := evalTriOf(u.x, e, b, sel, out); err != nil {
			return err
		}
		for _, i := range sel {
			out[i] = out[i].Not()
		}
		return nil
	case "ISNULL", "ISNOTNULL":
		want := u.op == "ISNULL"
		tv, err := evalTypedOf(u.x, e, b, sel)
		if err != nil {
			return err
		}
		if tv != nil {
			if tv.Nulls == nil {
				for _, i := range sel {
					out[i] = types.Tri(!want)
				}
			} else {
				for _, i := range sel {
					out[i] = types.Tri(tv.Nulls.Get(i) == want)
				}
			}
			return nil
		}
		xv, err := u.x.eval(e, b, sel)
		if err != nil {
			return err
		}
		for _, i := range sel {
			out[i] = types.Tri(xv[i].IsNull() == want)
		}
		return nil
	default:
		v, err := u.eval(e, b, sel)
		if err != nil {
			return err
		}
		for _, i := range sel {
			out[i] = types.TruthOf(v[i])
		}
		return nil
	}
}

func (u *vUn) eval(e *env, b *Batch, sel []int) (Vector, error) {
	switch u.op {
	case "ISNULL", "ISNOTNULL":
		want := u.op == "ISNULL"
		tv, err := evalTypedOf(u.x, e, b, sel)
		if err != nil {
			return nil, err
		}
		if tv != nil {
			out := e.get(b.N)
			if tv.Nulls == nil {
				for _, i := range sel {
					out[i] = types.NewBool(!want)
				}
			} else {
				for _, i := range sel {
					out[i] = types.NewBool(tv.Nulls.Get(i) == want)
				}
			}
			return out, nil
		}
	}
	xv, err := u.x.eval(e, b, sel)
	if err != nil {
		return nil, err
	}
	out := e.get(b.N)
	switch u.op {
	case "NOT":
		for _, i := range sel {
			out[i] = types.TruthOf(xv[i]).Not().ToValue()
		}
	case "-":
		for _, i := range sel {
			v, err := types.Neg(xv[i])
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
	case "ISNULL":
		for _, i := range sel {
			out[i] = types.NewBool(xv[i].IsNull())
		}
	case "ISNOTNULL":
		for _, i := range sel {
			out[i] = types.NewBool(!xv[i].IsNull())
		}
	default:
		return nil, fmt.Errorf("vexec: unknown unary operator %q", u.op)
	}
	return out, nil
}
