package exec

import (
	"fmt"
	"strings"

	"xnf/internal/types"
)

// NLJoinPlan is a nested-loop join. For every left row it re-opens the
// right subtree with the left row appended to the parameter frame, which
// is how correlated access paths (index lookups keyed by the outer row)
// receive their bindings.
type NLJoinPlan struct {
	Left, Right Node
	Pred        Expr // evaluated over the concatenated row
	// RightParams, when non-nil, are evaluated against the current left
	// row and passed as the right subtree's parameter frame (appended to
	// the incoming frame). When nil the right side is re-opened with the
	// incoming frame unchanged.
	RightParams []Expr
}

// Open implements Node.
func (j *NLJoinPlan) Open(ctx *Ctx, params types.Row) (Iter, error) {
	left, err := j.Left.Open(ctx, params)
	if err != nil {
		return nil, err
	}
	return &nlJoinIter{NLJoinPlan: j, left: left, params: params}, nil
}

type nlJoinIter struct {
	*NLJoinPlan
	left, right Iter
	params      types.Row
	curLeft     types.Row
	iter        int
}

func (j *nlJoinIter) Next(ctx *Ctx) (types.Row, error) {
	env := Env{Params: j.params, Ctx: ctx}
	for {
		// The scans under a cross join are often spooled (materialized
		// once, replayed from memory), so the scan-level interrupt poll
		// never fires during the quadratic replay. Poll here too: this
		// loop is the hot path of every nested-loop shape.
		j.iter++
		if j.iter&1023 == 0 {
			if err := ctx.Interrupted(); err != nil {
				return nil, err
			}
		}
		if j.curLeft == nil {
			left, err := j.left.Next(ctx)
			if err != nil || left == nil {
				return nil, err
			}
			j.curLeft = left
			rp := j.params
			if j.RightParams != nil {
				env.Row = left
				frame := make(types.Row, 0, len(j.params)+len(j.RightParams))
				frame = append(frame, j.params...)
				for _, e := range j.RightParams {
					v, err := e.Eval(&env)
					if err != nil {
						return nil, err
					}
					frame = append(frame, v)
				}
				rp = frame
			}
			if j.right != nil {
				right := j.right
				j.right = nil
				if err := right.Close(ctx); err != nil {
					return nil, err
				}
			}
			right, err := j.Right.Open(ctx, rp)
			if err != nil {
				return nil, err
			}
			j.right = right
		}
		right, err := j.right.Next(ctx)
		if err != nil {
			return nil, err
		}
		if right == nil {
			j.curLeft = nil
			continue
		}
		joined := j.curLeft.Concat(right)
		env.Row = joined
		ok, err := EvalPred(j.Pred, &env)
		if err != nil {
			return nil, err
		}
		if ok {
			return joined, nil
		}
	}
}

func (j *nlJoinIter) Close(ctx *Ctx) error { return closeAll(ctx, j.left, j.right) }

// Columns implements Node.
func (j *NLJoinPlan) Columns() []Column {
	return append(append([]Column{}, j.Left.Columns()...), j.Right.Columns()...)
}

// Explain implements Node.
func (j *NLJoinPlan) Explain(indent int) string {
	p := ""
	if j.Pred != nil {
		p = " on " + j.Pred.String()
	}
	rebind := ""
	if j.RightParams != nil {
		keys := make([]string, len(j.RightParams))
		for i, e := range j.RightParams {
			keys[i] = e.String()
		}
		rebind = fmt.Sprintf(" rebind=(%s)", strings.Join(keys, ", "))
	}
	return fmt.Sprintf("%sNLJoin%s%s\n%s%s", pad(indent), p, rebind,
		j.Left.Explain(indent+1), j.Right.Explain(indent+1))
}

// HashJoinPlan is an equi-join: the right (build) side is hashed on its
// keys, the left (probe) side streams.
type HashJoinPlan struct {
	Left, Right Node
	LeftKeys    []Expr // over left rows
	RightKeys   []Expr // over right rows
	Residual    Expr   // over concatenated rows
}

// Open implements Node: the build side is hashed eagerly, then the probe
// side is opened.
func (j *HashJoinPlan) Open(ctx *Ctx, params types.Row) (Iter, error) {
	right, err := j.Right.Open(ctx, params)
	if err != nil {
		return nil, err
	}
	it := &hashJoinIter{HashJoinPlan: j, params: params, table: make(map[uint64][]types.Row)}
	env := Env{Params: params, Ctx: ctx}
	built := int64(0)
	for {
		row, err := right.Next(ctx)
		if err != nil {
			right.Close(ctx)
			return nil, err
		}
		if row == nil {
			break
		}
		env.Row = row
		key, null, err := evalKey(j.RightKeys, &env)
		if err != nil {
			right.Close(ctx)
			return nil, err
		}
		if null {
			continue // NULL keys never join
		}
		h := key.HashAll()
		it.table[h] = append(it.table[h], append(key, row...))
		built++
	}
	add(&ctx.Counters.HashBuilds, 1)
	add(&ctx.Counters.JoinBuildRows, built)
	if err := right.Close(ctx); err != nil {
		return nil, err
	}
	if it.left, err = j.Left.Open(ctx, params); err != nil {
		return nil, err
	}
	return it, nil
}

// evalKey evaluates join or subplan key expressions; null reports a NULL
// among the values.
func evalKey(keys []Expr, env *Env) (key types.Row, null bool, err error) {
	key = make(types.Row, len(keys))
	for i, k := range keys {
		v, err := k.Eval(env)
		if err != nil {
			return nil, false, err
		}
		null = null || v.IsNull()
		key[i] = v
	}
	return key, null, nil
}

type hashJoinIter struct {
	*HashJoinPlan
	left    Iter
	params  types.Row
	table   map[uint64][]types.Row
	curLeft types.Row
	curKey  types.Row
	bucket  []types.Row
	bpos    int
}

func (j *hashJoinIter) Next(ctx *Ctx) (types.Row, error) {
	env := Env{Params: j.params, Ctx: ctx}
	nkeys := len(j.RightKeys)
	for {
		for j.bpos < len(j.bucket) {
			entry := j.bucket[j.bpos]
			j.bpos++
			ekey, erow := entry[:nkeys], entry[nkeys:]
			if !types.EqualRows(ekey, j.curKey) {
				continue
			}
			joined := j.curLeft.Concat(erow)
			env.Row = joined
			ok, err := EvalPred(j.Residual, &env)
			if err != nil {
				return nil, err
			}
			if ok {
				return joined, nil
			}
		}
		left, err := j.left.Next(ctx)
		if err != nil || left == nil {
			return nil, err
		}
		env.Row = left
		key, null, err := evalKey(j.LeftKeys, &env)
		if err != nil {
			return nil, err
		}
		if null {
			continue
		}
		add(&ctx.Counters.JoinProbeRows, 1)
		j.curLeft = left
		j.curKey = key
		j.bucket = j.table[key.HashAll()]
		j.bpos = 0
	}
}

func (j *hashJoinIter) Close(ctx *Ctx) error {
	j.table = nil
	j.bucket = nil
	return j.left.Close(ctx)
}

// Columns implements Node.
func (j *HashJoinPlan) Columns() []Column {
	return append(append([]Column{}, j.Left.Columns()...), j.Right.Columns()...)
}

// Explain implements Node.
func (j *HashJoinPlan) Explain(indent int) string {
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
	return fmt.Sprintf("%sHashJoin (%s)=(%s)%s\n%s%s", pad(indent),
		strings.Join(lk, ", "), strings.Join(rk, ", "), res,
		j.Left.Explain(indent+1), j.Right.Explain(indent+1))
}
