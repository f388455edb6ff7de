package exec

import (
	"fmt"
	"strings"

	"xnf/internal/types"
)

// SubplanMode distinguishes how a nested plan is used in an expression.
type SubplanMode uint8

// The subplan modes.
const (
	ModeExists SubplanMode = iota
	ModeAnti
	ModeScalar
)

// Subplan evaluates a nested plan inside an expression: EXISTS, NOT
// EXISTS, IN, NOT IN and scalar subqueries. Two strategies exist:
//
//   - Rerun: the plan is opened afresh per evaluation with Params bound
//     from the caller's row — the naive correlated strategy the paper's Sect.
//     3.2 warns about. It is the fallback for arbitrary correlation and
//     the explicit target of the Fig. 3 benchmark with rewriting disabled.
//   - Hashed: the plan must be uncorrelated; its result is materialized
//     once per execution context, hashed on BuildKeys, and probed with
//     ProbeKeys — a hash semijoin.
//
// ProbeKeys/BuildKeys carry the equality linking outer and inner rows;
// both empty means a bare EXISTS. InStyle marks IN-derived subplans whose
// NULL semantics differ from EXISTS under three-valued logic.
type Subplan struct {
	ID      int
	Mode    SubplanMode
	Plan    Node
	Params  []Expr // evaluated in the caller's env; become the plan's frame
	Hashed  bool
	Probe   []Expr // over caller env
	Build   []Expr // over the subplan's output row
	InStyle bool
}

// subplanTable is the materialized+hashed form of an uncorrelated subplan.
type subplanTable struct {
	buckets map[uint64][]types.Row // key ++ row
	nkeys   int
	hasNull bool
	total   int
}

// Eval implements Expr.
func (s *Subplan) Eval(env *Env) (types.Value, error) {
	if s.Mode == ModeScalar {
		return s.evalScalar(env)
	}
	tri, err := s.evalExists(env)
	if err != nil {
		return types.Null, err
	}
	if s.Mode == ModeAnti {
		tri = tri.Not()
	}
	return tri.ToValue(), nil
}

func (s *Subplan) evalExists(env *Env) (types.TriBool, error) {
	probe, probeNull, err := evalKey(s.Probe, env)
	if err != nil {
		return types.Unknown, err
	}
	var matched, innerNull bool
	var total int
	if s.Hashed {
		tbl, err := s.table(env)
		if err != nil {
			return types.Unknown, err
		}
		total = tbl.total
		innerNull = tbl.hasNull
		if !probeNull && total > 0 {
			if len(probe) == 0 {
				matched = total > 0
			} else {
				for _, entry := range tbl.buckets[probe.HashAll()] {
					if types.EqualRows(entry[:tbl.nkeys], probe) {
						matched = true
						break
					}
				}
			}
		}
	} else {
		add(&env.Ctx.Counters.SubplanRuns, 1)
		frame, err := s.evalFrame(env)
		if err != nil {
			return types.Unknown, err
		}
		it, err := s.Plan.Open(env.Ctx, frame)
		if err != nil {
			return types.Unknown, err
		}
		defer it.Close(env.Ctx)
		for {
			row, err := it.Next(env.Ctx)
			if err != nil {
				return types.Unknown, err
			}
			if row == nil {
				break
			}
			total++
			if len(s.Build) == 0 {
				matched = true
				break
			}
			key, keyNull, err := evalKey(s.Build, &Env{Row: row, Params: frame, Ctx: env.Ctx})
			if err != nil {
				return types.Unknown, err
			}
			if keyNull {
				innerNull = true
				continue
			}
			if !probeNull && types.EqualRows(key, probe) {
				matched = true
				if !s.InStyle {
					break
				}
				break
			}
		}
	}
	switch {
	case matched:
		return types.True, nil
	case s.InStyle && total > 0 && (probeNull || innerNull):
		// x IN (…) with NULL on either side and no definite match is
		// UNKNOWN, which matters under the NOT of NOT IN.
		return types.Unknown, nil
	default:
		return types.False, nil
	}
}

func (s *Subplan) evalScalar(env *Env) (types.Value, error) {
	if s.Hashed {
		tbl, err := s.table(env)
		if err != nil {
			return types.Null, err
		}
		probe, probeNull, err := evalKey(s.Probe, env)
		if err != nil {
			return types.Null, err
		}
		if probeNull {
			return types.Null, nil
		}
		var found *types.Row
		var count int
		if len(probe) == 0 {
			for _, bucket := range tbl.buckets {
				for i := range bucket {
					count++
					if found == nil {
						r := bucket[i][tbl.nkeys:]
						found = &r
					}
				}
			}
		} else {
			for _, entry := range tbl.buckets[probe.HashAll()] {
				if types.EqualRows(entry[:tbl.nkeys], probe) {
					count++
					if found == nil {
						r := entry[tbl.nkeys:]
						found = &r
					}
				}
			}
		}
		if count > 1 {
			return types.Null, fmt.Errorf("exec: scalar subquery returned %d rows", count)
		}
		if found == nil {
			return types.Null, nil
		}
		return (*found)[0], nil
	}
	add(&env.Ctx.Counters.SubplanRuns, 1)
	frame, err := s.evalFrame(env)
	if err != nil {
		return types.Null, err
	}
	it, err := s.Plan.Open(env.Ctx, frame)
	if err != nil {
		return types.Null, err
	}
	defer it.Close(env.Ctx)
	first, err := it.Next(env.Ctx)
	if err != nil {
		return types.Null, err
	}
	if first == nil {
		return types.Null, nil
	}
	second, err := it.Next(env.Ctx)
	if err != nil {
		return types.Null, err
	}
	if second != nil {
		return types.Null, fmt.Errorf("exec: scalar subquery returned more than one row")
	}
	return first[0], nil
}

// table returns (building on first use) the hashed materialization; the
// build happens once per execution context even under concurrency.
func (s *Subplan) table(env *Env) (*subplanTable, error) {
	tbl, err := env.Ctx.Once(OnceKey{Kind: "subplan", ID: s.ID}, func() (any, error) {
		tbl := &subplanTable{buckets: make(map[uint64][]types.Row), nkeys: len(s.Build)}
		// Hashed subplans are uncorrelated per-row, but may carry statement
		// placeholders: the frame is execution-constant, so evaluating it
		// from the first caller is correct for every consumer of the entry.
		frame, err := s.evalFrame(env)
		if err != nil {
			return nil, err
		}
		it, err := s.Plan.Open(env.Ctx, frame)
		if err != nil {
			return nil, err
		}
		defer it.Close(env.Ctx)
		for {
			row, err := it.Next(env.Ctx)
			if err != nil {
				return nil, err
			}
			if row == nil {
				break
			}
			tbl.total++
			key, keyNull, err := evalKey(s.Build, &Env{Row: row, Params: frame, Ctx: env.Ctx})
			if err != nil {
				return nil, err
			}
			if keyNull {
				tbl.hasNull = true
				continue
			}
			tbl.buckets[key.HashAll()] = append(tbl.buckets[key.HashAll()], append(key, row...))
		}
		add(&env.Ctx.Counters.HashBuilds, 1)
		return tbl, nil
	})
	if err != nil {
		return nil, err
	}
	return tbl.(*subplanTable), nil
}

func (s *Subplan) evalFrame(env *Env) (types.Row, error) {
	frame := make(types.Row, len(s.Params))
	for i, p := range s.Params {
		v, err := p.Eval(env)
		if err != nil {
			return nil, err
		}
		frame[i] = v
	}
	return frame, nil
}

func (s *Subplan) String() string {
	mode := map[SubplanMode]string{ModeExists: "EXISTS", ModeAnti: "NOT-EXISTS", ModeScalar: "SCALAR"}[s.Mode]
	strat := "rerun"
	if s.Hashed {
		strat = "hashed"
	}
	var keys string
	if len(s.Probe) > 0 {
		ps := make([]string, len(s.Probe))
		for i, p := range s.Probe {
			ps[i] = p.String()
		}
		keys = " probe=(" + strings.Join(ps, ", ") + ")"
	}
	return fmt.Sprintf("%s[%s #%d%s]", mode, strat, s.ID, keys)
}

// ExplainSubplans renders the nested plans referenced by an expression
// tree (used by EXPLAIN output).
func ExplainSubplans(e Expr, indent int) string {
	var b strings.Builder
	var walk func(Expr)
	walk = func(x Expr) {
		switch n := x.(type) {
		case *Subplan:
			fmt.Fprintf(&b, "%ssubplan #%d:\n%s", pad(indent), n.ID, n.Plan.Explain(indent+1))
		case *Bin:
			walk(n.L)
			walk(n.R)
		case *Un:
			walk(n.X)
		case *ScalarFunc:
			for _, a := range n.Args {
				walk(a)
			}
		case *CaseExpr:
			for _, w := range n.Whens {
				walk(w.Cond)
				walk(w.Result)
			}
			if n.Else != nil {
				walk(n.Else)
			}
		}
	}
	walk(e)
	return b.String()
}
