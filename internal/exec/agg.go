package exec

import (
	"fmt"
	"sort"
	"strings"

	"xnf/internal/types"
)

// AggSpec describes one aggregate computed by an AggPlan.
type AggSpec struct {
	Name     string // COUNT, SUM, AVG, MIN, MAX
	Star     bool   // COUNT(*)
	Distinct bool
	Arg      Expr // nil for COUNT(*)
}

// AggPlan is a hash aggregation: it groups its input on the group
// expressions and computes the aggregate specs per group. With no group
// expressions it is a global aggregate producing exactly one row even for
// empty input (SQL semantics).
type AggPlan struct {
	Child  Plan
	Groups []Expr
	Aggs   []AggSpec
	Cols   []Column

	out []types.Row
	pos int
}

// AggState accumulates one aggregate for one group: the SQL folding rules
// (NULL skipping, DISTINCT dedup, AVG as SUM/COUNT) in one place. Both the
// row executor's AggPlan and the batch engine's HashAggBatch fold through
// it, so the two executors cannot drift.
type AggState struct {
	name     string
	star     bool
	distinct bool
	count    int64
	sum      types.Value
	min      types.Value
	max      types.Value
	started  bool
	seen     map[uint64][]types.Value // for DISTINCT

	// sums, mins and maxes say which running values the function reads;
	// only those are accumulated (a running "+" over strings would be
	// concatenation, quadratic in the group size).
	sums, mins, maxes bool
}

// NewAggState returns a fresh accumulator for one aggregate function.
func NewAggState(name string, star, distinct bool) *AggState {
	s := &AggState{name: strings.ToUpper(name), star: star, distinct: distinct}
	s.sums = s.name == "SUM" || s.name == "AVG"
	s.mins = s.name == "MIN"
	s.maxes = s.name == "MAX"
	if distinct {
		s.seen = make(map[uint64][]types.Value)
	}
	return s
}

// Add folds one input value (ignored for COUNT(*), which counts rows).
func (s *AggState) Add(v types.Value) {
	if s.star {
		s.count++
		return
	}
	if v.IsNull() {
		return // aggregates ignore NULLs
	}
	if s.distinct {
		h := v.Hash()
		for _, prev := range s.seen[h] {
			if types.Equal(prev, v) {
				return
			}
		}
		s.seen[h] = append(s.seen[h], v)
	}
	s.count++
	if !s.started {
		s.sum, s.min, s.max = v, v, v
		s.started = true
		return
	}
	if s.sums {
		if sum, err := types.Arith("+", s.sum, v); err == nil {
			s.sum = sum
		}
	}
	if s.mins && types.Compare(v, s.min) < 0 {
		s.min = v
	}
	if s.maxes && types.Compare(v, s.max) > 0 {
		s.max = v
	}
}

// AddInt folds one non-NULL INTEGER without boxing — the batch engine's
// typed aggregate kernels call it per element. Semantics are exactly
// Add(types.NewInt(v)): the inline sum matches types.Arith's int+int and
// float+int rules, and min/max keep the total order of types.Compare.
func (s *AggState) AddInt(v int64) {
	if s.star {
		s.count++
		return
	}
	if s.distinct {
		s.Add(types.NewInt(v))
		return
	}
	s.count++
	if !s.started {
		val := types.NewInt(v)
		s.sum, s.min, s.max = val, val, val
		s.started = true
		return
	}
	if s.sums {
		switch s.sum.T {
		case types.IntType:
			s.sum.I += v
		case types.FloatType:
			s.sum.F += float64(v)
		default:
			if sum, err := types.Arith("+", s.sum, types.NewInt(v)); err == nil {
				s.sum = sum
			}
		}
	}
	if s.mins {
		if s.min.T == types.IntType {
			if v < s.min.I {
				s.min.I = v
			}
		} else if types.Compare(types.NewInt(v), s.min) < 0 {
			s.min = types.NewInt(v)
		}
	}
	if s.maxes {
		if s.max.T == types.IntType {
			if v > s.max.I {
				s.max.I = v
			}
		} else if types.Compare(types.NewInt(v), s.max) > 0 {
			s.max = types.NewInt(v)
		}
	}
}

// AddFloat is AddInt's FLOAT counterpart: exactly Add(types.NewFloat(f)).
func (s *AggState) AddFloat(f float64) {
	if s.star {
		s.count++
		return
	}
	if s.distinct {
		s.Add(types.NewFloat(f))
		return
	}
	s.count++
	if !s.started {
		val := types.NewFloat(f)
		s.sum, s.min, s.max = val, val, val
		s.started = true
		return
	}
	if s.sums {
		switch s.sum.T {
		case types.FloatType:
			s.sum.F += f
		case types.IntType:
			// Arith promotes int+float to FLOAT; mirror it.
			s.sum = types.NewFloat(float64(s.sum.I) + f)
		default:
			if sum, err := types.Arith("+", s.sum, types.NewFloat(f)); err == nil {
				s.sum = sum
			}
		}
	}
	if s.mins {
		if s.min.T == types.FloatType {
			if f < s.min.F {
				s.min.F = f
			}
		} else if types.Compare(types.NewFloat(f), s.min) < 0 {
			s.min = types.NewFloat(f)
		}
	}
	if s.maxes {
		if s.max.T == types.FloatType {
			if f > s.max.F {
				s.max.F = f
			}
		} else if types.Compare(types.NewFloat(f), s.max) > 0 {
			s.max = types.NewFloat(f)
		}
	}
}

// Merge folds another accumulator of the same aggregate spec into s — the
// combine step of morsel-parallel aggregation, where each worker folds its
// morsels into private states that are merged at the end. DISTINCT states
// merge by re-adding the other side's distinct values, which unions the
// dedup sets and recomputes the derived count/sum/min/max in one pass.
func (s *AggState) Merge(o *AggState) {
	if s.star {
		s.count += o.count
		return
	}
	if s.distinct {
		// Map iteration order is nondeterministic; fold the other side's
		// distinct values in sorted order so floating-point sums stay
		// bit-reproducible across runs (the parallel scan's guarantee).
		vals := make([]types.Value, 0, len(o.seen))
		for _, vs := range o.seen {
			vals = append(vals, vs...)
		}
		sort.Slice(vals, func(i, j int) bool { return types.Compare(vals[i], vals[j]) < 0 })
		for _, v := range vals {
			s.Add(v)
		}
		return
	}
	s.count += o.count
	if !o.started {
		return
	}
	if !s.started {
		s.sum, s.min, s.max = o.sum, o.min, o.max
		s.started = true
		return
	}
	if s.sums {
		if sum, err := types.Arith("+", s.sum, o.sum); err == nil {
			s.sum = sum
		}
	}
	if s.mins && types.Compare(o.min, s.min) < 0 {
		s.min = o.min
	}
	if s.maxes && types.Compare(o.max, s.max) > 0 {
		s.max = o.max
	}
}

// Result finalizes the aggregate.
func (s *AggState) Result() types.Value {
	switch s.name {
	case "COUNT":
		return types.NewInt(s.count)
	case "SUM":
		if !s.started {
			return types.Null
		}
		return s.sum
	case "AVG":
		if !s.started || s.count == 0 {
			return types.Null
		}
		return types.NewFloat(s.sum.Float() / float64(s.count))
	case "MIN":
		if !s.started {
			return types.Null
		}
		return s.min
	case "MAX":
		if !s.started {
			return types.Null
		}
		return s.max
	default:
		return types.Null
	}
}

// Open implements Plan; the aggregation is computed eagerly.
func (a *AggPlan) Open(ctx *Ctx, params types.Row) error {
	if err := a.Child.Open(ctx, params); err != nil {
		return err
	}
	env := Env{Params: params, Ctx: ctx}
	type group struct {
		key    types.Row
		states []*AggState
	}
	groups := make(map[uint64][]*group)
	var order []*group // deterministic output order: first appearance
	newStates := func() []*AggState {
		states := make([]*AggState, len(a.Aggs))
		for i := range a.Aggs {
			states[i] = NewAggState(a.Aggs[i].Name, a.Aggs[i].Star, a.Aggs[i].Distinct)
		}
		return states
	}
	for {
		row, err := a.Child.Next(ctx)
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		env.Row = row
		key := make(types.Row, len(a.Groups))
		for i, g := range a.Groups {
			v, err := g.Eval(&env)
			if err != nil {
				return err
			}
			key[i] = v
		}
		h := hashKey(key)
		var grp *group
		for _, g := range groups[h] {
			if types.EqualRows(g.key, key) {
				grp = g
				break
			}
		}
		if grp == nil {
			grp = &group{key: key, states: newStates()}
			groups[h] = append(groups[h], grp)
			order = append(order, grp)
		}
		for i, spec := range a.Aggs {
			var v types.Value
			if !spec.Star {
				val, err := spec.Arg.Eval(&env)
				if err != nil {
					return err
				}
				v = val
			}
			grp.states[i].Add(v)
		}
	}
	if err := a.Child.Close(ctx); err != nil {
		return err
	}
	if len(order) == 0 && len(a.Groups) == 0 {
		// Global aggregate over empty input yields one row.
		order = append(order, &group{states: newStates()})
	}
	a.out = a.out[:0]
	for _, g := range order {
		row := make(types.Row, 0, len(g.key)+len(g.states))
		row = append(row, g.key...)
		for _, st := range g.states {
			row = append(row, st.Result())
		}
		a.out = append(a.out, row)
	}
	a.pos = 0
	return nil
}

// Next implements Plan.
func (a *AggPlan) Next(*Ctx) (types.Row, error) {
	if a.pos >= len(a.out) {
		return nil, nil
	}
	r := a.out[a.pos]
	a.pos++
	return r, nil
}

// Close implements Plan.
func (a *AggPlan) Close(*Ctx) error {
	a.out = nil
	return nil
}

// Columns implements Plan.
func (a *AggPlan) Columns() []Column { return a.Cols }

// Explain implements Plan.
func (a *AggPlan) Explain(indent int) string {
	gs := make([]string, len(a.Groups))
	for i, g := range a.Groups {
		gs[i] = g.String()
	}
	as := make([]string, len(a.Aggs))
	for i, s := range a.Aggs {
		if s.Star {
			as[i] = s.Name + "(*)"
		} else if s.Distinct {
			as[i] = fmt.Sprintf("%s(DISTINCT %s)", s.Name, s.Arg.String())
		} else {
			as[i] = fmt.Sprintf("%s(%s)", s.Name, s.Arg.String())
		}
	}
	return fmt.Sprintf("%sAgg groups=(%s) aggs=(%s)\n%s", pad(indent),
		strings.Join(gs, ", "), strings.Join(as, ", "), a.Child.Explain(indent+1))
}
