package core

import (
	"fmt"
	"strings"

	"xnf/internal/exec"
	"xnf/internal/opt"
	"xnf/internal/qgm"
	"xnf/internal/semantics"
	"xnf/internal/types"
)

// fixpoint is the reachability operator of a cyclic CO (Sect. 2: "An XNF
// query may also specify a recursive CO being identified by a cycle in the
// query's schema graph"). Its inputs are the *local* definitions of every
// component and connection; reachability is a breadth-first fixpoint from
// the root tuples along the connections. One fixpoint is shared, read-only,
// by every output template of the CO.
type fixpoint struct {
	sets   []localSet // components first, then connections
	outSet []int      // per output, the index of its local set
}

// localSet is one component or connection evaluated over its local
// definition.
type localSet struct {
	name string
	box  *qgm.Box
	rel  bool

	// Components: the key ordinals, and whether the set seeds the fixpoint.
	keyCols []int
	root    bool

	// Connections: the parent and child components (indexes into sets) and
	// the tuple layout, parent keys first, then each child's keys.
	parent    int
	children  []int
	parentKey []int
	childKeys [][]int
}

// buildRecursive prepares the fixpoint of a cyclic CO. The semantic-phase
// boxes are used unmodified (no reachability rewrite); the Top box is
// rebuilt to reference every TAKEn output so compilation sees them.
func buildRecursive(g *qgm.Graph, xnfBox *qgm.Box, takes []semantics.TakeSpec) (*fixpoint, []Output, error) {
	for _, t := range takes {
		if len(t.Columns) > 0 {
			return nil, nil, fmt.Errorf("core: TAKE column projection is not supported on recursive COs")
		}
	}
	f := &fixpoint{}
	isChild := make(map[string]bool)
	for _, o := range xnfBox.XNFOutputs {
		for _, ch := range o.Children {
			isChild[up(ch)] = true
		}
	}
	index := make(map[string]int)
	anyRoot := false
	for _, o := range xnfBox.XNFOutputs {
		if !o.IsRel {
			root := !isChild[up(o.Name)]
			anyRoot = anyRoot || root
			index[up(o.Name)] = len(f.sets)
			f.sets = append(f.sets, localSet{name: o.Name, box: o.Box, keyCols: semantics.ComponentKeyOrds(o.Box), root: root})
		}
	}
	if !anyRoot {
		// A pure cycle has no in-degree-zero node; the first component
		// anchors the CO (documented convention).
		f.sets[0].root = true
	}
	for _, o := range xnfBox.XNFOutputs {
		if !o.IsRel {
			continue
		}
		rs := localSet{name: o.Name, box: o.Box, rel: true, parent: index[up(o.Parent)]}
		at := len(f.sets[rs.parent].keyCols)
		rs.parentKey = seq(0, at)
		for _, ch := range o.Children {
			ci := index[up(ch)]
			rs.children = append(rs.children, ci)
			rs.childKeys = append(rs.childKeys, seq(at, len(f.sets[ci].keyCols)))
			at += len(f.sets[ci].keyCols)
		}
		if at != len(o.Box.Head) {
			return nil, nil, fmt.Errorf("core: recursive relationship %s: head arity mismatch", o.Name)
		}
		index[up(o.Name)] = len(f.sets)
		f.sets = append(f.sets, rs)
	}

	top := g.NewBox(qgm.Top, "")
	top.Limit = -1
	var outs []Output
	for _, t := range takes {
		o := t.Output
		q := g.NewQuant(top, qgm.ForEach, o.Name, o.Box)
		top.Outputs = append(top.Outputs, qgm.TopOutput{Name: o.Name, CompID: len(outs), Quant: q, IsRel: o.IsRel,
			Parent: o.Parent, Children: o.Children, Role: o.Role})
		set := f.sets[index[up(o.Name)]]
		outs = append(outs, Output{Name: o.Name, CompID: len(outs), IsRel: o.IsRel,
			Parent: o.Parent, Children: o.Children, Role: o.Role, Box: o.Box,
			KeyCols: set.keyCols, ParentKeyOrds: set.parentKey, ChildKeyOrds: set.childKeys})
		f.outSet = append(f.outSet, index[up(o.Name)])
	}
	g.TopBox = top
	g.GC()
	fillOutputMeta(outs, nil)
	return f, outs, nil
}

func seq(from, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = from + i
	}
	return out
}

// kind names a local set in errors and EXPLAIN text.
func (s *localSet) kind() string {
	if s.rel {
		return "relationship " + s.name
	}
	return "component " + s.name
}

// templates compiles one plan template per output of a recursive CO: a
// fixpointPlan over every local set, each set behind a spool so it
// materializes once per execution context whichever output opens first.
func (f *fixpoint) templates(comp *opt.Compiler) ([]exec.Plan, error) {
	inputs := make([]exec.Node, len(f.sets))
	for i, s := range f.sets {
		plan, _, err := comp.CompileBox(s.box, nil)
		if err != nil {
			return nil, fmt.Errorf("core: recursive %s: %w", s.kind(), err)
		}
		// A box the compiler already spools (a component that connections
		// also read) keeps its one spool: a second with the same ID would
		// wait on itself.
		if sp, ok := plan.(*exec.SpoolPlan); !ok || sp.ID != s.box.ID {
			plan = &exec.SpoolPlan{ID: s.box.ID, Child: plan}
		}
		inputs[i] = plan
	}
	plans := make([]exec.Plan, len(f.outSet))
	for i, set := range f.outSet {
		plans[i] = exec.NewPlan(&fixpointPlan{fix: f, set: set, inputs: inputs})
	}
	return plans, nil
}

// run materializes the local sets over ctx, seeds the roots, propagates
// reachability along the connections and returns, per local set, its rows
// that belong to the CO in local order: reached components, and
// connections whose parent was reached.
func (f *fixpoint) run(ctx *exec.Ctx, inputs []exec.Node) ([][]types.Row, error) {
	local := make([][]types.Row, len(inputs))
	for i, in := range inputs {
		rows, err := exec.Collect(ctx, in)
		if err != nil {
			return nil, fmt.Errorf("core: recursive %s: %w", f.sets[i].kind(), err)
		}
		local[i] = rows
	}
	// Per component: the keys of its local set and the keys reached; per
	// connection: its rows by parent key.
	exists := make([]map[string]bool, len(f.sets))
	reach := make([]map[string]bool, len(f.sets))
	byParent := make([]map[string][]types.Row, len(f.sets))
	for i, s := range f.sets {
		if s.rel {
			byParent[i] = make(map[string][]types.Row)
			for _, r := range local[i] {
				k := r.Key(s.parentKey)
				byParent[i][k] = append(byParent[i][k], r)
			}
			continue
		}
		exists[i] = make(map[string]bool, len(local[i]))
		reach[i] = make(map[string]bool)
		for _, r := range local[i] {
			exists[i][r.Key(s.keyCols)] = true
		}
	}

	// Seed roots and propagate (breadth-first; terminates because the
	// reachable sets only grow within finite local populations). A child
	// key must exist in the child's local set to be reached.
	type item struct {
		set int
		key string
	}
	var queue []item
	for i, s := range f.sets {
		if !s.root {
			continue
		}
		for _, r := range local[i] {
			if k := r.Key(s.keyCols); !reach[i][k] {
				reach[i][k] = true
				queue = append(queue, item{set: i, key: k})
			}
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for ri, rs := range f.sets {
			if !rs.rel || rs.parent != cur.set {
				continue
			}
			for _, row := range byParent[ri][cur.key] {
				for ci, ch := range rs.children {
					if ck := row.Key(rs.childKeys[ci]); exists[ch][ck] && !reach[ch][ck] {
						reach[ch][ck] = true
						queue = append(queue, item{set: ch, key: ck})
					}
				}
			}
		}
	}

	out := make([][]types.Row, len(local))
	for i, s := range f.sets {
		owner, key := i, s.keyCols
		if s.rel {
			owner, key = s.parent, s.parentKey
		}
		for _, r := range local[i] {
			if reach[owner][r.Key(key)] {
				out[i] = append(out[i], r)
			}
		}
	}
	return out, nil
}

// fixpointPlan is the plan template of one output of a recursive CO: the
// rows of its local set that the CO's fixpoint reaches, in local order.
// Every output's plan holds all local sets, and the fixpoint runs once per
// execution context (Ctx.Once, numbered by its first local set's box), so
// the outputs of one stream open in any order and pay for one fixpoint.
type fixpointPlan struct {
	fix    *fixpoint
	set    int
	inputs []exec.Node
}

// Open implements exec.Node.
func (p *fixpointPlan) Open(ctx *exec.Ctx, _ types.Row) (exec.Iter, error) {
	key := exec.OnceKey{Kind: "fixpoint", ID: p.fix.sets[0].box.ID}
	sets, err := ctx.Once(key, func() (any, error) { return p.fix.run(ctx, p.inputs) })
	if err != nil {
		return nil, err
	}
	return exec.Replay(sets.([][]types.Row)[p.set]), nil
}

// Columns implements exec.Node.
func (p *fixpointPlan) Columns() []exec.Column { return p.inputs[p.set].Columns() }

// Explain implements exec.Node: the output's local set, then every local
// set the fixpoint reads.
func (p *fixpointPlan) Explain(indent int) string {
	pad := strings.Repeat("  ", indent)
	var b strings.Builder
	fmt.Fprintf(&b, "%sFixpoint %s\n", pad, p.fix.sets[p.set].name)
	for i, in := range p.inputs {
		fmt.Fprintf(&b, "%s  %s\n%s", pad, p.fix.sets[i].kind(), in.Explain(indent+2))
	}
	return b.String()
}
