// Package core implements the paper's primary contribution: the XNF
// semantic rewrite (Sect. 4.2) that compiles a composite-object query down
// to plain NF QGM, plus the CO executor and the derivation-cost
// analyzer behind Table 1.
//
// The rewrite removes the XNF operator box in two steps, exactly as the
// paper describes:
//
//  1. every non-root component table is wrapped in a reachability box: a
//     Select whose predicate demands, for each incoming relationship, the
//     existence of a matching tuple in the relationship's parent-side join
//     (Fig. 5). Components with several incoming relationships get the
//     disjunction. The parent-side joins are shared boxes, so deriving a
//     parent once serves its own output, every child's reachability and
//     the connection output — the common-subexpression property of
//     Table 1;
//
//  2. the TAKE projection becomes a multi-output Top whose outputs are the
//     component boxes plus connection boxes. Relationships whose predicate
//     equates the parent key with child columns ship no connection table
//     at all — the child tuples already carry the parent key (the output
//     optimization of Sect. 4.2's footnote) — and the cache reconstructs
//     the connections locally.
//
// Cyclic schema graphs (recursive COs, Sect. 2) cannot be compiled to a
// finite join DAG; Compile marks them, and opening one runs a semi-naive
// fixpoint over the component and connection definitions whose result
// feeds the same stream.
//
// A CO has one execution path: compile (CompileView), plan templates
// (PlanTemplates, cached by the engine per catalog version), Open over one
// execution context, then either stream the tagged tuples (COStream.Next,
// what the wire server ships) or drain them into a COResult
// (COStream.Drain, what Execute and in-process extraction return).
package core

import (
	"fmt"
	"strings"

	"xnf/internal/ast"
	"xnf/internal/catalog"
	"xnf/internal/qgm"
	"xnf/internal/rewrite"
	"xnf/internal/semantics"
	"xnf/internal/types"
)

// Output describes one component of the compiled CO: either a node (a
// component table) or a relationship (a connection table, possibly derived
// client-side from a node stream).
type Output struct {
	Name   string
	CompID int

	IsRel    bool
	Parent   string
	Children []string
	Role     string

	// Box produces the shipped rows (node rows or connection tuples). It
	// is nil for derived relationships.
	Box *qgm.Box

	// KeyCols are the ordinals identifying a node tuple within its
	// shipped row.
	KeyCols []int

	// Connection-tuple layout for shipped relationships.
	ParentKeyOrds []int
	ChildKeyOrds  [][]int

	// Derived relationships ship nothing: the connection (parentKey,
	// childKey) pairs are read off the DerivedFrom node's rows —
	// DerivedParentOrds give the parent key, the node's own KeyCols give
	// the child key.
	DerivedFrom       string
	DerivedParentOrds []int

	// Shipped-row description (column names and types), filled for every
	// output that ships rows.
	ColNames []string
	ColTypes []types.Type

	// Updatability metadata (Sect. 2: node updates translate to base-table
	// updates; connect/disconnect to foreign-key updates or connect-table
	// inserts/deletes). Empty values mean the output is read-only.
	//
	// Nodes: BaseTable is the single base table the component projects,
	// BaseCols maps each shipped column to its base column ("" for
	// computed columns).
	BaseTable string
	BaseCols  []string
	// Derived (foreign-key) relationships: FKChildCols are the child
	// base-table columns holding the parent key.
	FKChildCols []string
	// USING (connect-table) relationships: inserting/deleting a row of
	// ConnectTable with ConnectParentCols=parent key, ConnectChildCols=
	// child key realizes connect/disconnect.
	ConnectTable      string
	ConnectParentCols []string
	ConnectChildCols  []string
}

// Compiled is a fully compiled CO query.
type Compiled struct {
	Graph     *qgm.Graph
	Outputs   []Output
	Recursive bool
	// Rec holds the pieces the fixpoint executor needs when Recursive.
	Rec *RecursiveQuery
	// Stats from the NF rewrite pass (rule firings), for EXPLAIN.
	RewriteStats rewrite.Stats
}

// relInfo is the analyzed form of one relationship during the rewrite.
type relInfo struct {
	out     qgm.XNFOutput
	box     *qgm.Box // the semantic-phase relationship box
	parentQ *qgm.Quantifier
	childQs []*qgm.Quantifier
	usingQs []*qgm.Quantifier
	// Per child: the parent-side box S_R used for reachability, the
	// existential quantifier over it and the link predicates.
	sideBoxes []*qgm.Box
	sideEqs   []*qgm.Quantifier
	sideLinks [][]qgm.Expr
	// Per child: the reachability wrapper quantifier the links reference.
	childWQs []*qgm.Quantifier
}

// Compile runs semantic analysis and the XNF semantic rewrite for an XNF
// query, producing a plain NF QGM graph with a multi-output Top, followed
// by the shared NF rewrite rules.
func Compile(cat *catalog.Catalog, xq *ast.XNFQuery, rwOpts rewrite.Options) (*Compiled, error) {
	g, err := semantics.BuildXNF(cat, xq)
	if err != nil {
		return nil, err
	}
	xnfBox := g.TopBox.Quants[0].Input
	if xnfBox.Kind != qgm.XNFOp {
		return nil, fmt.Errorf("core: expected XNF operator under Top, found %s", xnfBox.Kind)
	}
	takes, err := semantics.TakeFor(xq, xnfBox)
	if err != nil {
		return nil, err
	}

	if hasCycle(xnfBox) {
		rec, err := buildRecursive(g, xnfBox, takes)
		if err != nil {
			return nil, err
		}
		return &Compiled{Graph: g, Outputs: rec.Outputs, Recursive: true, Rec: rec}, nil
	}

	outs, err := rewriteXNF(g, xnfBox, takes)
	if err != nil {
		return nil, err
	}
	stats := rewrite.Apply(g, rwOpts)
	if errs := g.Validate(); len(errs) > 0 {
		return nil, fmt.Errorf("core: invalid QGM after XNF rewrite: %s", strings.Join(errs, "; "))
	}
	return &Compiled{Graph: g, Outputs: outs, RewriteStats: stats}, nil
}

// CompileView compiles a stored XNF view by name.
func CompileView(cat *catalog.Catalog, name string, rwOpts rewrite.Options) (*Compiled, error) {
	v, ok := cat.View(name)
	if !ok || !v.IsXNF {
		return nil, fmt.Errorf("core: %s is not an XNF view", name)
	}
	stmt, err := parseView(v.Text)
	if err != nil {
		return nil, err
	}
	return Compile(cat, stmt, rwOpts)
}

// hasCycle reports whether the schema graph (parent→child edges over node
// components) contains a cycle, which makes the CO recursive.
func hasCycle(xnfBox *qgm.Box) bool {
	edges := make(map[string][]string)
	for _, o := range xnfBox.XNFOutputs {
		if !o.IsRel {
			continue
		}
		for _, ch := range o.Children {
			edges[up(o.Parent)] = append(edges[up(o.Parent)], up(ch))
		}
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int)
	var visit func(string) bool
	visit = func(n string) bool {
		color[n] = gray
		for _, m := range edges[n] {
			switch color[m] {
			case gray:
				return true
			case white:
				if visit(m) {
					return true
				}
			}
		}
		color[n] = black
		return false
	}
	for n := range edges {
		if color[n] == white && visit(n) {
			return true
		}
	}
	return false
}

func up(s string) string { return strings.ToUpper(s) }

// rewriteXNF performs the XNF semantic rewrite on a DAG-shaped CO.
func rewriteXNF(g *qgm.Graph, xnfBox *qgm.Box, takes []semantics.TakeSpec) ([]Output, error) {
	// Index the XNF outputs.
	nodeBox := make(map[string]*qgm.Box)
	nodeKey := make(map[string][]int)
	var nodeOrder []string
	var rels []*relInfo
	for _, o := range xnfBox.XNFOutputs {
		if o.IsRel {
			ri, err := analyzeRel(o)
			if err != nil {
				return nil, err
			}
			rels = append(rels, ri)
			continue
		}
		nodeBox[up(o.Name)] = o.Box
		nodeKey[up(o.Name)] = nodeKeyCols(o.Box)
		nodeOrder = append(nodeOrder, o.Name)
	}

	// Step 1: wrap every reachable (non-root) node in a reachability box.
	// The wrapper starts as a pass-through Select; predicates arrive below.
	wrapper := make(map[string]*qgm.Box)
	wrapperQ := make(map[string]*qgm.Quantifier)
	for _, o := range xnfBox.XNFOutputs {
		if o.IsRel || !o.Reachable {
			continue
		}
		name := up(o.Name)
		inner := nodeBox[name]
		w := g.NewBox(qgm.Select, o.Name)
		wq := g.NewQuant(w, qgm.ForEach, o.Name, inner)
		for i, h := range inner.Head {
			w.Head = append(w.Head, qgm.HeadColumn{Name: h.Name, Type: h.Type, Expr: &qgm.ColRef{Q: wq, Ord: i}})
		}
		wrapper[name] = w
		wrapperQ[name] = wq
	}
	// Re-point relationship partner quantifiers at the wrappers so that
	// connections relate reachable tuples only.
	effective := func(name string) *qgm.Box {
		if w, ok := wrapper[up(name)]; ok {
			return w
		}
		return nodeBox[up(name)]
	}
	for _, ri := range rels {
		for _, q := range ri.box.Quants {
			if q.Input == nil {
				continue
			}
			for name, inner := range nodeBox {
				if q.Input == inner && wrapper[name] != nil {
					q.Input = wrapper[name]
				}
			}
		}
	}

	// Step 2: build each relationship's parent-side boxes S_R (one per
	// child) and attach the reachability predicates.
	reachPred := make(map[string]qgm.Expr) // child name → OR of exists
	for _, ri := range rels {
		for ci := range ri.childQs {
			childName := up(ri.out.Children[ci])
			w := wrapper[childName]
			if w == nil {
				return nil, fmt.Errorf("core: child component %s of %s has no reachability wrapper", ri.out.Children[ci], ri.out.Name)
			}
			side, eq, links, err := buildParentSide(g, ri, ci, wrapperQ[childName])
			if err != nil {
				return nil, err
			}
			ri.sideBoxes = append(ri.sideBoxes, side)
			ri.sideEqs = append(ri.sideEqs, eq)
			ri.sideLinks = append(ri.sideLinks, links)
			ri.childWQs = append(ri.childWQs, wrapperQ[childName])
			sr := &qgm.SubqueryRef{Quant: eq, Preds: links}
			if prev, ok := reachPred[childName]; ok {
				reachPred[childName] = &qgm.BinOp{Op: "OR", L: prev, R: sr}
			} else {
				reachPred[childName] = sr
			}
		}
	}
	for name, pred := range reachPred {
		wrapper[name].Preds = append(wrapper[name].Preds, pred)
	}

	// Step 3: assemble the Top outputs per the TAKE projection. Derived
	// (non-shipped) relationship outputs require the child's full rows, so
	// track which nodes are taken without column projection.
	takenNode := make(map[string]bool)
	for _, t := range takes {
		if !t.Output.IsRel && len(t.Columns) == 0 {
			takenNode[up(t.Output.Name)] = true
		}
	}
	top := g.NewBox(qgm.Top, "")
	top.Limit = -1
	var outs []Output
	for _, t := range takes {
		if t.Output.IsRel {
			var ri *relInfo
			for _, r := range rels {
				if up(r.out.Name) == up(t.Output.Name) {
					ri = r
				}
			}
			out, err := buildRelOutput(g, top, ri, effective, nodeKey, takenNode, len(outs))
			if err != nil {
				return nil, err
			}
			outs = append(outs, *out)
			continue
		}
		name := up(t.Output.Name)
		box := effective(name)
		keys := nodeKey[name]
		if len(t.Columns) > 0 {
			box, keys = projectNode(g, box, keys, t.Columns)
		}
		q := g.NewQuant(top, qgm.ForEach, t.Output.Name, box)
		top.Outputs = append(top.Outputs, qgm.TopOutput{
			Name: t.Output.Name, CompID: len(outs), Quant: q, KeyCols: keys,
		})
		outs = append(outs, Output{
			Name: t.Output.Name, CompID: len(outs), Box: box, KeyCols: keys,
		})
	}
	g.TopBox = top
	g.GC()
	fillOutputMeta(outs, rels)
	return outs, nil
}

// analyzeRel classifies the quantifiers of a semantic-phase relationship
// box into parent, children and USING. The semantic layer attaches them in
// a fixed order — parent, then children, then USING tables — so the
// classification is positional (robust against child aliases).
func analyzeRel(o qgm.XNFOutput) (*relInfo, error) {
	ri := &relInfo{out: o, box: o.Box}
	quants := o.Box.Quants
	if len(quants) < 1+len(o.Children) {
		return nil, fmt.Errorf("core: relationship %s: expected at least %d quantifiers, found %d",
			o.Name, 1+len(o.Children), len(quants))
	}
	ri.parentQ = quants[0]
	ri.childQs = quants[1 : 1+len(o.Children)]
	ri.usingQs = quants[1+len(o.Children):]
	return ri, nil
}

// buildParentSide constructs the parent-side box S_R for one child of a
// relationship: quantifiers over every partner except that child, carrying
// every relationship predicate that does not mention the child. It returns
// the box, an existential quantifier over it, and the link predicates (the
// child-mentioning conjuncts) with non-child references rewritten onto the
// existential quantifier's head and child references rewritten onto the
// child's reachability wrapper quantifier.
func buildParentSide(g *qgm.Graph, ri *relInfo, childIdx int, childWrapperQ *qgm.Quantifier) (*qgm.Box, *qgm.Quantifier, []qgm.Expr, error) {
	cq := ri.childQs[childIdx]
	side := g.NewBox(qgm.Select, ri.out.Name+"_side")
	eq := g.NewDetachedQuant(qgm.Exist, "reach_"+ri.out.Name, side)
	remap := make(map[*qgm.Quantifier]*qgm.Quantifier)
	for _, q := range ri.box.Quants {
		if q == cq {
			continue
		}
		nq := g.NewQuant(side, qgm.ForEach, q.Name, q.Input)
		remap[q] = nq
	}

	needed := make(map[string]int) // "quantID.ord" → head ordinal
	addCol := func(q *qgm.Quantifier, ord int) int {
		key := fmt.Sprintf("%d.%d", q.ID, ord)
		if ho, ok := needed[key]; ok {
			return ho
		}
		ho := len(side.Head)
		side.Head = append(side.Head, qgm.HeadColumn{
			Name: fmt.Sprintf("%s_%s", q.Name, q.Input.Head[ord].Name),
			Type: q.Input.Head[ord].Type,
			Expr: &qgm.ColRef{Q: q, Ord: ord},
		})
		needed[key] = ho
		return ho
	}
	// Parent keys are exposed first: the connection output reuses S_R and
	// expects them at the front.
	pq := remap[ri.parentQ]
	for _, ord := range nodeKeyCols(ri.parentQ.Input) {
		addCol(pq, ord)
	}

	// Predicates that avoid the child stay inside S_R (remapped); ones
	// that mention it become link predicates with their S_R-side columns
	// exposed through the head and referenced via eq.
	var links []qgm.Expr
	for _, p := range ri.box.Preds {
		mentionsChild := false
		for q := range qgm.QuantsIn(p) {
			if q == cq {
				mentionsChild = true
			}
		}
		if !mentionsChild {
			side.Preds = append(side.Preds, qgm.RewriteExpr(p, func(x qgm.Expr) qgm.Expr {
				if cr, ok := x.(*qgm.ColRef); ok {
					if nq, ok := remap[cr.Q]; ok {
						return &qgm.ColRef{Q: nq, Ord: cr.Ord}
					}
				}
				return x
			}))
			continue
		}
		links = append(links, qgm.RewriteExpr(p, func(x qgm.Expr) qgm.Expr {
			cr, ok := x.(*qgm.ColRef)
			if !ok {
				return x
			}
			if cr.Q == cq {
				return &qgm.ColRef{Q: childWrapperQ, Ord: cr.Ord}
			}
			if nq, ok := remap[cr.Q]; ok {
				return &qgm.ColRef{Q: eq, Ord: addCol(nq, cr.Ord)}
			}
			return x
		}))
	}
	return side, eq, links, nil
}

// projectNode wraps a node box in a projection keeping the TAKE columns;
// key columns missing from the projection are appended (they are needed
// to resolve connections) and the key ordinals are remapped.
func projectNode(g *qgm.Graph, box *qgm.Box, keys []int, cols []int) (*qgm.Box, []int) {
	proj := g.NewBox(qgm.Select, box.Name+"_take")
	q := g.NewQuant(proj, qgm.ForEach, box.Name, box)
	pos := make(map[int]int)
	for _, ord := range cols {
		if _, dup := pos[ord]; dup {
			continue
		}
		pos[ord] = len(proj.Head)
		h := box.Head[ord]
		proj.Head = append(proj.Head, qgm.HeadColumn{Name: h.Name, Type: h.Type, Expr: &qgm.ColRef{Q: q, Ord: ord}})
	}
	for _, k := range keys {
		if _, ok := pos[k]; !ok {
			pos[k] = len(proj.Head)
			h := box.Head[k]
			proj.Head = append(proj.Head, qgm.HeadColumn{Name: h.Name, Type: h.Type, Expr: &qgm.ColRef{Q: q, Ord: k}})
		}
	}
	newKeys := make([]int, len(keys))
	for i, k := range keys {
		newKeys[i] = pos[k]
	}
	return proj, newKeys
}

// nodeKeyCols exposes the component-identity ordinals of a node box.
func nodeKeyCols(box *qgm.Box) []int { return semantics.ComponentKeyOrds(box) }
