// Package ast defines the syntax trees for the SQL subset and the XNF
// composite-object extension (OUT OF … RELATE … TAKE), together with a
// deparser that renders every node back to parsable text. The deparser is
// used by the view catalog (views are stored as text), by EXPLAIN, and by
// the parser round-trip property tests.
package ast

import (
	"strings"

	"xnf/internal/types"
)

// Statement is any top-level SQL or XNF statement.
type Statement interface {
	stmtNode()
	String() string
}

// ColumnDef is one column in CREATE TABLE.
type ColumnDef struct {
	Name    string
	Type    types.Type
	NotNull bool
}

// FKDef is a FOREIGN KEY clause in CREATE TABLE.
type FKDef struct {
	Columns    []string
	RefTable   string
	RefColumns []string
}

// CreateTableStmt is CREATE TABLE.
type CreateTableStmt struct {
	Name        string
	Columns     []ColumnDef
	PrimaryKey  []string
	ForeignKeys []FKDef
}

// CreateIndexStmt is CREATE [UNIQUE] [ORDERED] INDEX.
type CreateIndexStmt struct {
	Name    string
	Table   string
	Columns []string
	Unique  bool
	Ordered bool
}

// CreateViewStmt is CREATE VIEW; the body is either a plain SELECT or an
// XNF query (the paper's CO views, Fig. 1).
type CreateViewStmt struct {
	Name   string
	Select *SelectStmt
	XNF    *XNFQuery
}

// DropStmt is DROP TABLE / DROP VIEW.
type DropStmt struct {
	Kind string // "TABLE" or "VIEW"
	Name string
}

// AnalyzeStmt is ANALYZE [table]: refresh optimizer statistics for one
// table, or for every table when Table is empty. Like DDL it bumps the
// catalog version, invalidating cached plans compiled under stale stats.
type AnalyzeStmt struct {
	Table string
}

// AlterTableStmt is ALTER TABLE … SET STORAGE ROW/COLUMN: switch the
// table's physical representation between the row-major slot heap and the
// column-major colstore segments. Storage is the uppercased keyword.
type AlterTableStmt struct {
	Table   string
	Storage string // "ROW" or "COLUMN"
}

// InsertStmt is INSERT INTO … VALUES / SELECT.
type InsertStmt struct {
	Table   string
	Columns []string
	Rows    [][]Expr
	Select  *SelectStmt
}

// SetClause is one assignment in UPDATE.
type SetClause struct {
	Column string
	Value  Expr
}

// UpdateStmt is UPDATE … SET … WHERE.
type UpdateStmt struct {
	Table string
	Alias string
	Set   []SetClause
	Where Expr
}

// DeleteStmt is DELETE FROM … WHERE.
type DeleteStmt struct {
	Table string
	Alias string
	Where Expr
}

// SelectStmt is a SELECT query block, possibly with a UNION suffix.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int // -1 when absent
	Union    *UnionClause
}

// UnionClause chains another SELECT with UNION [ALL].
type UnionClause struct {
	All   bool
	Right *SelectStmt
}

// SelectItem is one element of the select list. Star selects everything;
// a Star with a Qualifier selects one table's columns (t.*).
type SelectItem struct {
	Star      bool
	Qualifier string
	Expr      Expr
	Alias     string
}

// TableRef is one FROM element: a base table or view (Table, Alias) or a
// derived table (Subquery, Alias).
type TableRef struct {
	Table    string
	Alias    string
	Subquery *SelectStmt
}

// Name returns the exposed correlation name of the reference.
func (t TableRef) Name() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// OrderItem is one ORDER BY element.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// XNFQuery is the composite-object constructor: OUT OF components TAKE list.
type XNFQuery struct {
	Components []XNFComponent
	Take       []TakeItem
}

// XNFComponent is one `name AS …` element of OUT OF: either a component
// table defined by a table expression (or the bare-table shortcut) or a
// relationship defined by a RELATE clause.
type XNFComponent struct {
	Name   string
	Select *SelectStmt   // component table (nil for relationships)
	Relate *RelateClause // relationship (nil for tables)
}

// RelateClause is RELATE parent VIA role, children… [USING t [a], …] WHERE p.
// ChildAliases runs parallel to Children; a non-empty alias renames the
// child occurrence inside the WHERE predicate, which is how a
// self-relationship (recursive CO, e.g. parts explosion) distinguishes the
// parent and child occurrences of the same component.
type RelateClause struct {
	Parent       string
	Role         string
	Children     []string
	ChildAliases []string
	Using        []TableRef
	Where        Expr
}

// TakeItem is one element of the TAKE projection: '*' or a component name,
// optionally restricted to columns.
type TakeItem struct {
	Star    bool
	Name    string
	Columns []string
}

func (*CreateTableStmt) stmtNode() {}
func (*CreateIndexStmt) stmtNode() {}
func (*CreateViewStmt) stmtNode()  {}
func (*DropStmt) stmtNode()        {}
func (*AnalyzeStmt) stmtNode()     {}
func (*AlterTableStmt) stmtNode()  {}
func (*InsertStmt) stmtNode()      {}
func (*UpdateStmt) stmtNode()      {}
func (*DeleteStmt) stmtNode()      {}
func (*SelectStmt) stmtNode()      {}
func (*XNFQuery) stmtNode()        {}

// --- Expressions ---

// Expr is any scalar or predicate expression.
type Expr interface {
	exprNode()
	String() string
}

// Literal is a constant value.
type Literal struct {
	Value types.Value
}

// ColumnRef is a possibly-qualified column reference.
type ColumnRef struct {
	Qualifier string
	Name      string
}

// BinaryExpr covers comparisons, arithmetic, AND and OR.
type BinaryExpr struct {
	Op   string
	L, R Expr
}

// UnaryExpr covers NOT and unary minus.
type UnaryExpr struct {
	Op string // "NOT" or "-"
	X  Expr
}

// FuncCall is an aggregate or scalar function call. Star marks COUNT(*).
type FuncCall struct {
	Name     string
	Distinct bool
	Star     bool
	Args     []Expr
}

// SubqueryExpr is EXISTS(sub) or a scalar subquery.
type SubqueryExpr struct {
	Exists bool
	Not    bool
	Select *SelectStmt
}

// InExpr is x [NOT] IN (list) or x [NOT] IN (subquery).
type InExpr struct {
	X    Expr
	Not  bool
	List []Expr
	Sub  *SelectStmt
}

// BetweenExpr is x [NOT] BETWEEN lo AND hi.
type BetweenExpr struct {
	X      Expr
	Not    bool
	Lo, Hi Expr
}

// IsNullExpr is x IS [NOT] NULL.
type IsNullExpr struct {
	X   Expr
	Not bool
}

// LikeExpr is x [NOT] LIKE pattern.
type LikeExpr struct {
	X       Expr
	Not     bool
	Pattern Expr
}

// CaseExpr is a searched CASE expression.
type CaseExpr struct {
	Whens []WhenClause
	Else  Expr
}

// WhenClause is one WHEN cond THEN result arm.
type WhenClause struct {
	Cond   Expr
	Result Expr
}

// Placeholder is a `?` parameter marker. Idx is the 0-based occurrence
// order assigned by the parser; at execution the value comes from slot Idx
// of the statement's argument frame (prepared-statement binding). Type is
// NullType for a caller's `?`, whose type is unknown until binding; the
// plan cache sets it when the marker stands in for a literal of that type,
// so the statement type-checks exactly like its literal form.
type Placeholder struct {
	Idx  int
	Type types.Type
}

// PathExpr is an XNF path expression over a CO view's schema graph, e.g.
// deps_ARC.xdept.xemp — it denotes the xemp tuples reachable from xdept
// roots (Sect. 2 of the paper). Only valid where the compiler can see the
// CO view definition.
type PathExpr struct {
	Steps []string
}

func (*Literal) exprNode()      {}
func (*ColumnRef) exprNode()    {}
func (*BinaryExpr) exprNode()   {}
func (*UnaryExpr) exprNode()    {}
func (*FuncCall) exprNode()     {}
func (*SubqueryExpr) exprNode() {}
func (*InExpr) exprNode()       {}
func (*BetweenExpr) exprNode()  {}
func (*IsNullExpr) exprNode()   {}
func (*LikeExpr) exprNode()     {}
func (*CaseExpr) exprNode()     {}
func (*Placeholder) exprNode()  {}
func (*PathExpr) exprNode()     {}

// And conjoins two expressions, tolerating nils.
func And(a, b Expr) Expr {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return &BinaryExpr{Op: "AND", L: a, R: b}
}

// Or disjoins two expressions, tolerating nils.
func Or(a, b Expr) Expr {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return &BinaryExpr{Op: "OR", L: a, R: b}
}

// Conjuncts flattens a predicate tree into its top-level AND factors.
func Conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*BinaryExpr); ok && b.Op == "AND" {
		return append(Conjuncts(b.L), Conjuncts(b.R)...)
	}
	return []Expr{e}
}

// Walk visits e and every sub-expression in depth-first order. Subqueries
// are not descended into; the visitor sees the SubqueryExpr/InExpr node and
// can recurse itself if needed.
func Walk(e Expr, visit func(Expr)) {
	if e == nil {
		return
	}
	visit(e)
	switch n := e.(type) {
	case *BinaryExpr:
		Walk(n.L, visit)
		Walk(n.R, visit)
	case *UnaryExpr:
		Walk(n.X, visit)
	case *FuncCall:
		for _, a := range n.Args {
			Walk(a, visit)
		}
	case *InExpr:
		Walk(n.X, visit)
		for _, a := range n.List {
			Walk(a, visit)
		}
	case *BetweenExpr:
		Walk(n.X, visit)
		Walk(n.Lo, visit)
		Walk(n.Hi, visit)
	case *IsNullExpr:
		Walk(n.X, visit)
	case *LikeExpr:
		Walk(n.X, visit)
		Walk(n.Pattern, visit)
	case *CaseExpr:
		for _, w := range n.Whens {
			Walk(w.Cond, visit)
			Walk(w.Result, visit)
		}
		Walk(n.Else, visit)
	}
}

// NumPlaceholders returns the number of `?` parameter markers in the
// statement (max index + 1 — the parser numbers them in occurrence order).
// It descends into subqueries, derived tables and every clause of every
// statement form, unlike Walk.
func NumPlaceholders(stmt Statement) int {
	n := 0
	Placeholders(stmt, func(p *Placeholder) {
		if p.Idx+1 > n {
			n = p.Idx + 1
		}
	})
	return n
}

// Placeholders calls visit on every `?` parameter marker of the statement,
// with the same reach as NumPlaceholders.
func Placeholders(stmt Statement, visit func(*Placeholder)) {
	note := func(e Expr) {
		WalkDeep(e, func(x Expr) {
			if p, ok := x.(*Placeholder); ok {
				visit(p)
			}
		})
	}
	// Select bodies reuse WalkDeep's clause traversal via a synthetic
	// subquery node, so the two walkers cannot drift apart.
	sel := func(s *SelectStmt) {
		if s != nil {
			note(&SubqueryExpr{Select: s})
		}
	}
	switch st := stmt.(type) {
	case *SelectStmt:
		sel(st)
	case *InsertStmt:
		for _, row := range st.Rows {
			for _, e := range row {
				note(e)
			}
		}
		sel(st.Select)
	case *UpdateStmt:
		for _, sc := range st.Set {
			note(sc.Value)
		}
		note(st.Where)
	case *DeleteStmt:
		note(st.Where)
	case *CreateViewStmt:
		sel(st.Select)
		if st.XNF != nil {
			for _, c := range st.XNF.Components {
				sel(c.Select)
				if c.Relate != nil {
					note(c.Relate.Where)
					for _, tr := range c.Relate.Using {
						sel(tr.Subquery)
					}
				}
			}
		}
	case *XNFQuery:
		for _, c := range st.Components {
			sel(c.Select)
			if c.Relate != nil {
				note(c.Relate.Where)
				for _, tr := range c.Relate.Using {
					sel(tr.Subquery)
				}
			}
		}
	}
}

// WalkDeep is Walk extended to descend into subquery select bodies (their
// WHERE/HAVING/items/FROM chains), so placeholder discovery sees every
// expression of the tree.
func WalkDeep(e Expr, visit func(Expr)) {
	if e == nil {
		return
	}
	var sel func(*SelectStmt)
	sel = func(s *SelectStmt) {
		if s == nil {
			return
		}
		for _, it := range s.Items {
			WalkDeep(it.Expr, visit)
		}
		for _, tr := range s.From {
			sel(tr.Subquery)
		}
		WalkDeep(s.Where, visit)
		for _, g := range s.GroupBy {
			WalkDeep(g, visit)
		}
		WalkDeep(s.Having, visit)
		for _, o := range s.OrderBy {
			WalkDeep(o.Expr, visit)
		}
		if s.Union != nil {
			sel(s.Union.Right)
		}
	}
	Walk(e, func(x Expr) {
		visit(x)
		switch n := x.(type) {
		case *SubqueryExpr:
			sel(n.Select)
		case *InExpr:
			sel(n.Sub)
		}
	})
}

// quoteIdent renders an identifier; plain identifiers pass through.
func quoteIdent(s string) string { return s }

func identList(names []string) string {
	return strings.Join(names, ", ")
}
