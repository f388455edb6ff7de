package opt

import (
	"strings"
	"testing"

	"xnf/internal/ast"
	"xnf/internal/catalog"
	"xnf/internal/exec"
	"xnf/internal/parser"
	"xnf/internal/semantics"
	"xnf/internal/storage"
	"xnf/internal/types"
)

// testStore builds DEPT/EMP with statistics that make DEPT the small side.
func testStore(t testing.TB) *storage.Store {
	t.Helper()
	s := storage.NewStore(catalog.New())
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.CreateTable(&catalog.Table{
		Name: "DEPT",
		Columns: []catalog.Column{
			{Name: "dno", Type: types.IntType}, {Name: "loc", Type: types.StringType},
		},
		PrimaryKey: []string{"dno"},
	}))
	must(s.CreateTable(&catalog.Table{
		Name: "EMP",
		Columns: []catalog.Column{
			{Name: "eno", Type: types.IntType}, {Name: "edno", Type: types.IntType},
		},
		PrimaryKey: []string{"eno"},
	}))
	dept, _ := s.Table("DEPT")
	for i := int64(1); i <= 5; i++ {
		loc := "HQ"
		if i <= 2 {
			loc = "ARC"
		}
		dept.Insert(types.Row{types.NewInt(i), types.NewString(loc)})
	}
	emp, _ := s.Table("EMP")
	for i := int64(1); i <= 100; i++ {
		emp.Insert(types.Row{types.NewInt(i), types.NewInt(i%5 + 1)})
	}
	must(s.AnalyzeAll())
	return s
}

func compile(t *testing.T, s *storage.Store, sql string, opts Options) exec.Plan {
	t.Helper()
	stmt, err := parser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	g, err := semantics.BuildSelect(s.Catalog(), stmt.(*ast.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	c := NewCompiler(s, g, opts)
	plan, err := c.CompileTop()
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func run(t *testing.T, s *storage.Store, plan exec.Plan) []types.Row {
	t.Helper()
	rows, err := exec.Collect(exec.NewCtx(s), plan.Root())
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestJoinOrderingPutsSmallSideFirst(t *testing.T) {
	s := testStore(t)
	plan := compile(t, s, "SELECT e.eno FROM EMP e, DEPT d WHERE e.edno = d.dno AND d.loc = 'ARC'", DefaultOptions())
	expl := plan.Explain(0)
	// With ordering, DEPT (5 rows, filtered) drives; EMP is probed via its
	// PK? No index on edno, so a hash join with DEPT built or probe side —
	// we only assert the plan is a hash join and produces 40 rows.
	if !strings.Contains(expl, "HashJoin") && !strings.Contains(expl, "IndexLookup") {
		t.Errorf("expected hash or index join:\n%s", expl)
	}
	rows := run(t, s, plan)
	if len(rows) != 40 {
		t.Errorf("rows = %d, want 40", len(rows))
	}
}

func TestNaivePlanShape(t *testing.T) {
	s := testStore(t)
	plan := compile(t, s, "SELECT e.eno FROM EMP e, DEPT d WHERE e.edno = d.dno", NaiveOptions())
	expl := plan.Explain(0)
	if strings.Contains(expl, "HashJoin") || strings.Contains(expl, "IndexLookup") || strings.Contains(expl, "Spool") {
		t.Errorf("naive plan uses optimizations:\n%s", expl)
	}
	if !strings.Contains(expl, "NLJoin") {
		t.Errorf("naive plan missing nested loop:\n%s", expl)
	}
	if len(run(t, s, plan)) != 100 {
		t.Error("naive join wrong")
	}
}

func TestIndexNLJoinChosenWithIndex(t *testing.T) {
	s := testStore(t)
	if err := s.CreateIndex(&catalog.Index{Name: "emp_edno", Table: "EMP", Columns: []string{"edno"}, Kind: catalog.HashIndex}); err != nil {
		t.Fatal(err)
	}
	plan := compile(t, s, "SELECT e.eno FROM DEPT d, EMP e WHERE d.dno = e.edno AND d.loc = 'ARC'", DefaultOptions())
	expl := plan.Explain(0)
	if !strings.Contains(expl, "IndexLookup EMP.emp_edno") {
		t.Errorf("index NL join not chosen:\n%s", expl)
	}
	if len(run(t, s, plan)) != 40 {
		t.Error("index join wrong result")
	}
}

func TestConstIndexLookup(t *testing.T) {
	s := testStore(t)
	plan := compile(t, s, "SELECT eno FROM EMP WHERE eno = 7", DefaultOptions())
	if !strings.Contains(plan.Explain(0), "IndexLookup EMP.EMP_PK") {
		t.Errorf("PK lookup not chosen:\n%s", plan.Explain(0))
	}
	rows := run(t, s, plan)
	if len(rows) != 1 || rows[0][0].I != 7 {
		t.Errorf("rows = %v", rows)
	}
}

func TestSubqueryStrategySelection(t *testing.T) {
	s := testStore(t)
	sql := "SELECT eno FROM EMP e WHERE EXISTS (SELECT 1 FROM DEPT d WHERE d.dno = e.edno AND d.loc = 'ARC')"
	// Hashed strategy under default options (rewrite disabled here, so the
	// subquery survives to the compiler).
	stmt, _ := parser.Parse(sql)
	g, err := semantics.BuildSelect(s.Catalog(), stmt.(*ast.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewCompiler(s, g, DefaultOptions()).CompileTop()
	if err != nil {
		t.Fatal(err)
	}
	ctx := exec.NewCtx(s)
	rows, err := exec.Collect(ctx, plan.Root())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 40 {
		t.Fatalf("hashed exists rows = %d", len(rows))
	}
	if ctx.Counters.SubplanRuns != 0 {
		t.Errorf("hashed strategy reran the subplan %d times", ctx.Counters.SubplanRuns)
	}
	// Naive options force rerun-per-row.
	g2, _ := semantics.BuildSelect(s.Catalog(), stmt.(*ast.SelectStmt))
	plan2, err := NewCompiler(s, g2, NaiveOptions()).CompileTop()
	if err != nil {
		t.Fatal(err)
	}
	ctx2 := exec.NewCtx(s)
	rows2, err := exec.Collect(ctx2, plan2.Root())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows2) != 40 {
		t.Fatalf("naive exists rows = %d", len(rows2))
	}
	if ctx2.Counters.SubplanRuns != 100 {
		t.Errorf("naive strategy ran the subplan %d times, want one per outer row (100)", ctx2.Counters.SubplanRuns)
	}
}

func TestSpoolForSharedBoxes(t *testing.T) {
	s := testStore(t)
	// The same derived table twice: the spool should materialize once.
	sql := `SELECT a.dno FROM (SELECT dno FROM DEPT WHERE loc = 'ARC') a,
	                      (SELECT dno FROM DEPT WHERE loc = 'ARC') b
	        WHERE a.dno = b.dno`
	// Two textual derived tables build two boxes — sharing arises from the
	// single base-table box instead. Verify base scans are spooled when
	// shared... base tables are cheap; our compiler spools only boxes with
	// >1 consumers, which includes the DEPT base box here.
	plan := compile(t, s, sql, DefaultOptions())
	if !strings.Contains(plan.Explain(0), "Spool") {
		t.Errorf("shared base table not spooled:\n%s", plan.Explain(0))
	}
	if len(run(t, s, plan)) != 2 {
		t.Error("spooled query wrong")
	}
}

// TestScansAlwaysCarryPruneTerms pins what replaced the pruning and kernel
// knobs: under DefaultOptions every lowered scan with a `col <op> const`
// conjunct carries zone-map prune terms, and there is exactly one scan
// representation (no "boxed" variant).
func TestScansAlwaysCarryPruneTerms(t *testing.T) {
	s := testStore(t)
	cases := []struct{ sql, want string }{
		{"SELECT eno FROM EMP WHERE edno > 3", "BatchScan EMP"},
		{"SELECT eno FROM EMP WHERE edno >= 2 AND edno < 4", "BatchScan EMP"},
		{"SELECT eno FROM EMP WHERE 3 < edno", "BatchScan EMP"},
		{"SELECT eno FROM EMP WHERE edno IS NULL", "BatchScan EMP"},
		{"SELECT edno, COUNT(*) FROM EMP WHERE edno <= 2 GROUP BY edno", "BatchParallelAggScan EMP"},
		{"SELECT e.eno FROM EMP e, DEPT d WHERE e.edno = d.dno AND d.loc = 'ARC'", "BatchScan DEPT"},
	}
	for _, c := range cases {
		expl := compile(t, s, c.sql, DefaultOptions()).Explain(0)
		found := false
		for _, line := range strings.Split(expl, "\n") {
			if strings.Contains(line, c.want) {
				found = true
				if !strings.Contains(line, " zonemap=(") {
					t.Errorf("%q: %s carries no prune terms:\n%s", c.sql, c.want, expl)
				}
			}
		}
		if !found {
			t.Errorf("%q did not lower to %s:\n%s", c.sql, c.want, expl)
		}
		if strings.Contains(expl, "boxed") {
			t.Errorf("%q: plan mentions a boxed scan:\n%s", c.sql, expl)
		}
	}
}

func TestCompileRowExpr(t *testing.T) {
	s := testStore(t)
	rc, err := semantics.NewRowContext(s.Catalog(), "EMP", "e")
	if err != nil {
		t.Fatal(err)
	}
	expr, _ := parser.ParseExpr("e.edno * 10")
	qe, err := rc.Build(expr)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCompiler(s, rc.Graph(), DefaultOptions())
	ce, err := c.CompileRowExpr(rc.Quant(), qe)
	if err != nil {
		t.Fatal(err)
	}
	env := exec.Env{Row: types.Row{types.NewInt(1), types.NewInt(4)}, Ctx: exec.NewCtx(s)}
	v, err := ce.Eval(&env)
	if err != nil || v.I != 40 {
		t.Errorf("row expr = %v, %v", v, err)
	}
}

func TestEstimates(t *testing.T) {
	s := testStore(t)
	stmt, _ := parser.Parse("SELECT * FROM EMP e, DEPT d WHERE e.edno = d.dno")
	g, _ := semantics.BuildSelect(s.Catalog(), stmt.(*ast.SelectStmt))
	c := NewCompiler(s, g, DefaultOptions())
	for _, b := range g.Reachable() {
		est := c.estimateBox(b)
		if est < 1 {
			t.Errorf("estimate for box %d = %d", b.ID, est)
		}
	}
}
