package core_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	. "xnf/internal/core"

	"xnf/internal/ast"
	"xnf/internal/engine"
	"xnf/internal/exec"
	"xnf/internal/opt"
	"xnf/internal/parser"
	"xnf/internal/rewrite"
	"xnf/internal/types"
	"xnf/internal/workload"
)

// fig1DB builds exactly the instance shown in the paper's Fig. 1:
// departments d1, d2 at ARC; employees e1..e3; projects p1, p2; skills
// s1..s5 with s2 attached only to a non-ARC employee so reachability must
// exclude it, and e2, e3, p2, s3 shared between relationships.
func fig1DB(t testing.TB) *engine.Database {
	t.Helper()
	db := engine.Open()
	script := workload.OrgSchema + `
INSERT INTO DEPT VALUES (1, 'd1', 'ARC'), (2, 'd2', 'ARC'), (3, 'd3', 'HQ');
INSERT INTO EMP VALUES (1, 'e1', 1, 100), (2, 'e2', 1, 200), (3, 'e3', 2, 300), (9, 'e9', 3, 900);
INSERT INTO PROJ VALUES (1, 'p1', 1, 10), (2, 'p2', 2, 20), (9, 'p9', 3, 90);
INSERT INTO SKILLS VALUES (1, 's1'), (2, 's2'), (3, 's3'), (4, 's4'), (5, 's5');
INSERT INTO EMPSKILLS VALUES (1, 1), (2, 3), (3, 3), (3, 4), (9, 2);
INSERT INTO PROJSKILLS VALUES (1, 3), (2, 4), (2, 5), (9, 2);
` + workload.DepsARC + ";"
	if err := db.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	return db
}

func compileDepsARC(t testing.TB, db *engine.Database) *Compiled {
	t.Helper()
	c, err := CompileView(db.Catalog(), "deps_ARC", rewrite.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func rowsOf(res *COResult, name string) []types.Row {
	for i, o := range res.Outputs {
		if strings.EqualFold(o.Name, name) {
			return res.Rows[i]
		}
	}
	return nil
}

func outputOf(t testing.TB, c *Compiled, name string) *Output {
	t.Helper()
	for i := range c.Outputs {
		if strings.EqualFold(c.Outputs[i].Name, name) {
			return &c.Outputs[i]
		}
	}
	t.Fatalf("no output %s", name)
	return nil
}

func colVals(rows []types.Row, ord int) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r[ord].String()
	}
	sort.Strings(out)
	return out
}

func TestDepsARCCompiles(t *testing.T) {
	db := fig1DB(t)
	c := compileDepsARC(t, db)
	if c.Recursive {
		t.Fatal("deps_ARC is a DAG, not recursive")
	}
	if len(c.Outputs) != 8 {
		t.Fatalf("outputs = %d", len(c.Outputs))
	}
	if errs := c.Graph.Validate(); len(errs) > 0 {
		t.Fatalf("invalid graph: %v", errs)
	}
	// The E→F conversion must fire for the single-parent reachability of
	// xemp and xproj, and SELECT merge must collapse the pass-through
	// boxes (the Fig. 5 discussion).
	if c.RewriteStats.Fired["E2F"] < 2 {
		t.Errorf("E2F fired %d times, want >= 2", c.RewriteStats.Fired["E2F"])
	}
	if c.RewriteStats.Fired["SelectMerge"] < 2 {
		t.Errorf("SelectMerge fired %d times, want >= 2", c.RewriteStats.Fired["SelectMerge"])
	}
}

func TestDepsARCOutputForms(t *testing.T) {
	db := fig1DB(t)
	c := compileDepsARC(t, db)
	// employment and ownership: simple foreign-key relationships are
	// derived client-side, shipping no connection table (Sect. 4.2
	// footnote).
	emp := outputOf(t, c, "employment")
	if emp.DerivedFrom == "" || emp.Box != nil {
		t.Errorf("employment should be a derived relationship: %+v", emp)
	}
	own := outputOf(t, c, "ownership")
	if own.DerivedFrom == "" {
		t.Errorf("ownership should be a derived relationship: %+v", own)
	}
	// empproperty/projproperty ship connection tuples from the shared
	// parent-side join boxes.
	ep := outputOf(t, c, "empproperty")
	if ep.Box == nil || len(ep.ParentKeyOrds) != 1 || len(ep.ChildKeyOrds) != 1 {
		t.Errorf("empproperty should ship connections: %+v", ep)
	}
	// Node outputs carry primary-key identities.
	xd := outputOf(t, c, "xdept")
	if len(xd.KeyCols) != 1 || xd.KeyCols[0] != 0 {
		t.Errorf("xdept keys = %v", xd.KeyCols)
	}
}

func TestDepsARCFig1Semantics(t *testing.T) {
	db := fig1DB(t)
	c := compileDepsARC(t, db)
	res, err := c.Execute(db.Store(), opt.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := colVals(rowsOf(res, "xdept"), 0); fmt.Sprint(got) != "[1 2]" {
		t.Errorf("xdept = %v", got)
	}
	if got := colVals(rowsOf(res, "xemp"), 0); fmt.Sprint(got) != "[1 2 3]" {
		t.Errorf("xemp = %v (e9 must be unreachable)", got)
	}
	if got := colVals(rowsOf(res, "xproj"), 0); fmt.Sprint(got) != "[1 2]" {
		t.Errorf("xproj = %v", got)
	}
	// Fig. 1: s2 does not belong to the CO (only e9/p9 reference it);
	// s1, s3, s4, s5 are reachable, s3 shared by both sides.
	if got := colVals(rowsOf(res, "xskills"), 0); fmt.Sprint(got) != "[1 3 4 5]" {
		t.Errorf("xskills = %v (s2 must be excluded by reachability)", got)
	}
	// Shipped connections.
	ep := rowsOf(res, "empproperty")
	var pairs []string
	for _, r := range ep {
		pairs = append(pairs, r.String())
	}
	sort.Strings(pairs)
	if fmt.Sprint(pairs) != "[1|1 2|3 3|3 3|4]" {
		t.Errorf("empproperty connections = %v", pairs)
	}
	pp := rowsOf(res, "projproperty")
	pairs = nil
	for _, r := range pp {
		pairs = append(pairs, r.String())
	}
	sort.Strings(pairs)
	if fmt.Sprint(pairs) != "[1|3 2|4 2|5]" {
		t.Errorf("projproperty connections = %v", pairs)
	}
	// Derived relationships ship nothing.
	if rowsOf(res, "employment") != nil {
		t.Error("employment should ship no rows")
	}
}

// Object sharing: a component tuple used by several connections exists
// once in its component table (Sect. 2).
func TestObjectSharing(t *testing.T) {
	db := fig1DB(t)
	c := compileDepsARC(t, db)
	res, err := c.Execute(db.Store(), opt.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	skills := rowsOf(res, "xskills")
	seen := make(map[string]int)
	for _, r := range skills {
		seen[r[0].String()]++
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("skill %s appears %d times; components are sets", k, n)
		}
	}
	// s3 participates in connections from both empproperty and
	// projproperty yet exists once.
	if seen["3"] != 1 {
		t.Errorf("shared skill s3 count = %d", seen["3"])
	}
}

func TestTakeProjection(t *testing.T) {
	db := fig1DB(t)
	stmt, err := parser.Parse(`OUT OF xdept AS (SELECT * FROM DEPT WHERE loc = 'ARC'),
		xemp AS EMP,
		employment AS (RELATE xdept, xemp WHERE xdept.dno = xemp.edno)
		TAKE xdept (dname), xemp (ename), employment`)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(db.Catalog(), stmt.(*ast.XNFQuery), rewrite.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Execute(db.Store(), opt.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	xd := outputOf(t, c, "xdept")
	rows := rowsOf(res, "xdept")
	if len(rows) != 2 || len(rows[0]) != 2 {
		t.Fatalf("projected xdept rows = %v (want dname + appended dno key)", rows)
	}
	if len(xd.KeyCols) != 1 || xd.KeyCols[0] != 1 {
		t.Errorf("projected key cols = %v", xd.KeyCols)
	}
	// The relationship ships because xemp is projected (derived form needs
	// full child rows) — connections must still resolve: 3 emps.
	emp := outputOf(t, c, "employment")
	if emp.DerivedFrom != "" {
		// Acceptable alternative: derived with ord mapping; current
		// implementation ships instead.
		t.Logf("employment derived from %s", emp.DerivedFrom)
	}
	total := 0
	for i, o := range res.Outputs {
		if o.IsRel {
			total += len(res.Rows[i])
		}
	}
	if total != 3 {
		t.Errorf("employment connections = %d, want 3", total)
	}
}

func TestTakeSubset(t *testing.T) {
	db := fig1DB(t)
	stmt, err := parser.Parse(`OUT OF xdept AS (SELECT * FROM DEPT WHERE loc = 'ARC'),
		xemp AS EMP,
		employment AS (RELATE xdept, xemp WHERE xdept.dno = xemp.edno)
		TAKE xdept`)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(db.Catalog(), stmt.(*ast.XNFQuery), rewrite.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Outputs) != 1 {
		t.Fatalf("outputs = %d", len(c.Outputs))
	}
	res, err := c.Execute(db.Store(), opt.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows[0]) != 2 {
		t.Errorf("xdept rows = %d", len(res.Rows[0]))
	}
}

// The multi-parent (shared child) reachability must be an OR: a skill is in
// the CO if reachable through employees OR projects.
func TestMultiParentReachability(t *testing.T) {
	db := fig1DB(t)
	// Remove all project skills: s5 (project-only) drops out, s1/s3/s4 stay.
	if _, err := db.Exec("DELETE FROM PROJSKILLS WHERE pspno >= 0"); err != nil {
		t.Fatal(err)
	}
	c := compileDepsARC(t, db)
	res, err := c.Execute(db.Store(), opt.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := colVals(rowsOf(res, "xskills"), 0); fmt.Sprint(got) != "[1 3 4]" {
		t.Errorf("xskills = %v", got)
	}
}

// Execution must agree across optimizer modes (the rewrite is semantics-
// preserving).
func TestDepsARCModesAgree(t *testing.T) {
	modes := []struct {
		name string
		rw   rewrite.Options
		op   opt.Options
	}{
		{"full", rewrite.DefaultOptions(), opt.DefaultOptions()},
		{"no-nf-rewrite", rewrite.NoRewrite(), opt.DefaultOptions()},
		{"naive-exec", rewrite.DefaultOptions(), opt.NaiveOptions()},
		{"all-naive", rewrite.NoRewrite(), opt.NaiveOptions()},
	}
	var ref string
	for _, m := range modes {
		db := fig1DB(t)
		c, err := CompileView(db.Catalog(), "deps_ARC", m.rw)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		res, err := c.Execute(db.Store(), m.op)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		var lines []string
		for i, rows := range res.Rows {
			for _, r := range rows {
				lines = append(lines, fmt.Sprintf("%s:%s", res.Outputs[i].Name, r.String()))
			}
		}
		sort.Strings(lines)
		snapshot := strings.Join(lines, "\n")
		if ref == "" {
			ref = snapshot
			continue
		}
		if snapshot != ref {
			t.Errorf("mode %s produced different CO content", m.name)
		}
	}
}

// Recursive CO: parts explosion. Only parts reachable from root parts
// through ASSEMBLY edges belong to the CO.
func TestRecursivePartsExplosion(t *testing.T) {
	db := engine.Open()
	script := workload.PartsSchema + `
INSERT INTO PART VALUES (1, 'root1', 'root'), (2, 'a', 'comp'), (3, 'b', 'comp'),
                        (4, 'c', 'comp'), (5, 'orphan', 'comp'), (6, 'd', 'comp');
INSERT INTO ASSEMBLY VALUES (1, 2), (2, 3), (3, 4), (5, 6), (2, 4);
` + workload.PartsExplosion + ";"
	if err := db.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	c, err := CompileView(db.Catalog(), "parts_explosion", rewrite.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !c.Recursive {
		t.Fatal("parts_explosion must be recursive (cyclic schema graph)")
	}
	res, err := c.Execute(db.Store(), opt.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Reachable: 2 (via toplevel), then 3, 4 via contains. Parts 5, 6 are
	// not reachable from the root. Part 1 is in xroot, not xpart... xpart
	// is a child component, so reachability applies: 1 is not a child of
	// anything via the relationships (no assembly edge points to 1).
	if got := colVals(rowsOf(res, "xpart"), 0); fmt.Sprint(got) != "[2 3 4]" {
		t.Errorf("xpart = %v", got)
	}
	if got := colVals(rowsOf(res, "xroot"), 0); fmt.Sprint(got) != "[1]" {
		t.Errorf("xroot = %v", got)
	}
	// contains connections: (2,3), (3,4), (2,4); (5,6) excluded.
	rows := rowsOf(res, "contains")
	var pairs []string
	for _, r := range rows {
		pairs = append(pairs, r.String())
	}
	sort.Strings(pairs)
	if fmt.Sprint(pairs) != "[2|3 2|4 3|4]" {
		t.Errorf("contains = %v", pairs)
	}
	// Fixpoint equals naive transitive closure: verified structurally by
	// the expected sets above (diamond 2→3→4 plus 2→4 shares part 4 once).
	counts := make(map[string]int)
	for _, r := range rowsOf(res, "xpart") {
		counts[r[0].String()]++
	}
	if counts["4"] != 1 {
		t.Errorf("shared part 4 appears %d times", counts["4"])
	}
}

// A self-relationship without an alias must be rejected with a helpful
// error.
func TestSelfRelationRequiresAlias(t *testing.T) {
	db := engine.Open()
	if err := db.ExecScript(workload.PartsSchema); err != nil {
		t.Fatal(err)
	}
	_, err := db.Exec(`CREATE VIEW bad AS OUT OF xpart AS PART,
		r AS (RELATE xpart, xpart USING ASSEMBLY a WHERE xpart.pno = a.super AND a.sub = xpart.pno)
		TAKE *`)
	if err == nil || !strings.Contains(err.Error(), "alias") {
		t.Errorf("expected alias error, got %v", err)
	}
}

func TestXNFViewErrors(t *testing.T) {
	db := fig1DB(t)
	// XNF views cannot be used in FROM.
	if _, err := db.Query("SELECT * FROM deps_ARC"); err == nil {
		t.Error("selecting from an XNF view should fail")
	}
	// Unknown TAKE target.
	if _, err := db.Exec(`CREATE VIEW bad2 AS OUT OF a AS DEPT TAKE nosuch`); err == nil {
		t.Error("TAKE of unknown component should fail")
	}
	// Relationship with unknown partner.
	if _, err := db.Exec(`CREATE VIEW bad3 AS OUT OF a AS DEPT, r AS (RELATE a, ghost WHERE a.dno = ghost.x) TAKE *`); err == nil {
		t.Error("unknown child should fail")
	}
}

// Executing through the heterogeneous stream yields every shipped tuple
// tagged with its component, exactly the rows a drain materializes.
func TestStream(t *testing.T) {
	db := fig1DB(t)
	c := compileDepsARC(t, db)
	s, err := c.Open(exec.NewCtx(db.Store()), nil, opt.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	byComp := make(map[int]int)
	for {
		compID, row, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if row == nil {
			break
		}
		byComp[compID]++
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := c.Execute(db.Store(), opt.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i, rows := range res.Rows {
		if byComp[res.Outputs[i].CompID] != len(rows) {
			t.Errorf("component %s streamed %d rows, materialized %d",
				res.Outputs[i].Name, byComp[res.Outputs[i].CompID], len(rows))
		}
	}
}
