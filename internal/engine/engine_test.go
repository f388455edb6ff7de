package engine

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"xnf/internal/opt"
	"xnf/internal/rewrite"
	"xnf/internal/types"
)

// orgDB builds the paper's running-example schema (Fig. 1) with a small
// deterministic population.
func orgDB(t testing.TB) *Database {
	t.Helper()
	db := Open()
	ddl := `
CREATE TABLE DEPT (dno INT NOT NULL, dname VARCHAR, loc VARCHAR, PRIMARY KEY (dno));
CREATE TABLE EMP (eno INT NOT NULL, ename VARCHAR, edno INT, sal FLOAT, PRIMARY KEY (eno));
CREATE TABLE PROJ (pno INT NOT NULL, pname VARCHAR, pdno INT, budget FLOAT, PRIMARY KEY (pno));
CREATE TABLE SKILLS (sno INT NOT NULL, sname VARCHAR, PRIMARY KEY (sno));
CREATE TABLE EMPSKILLS (eseno INT NOT NULL, essno INT NOT NULL);
CREATE TABLE PROJSKILLS (pspno INT NOT NULL, pssno INT NOT NULL);
INSERT INTO DEPT VALUES (1, 'db', 'ARC'), (2, 'os', 'ARC'), (3, 'apps', 'HQ');
INSERT INTO EMP VALUES (1, 'e1', 1, 100), (2, 'e2', 1, 200), (3, 'e3', 2, 300), (4, 'e4', 3, 400), (5, 'e5', NULL, 500);
INSERT INTO PROJ VALUES (1, 'p1', 1, 10), (2, 'p2', 2, 20), (3, 'p3', 3, 30);
INSERT INTO SKILLS VALUES (1, 'sql'), (2, 'c'), (3, 'go'), (4, 'ml'), (5, 'ui');
INSERT INTO EMPSKILLS VALUES (1, 1), (2, 3), (3, 3), (3, 4);
INSERT INTO PROJSKILLS VALUES (1, 3), (2, 4), (2, 5), (3, 2);
`
	if err := db.ExecScript(ddl); err != nil {
		t.Fatal(err)
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	return db
}

func queryStrings(t testing.TB, db *Database, sql string) []string {
	t.Helper()
	res, err := db.Query(sql)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r.String()
	}
	return out
}

func sortedEqual(t *testing.T, got, want []string) {
	t.Helper()
	g := append([]string{}, got...)
	w := append([]string{}, want...)
	sort.Strings(g)
	sort.Strings(w)
	if len(g) != len(w) {
		t.Fatalf("row count %d != %d\n got: %v\nwant: %v", len(g), len(w), g, w)
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("row %d: %q != %q\n got: %v\nwant: %v", i, g[i], w[i], g, w)
		}
	}
}

func TestSelectScanFilter(t *testing.T) {
	db := orgDB(t)
	got := queryStrings(t, db, "SELECT ename FROM EMP WHERE sal > 250")
	sortedEqual(t, got, []string{"e3", "e4", "e5"})
}

func TestProjectionExpressions(t *testing.T) {
	db := orgDB(t)
	got := queryStrings(t, db, "SELECT eno * 10 + 1, UPPER(ename) FROM EMP WHERE eno <= 2")
	sortedEqual(t, got, []string{"11|E1", "21|E2"})
}

func TestJoin(t *testing.T) {
	db := orgDB(t)
	got := queryStrings(t, db, "SELECT e.ename, d.dname FROM EMP e, DEPT d WHERE e.edno = d.dno AND d.loc = 'ARC'")
	sortedEqual(t, got, []string{"e1|db", "e2|db", "e3|os"})
}

func TestJoinSyntax(t *testing.T) {
	db := orgDB(t)
	got := queryStrings(t, db, "SELECT e.ename FROM EMP e JOIN DEPT d ON e.edno = d.dno WHERE d.loc = 'HQ'")
	sortedEqual(t, got, []string{"e4"})
}

func TestThreeWayJoin(t *testing.T) {
	db := orgDB(t)
	got := queryStrings(t, db, `SELECT e.ename, s.sname FROM EMP e, EMPSKILLS es, SKILLS s
		WHERE e.eno = es.eseno AND es.essno = s.sno`)
	sortedEqual(t, got, []string{"e1|sql", "e2|go", "e3|go", "e3|ml"})
}

func TestExistsSubquery(t *testing.T) {
	db := orgDB(t)
	// The paper's Fig. 3 query.
	got := queryStrings(t, db, `SELECT ename FROM EMP e
		WHERE EXISTS (SELECT 1 FROM DEPT d WHERE d.loc = 'ARC' AND d.dno = e.edno)`)
	sortedEqual(t, got, []string{"e1", "e2", "e3"})
}

func TestExistsAllOptimizerModes(t *testing.T) {
	q := `SELECT ename FROM EMP e WHERE EXISTS (SELECT 1 FROM DEPT d WHERE d.loc = 'ARC' AND d.dno = e.edno)`
	want := []string{"e1", "e2", "e3"}
	modes := []struct {
		name string
		rw   rewrite.Options
		op   opt.Options
	}{
		{"full", rewrite.DefaultOptions(), opt.DefaultOptions()},
		{"no-rewrite", rewrite.NoRewrite(), opt.DefaultOptions()},
		{"naive", rewrite.NoRewrite(), opt.NaiveOptions()},
		{"rewrite-naive-exec", rewrite.DefaultOptions(), opt.NaiveOptions()},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			db := orgDB(t)
			db.RewriteOptions = m.rw
			db.OptOptions = m.op
			sortedEqual(t, queryStrings(t, db, q), want)
		})
	}
}

func TestNotExists(t *testing.T) {
	db := orgDB(t)
	got := queryStrings(t, db, `SELECT ename FROM EMP e
		WHERE NOT EXISTS (SELECT 1 FROM EMPSKILLS es WHERE es.eseno = e.eno)`)
	sortedEqual(t, got, []string{"e4", "e5"})
}

func TestInSubquery(t *testing.T) {
	db := orgDB(t)
	got := queryStrings(t, db, "SELECT ename FROM EMP WHERE edno IN (SELECT dno FROM DEPT WHERE loc = 'ARC')")
	sortedEqual(t, got, []string{"e1", "e2", "e3"})
}

func TestNotInWithNulls(t *testing.T) {
	db := orgDB(t)
	// e5 has NULL edno: NULL NOT IN (...) is UNKNOWN, so e5 is excluded.
	got := queryStrings(t, db, "SELECT ename FROM EMP WHERE edno NOT IN (SELECT dno FROM DEPT WHERE loc = 'ARC')")
	sortedEqual(t, got, []string{"e4"})
	// NOT IN against a set containing NULL excludes everything.
	if _, err := db.Exec("INSERT INTO DEPT VALUES (99, 'x', NULL)"); err != nil {
		t.Fatal(err)
	}
	got = queryStrings(t, db, "SELECT ename FROM EMP WHERE edno NOT IN (SELECT loc FROM DEPT)")
	if len(got) != 0 {
		t.Fatalf("NOT IN over a NULL-containing set must be empty, got %v", got)
	}
}

func TestScalarSubquery(t *testing.T) {
	db := orgDB(t)
	got := queryStrings(t, db, "SELECT ename FROM EMP WHERE sal = (SELECT MAX(sal) FROM EMP)")
	sortedEqual(t, got, []string{"e5"})
	// Correlated scalar subquery.
	got = queryStrings(t, db, `SELECT d.dname FROM DEPT d
		WHERE (SELECT COUNT(*) FROM EMP e WHERE e.edno = d.dno) = 2`)
	sortedEqual(t, got, []string{"db"})
	// Scalar subquery with more than one row errors.
	if _, err := db.Query("SELECT (SELECT dno FROM DEPT) FROM EMP"); err == nil {
		t.Error("multi-row scalar subquery should error")
	}
}

func TestGroupByHaving(t *testing.T) {
	db := orgDB(t)
	got := queryStrings(t, db, `SELECT edno, COUNT(*), SUM(sal), MIN(sal), MAX(sal)
		FROM EMP WHERE edno IS NOT NULL GROUP BY edno`)
	sortedEqual(t, got, []string{"1|2|300|100|200", "2|1|300|300|300", "3|1|400|400|400"})
	got = queryStrings(t, db, `SELECT edno FROM EMP GROUP BY edno HAVING COUNT(*) > 1`)
	sortedEqual(t, got, []string{"1"})
}

func TestGlobalAggregates(t *testing.T) {
	db := orgDB(t)
	got := queryStrings(t, db, "SELECT COUNT(*), AVG(sal) FROM EMP")
	sortedEqual(t, got, []string{"5|300"})
	// Empty input still yields one row.
	got = queryStrings(t, db, "SELECT COUNT(*), SUM(sal) FROM EMP WHERE eno > 100")
	sortedEqual(t, got, []string{"0|NULL"})
	// COUNT(DISTINCT).
	got = queryStrings(t, db, "SELECT COUNT(DISTINCT edno) FROM EMP")
	sortedEqual(t, got, []string{"3"})
}

func TestAggregateOverJoinGroupedByExpr(t *testing.T) {
	db := orgDB(t)
	got := queryStrings(t, db, `SELECT d.loc, COUNT(*) FROM EMP e, DEPT d
		WHERE e.edno = d.dno GROUP BY d.loc`)
	sortedEqual(t, got, []string{"ARC|3", "HQ|1"})
}

func TestDistinct(t *testing.T) {
	db := orgDB(t)
	got := queryStrings(t, db, "SELECT DISTINCT loc FROM DEPT")
	sortedEqual(t, got, []string{"ARC", "HQ"})
}

func TestOrderByLimit(t *testing.T) {
	db := orgDB(t)
	got := queryStrings(t, db, "SELECT ename FROM EMP ORDER BY sal DESC LIMIT 2")
	if len(got) != 2 || got[0] != "e5" || got[1] != "e4" {
		t.Fatalf("got %v", got)
	}
	got = queryStrings(t, db, "SELECT ename, sal FROM EMP ORDER BY 2")
	if got[0] != "e1|100" {
		t.Fatalf("ordinal order by: %v", got)
	}
}

func TestUnion(t *testing.T) {
	db := orgDB(t)
	got := queryStrings(t, db, "SELECT loc FROM DEPT UNION SELECT ename FROM EMP WHERE eno = 1")
	sortedEqual(t, got, []string{"ARC", "HQ", "e1"})
	got = queryStrings(t, db, "SELECT loc FROM DEPT UNION ALL SELECT loc FROM DEPT")
	if len(got) != 6 {
		t.Fatalf("UNION ALL should keep duplicates: %v", got)
	}
}

func TestDerivedTable(t *testing.T) {
	db := orgDB(t)
	got := queryStrings(t, db, `SELECT s.dname FROM (SELECT dname, loc FROM DEPT WHERE loc = 'ARC') s`)
	sortedEqual(t, got, []string{"db", "os"})
}

func TestViews(t *testing.T) {
	db := orgDB(t)
	if _, err := db.Exec("CREATE VIEW arc_depts AS SELECT * FROM DEPT WHERE loc = 'ARC'"); err != nil {
		t.Fatal(err)
	}
	got := queryStrings(t, db, "SELECT e.ename FROM EMP e, arc_depts d WHERE e.edno = d.dno")
	sortedEqual(t, got, []string{"e1", "e2", "e3"})
	// View over view.
	if _, err := db.Exec("CREATE VIEW arc_names AS SELECT dname FROM arc_depts"); err != nil {
		t.Fatal(err)
	}
	sortedEqual(t, queryStrings(t, db, "SELECT * FROM arc_names"), []string{"db", "os"})
	if _, err := db.Exec("DROP VIEW arc_names"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("SELECT * FROM arc_names"); err == nil {
		t.Error("dropped view should be gone")
	}
}

func TestCaseLikeBetween(t *testing.T) {
	db := orgDB(t)
	got := queryStrings(t, db, `SELECT ename, CASE WHEN sal < 250 THEN 'low' ELSE 'high' END FROM EMP WHERE ename LIKE 'e%' AND eno BETWEEN 1 AND 3`)
	sortedEqual(t, got, []string{"e1|low", "e2|low", "e3|high"})
}

func TestUpdateDelete(t *testing.T) {
	db := orgDB(t)
	n, err := db.Exec("UPDATE EMP SET sal = sal * 2 WHERE edno = 1")
	if err != nil || n != 2 {
		t.Fatalf("update: %d, %v", n, err)
	}
	sortedEqual(t, queryStrings(t, db, "SELECT sal FROM EMP WHERE edno = 1"), []string{"200", "400"})

	// Correlated subquery in UPDATE WHERE.
	n, err = db.Exec(`UPDATE EMP e SET ename = 'arc_emp' WHERE EXISTS (SELECT 1 FROM DEPT d WHERE d.dno = e.edno AND d.loc = 'ARC')`)
	if err != nil || n != 3 {
		t.Fatalf("correlated update: %d, %v", n, err)
	}
	n, err = db.Exec("DELETE FROM EMP WHERE sal >= 400")
	if err != nil || n != 3 {
		t.Fatalf("delete: %d, %v", n, err)
	}
	sortedEqual(t, queryStrings(t, db, "SELECT ename FROM EMP"), []string{"arc_emp", "arc_emp"})
}

func TestInsertSelectAndSubsets(t *testing.T) {
	db := orgDB(t)
	if _, err := db.Exec("CREATE TABLE EMP2 (eno INT NOT NULL, ename VARCHAR, edno INT, sal FLOAT, PRIMARY KEY (eno))"); err != nil {
		t.Fatal(err)
	}
	n, err := db.Exec("INSERT INTO EMP2 SELECT * FROM EMP WHERE sal > 250")
	if err != nil || n != 3 {
		t.Fatalf("insert-select: %d, %v", n, err)
	}
	n, err = db.Exec("INSERT INTO EMP2 (eno, ename) VALUES (100, 'partial')")
	if err != nil || n != 1 {
		t.Fatalf("partial insert: %d, %v", n, err)
	}
	sortedEqual(t, queryStrings(t, db, "SELECT ename, edno FROM EMP2 WHERE eno = 100"), []string{"partial|NULL"})
}

func TestIndexUse(t *testing.T) {
	db := orgDB(t)
	if _, err := db.Exec("CREATE INDEX emp_edno ON EMP (edno)"); err != nil {
		t.Fatal(err)
	}
	plan, err := db.Explain("SELECT e.ename FROM DEPT d, EMP e WHERE d.dno = e.edno AND d.loc = 'HQ'")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "IndexLookup EMP") {
		t.Errorf("expected index nested-loop join, got plan:\n%s", plan)
	}
	got := queryStrings(t, db, "SELECT e.ename FROM DEPT d, EMP e WHERE d.dno = e.edno AND d.loc = 'HQ'")
	sortedEqual(t, got, []string{"e4"})
	// Constant lookup through the primary-key index.
	plan, _ = db.Explain("SELECT ename FROM EMP WHERE eno = 3")
	if !strings.Contains(plan, "IndexLookup EMP.EMP_PK") {
		t.Errorf("expected PK lookup, got:\n%s", plan)
	}
}

func TestExplainShapes(t *testing.T) {
	db := orgDB(t)
	plan, err := db.Explain("SELECT e.ename FROM EMP e, DEPT d WHERE e.edno = d.dno")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "HashJoin") && !strings.Contains(plan, "NLJoin") {
		t.Errorf("plan missing join:\n%s", plan)
	}
	db.OptOptions = opt.NaiveOptions()
	plan, err = db.Explain("SELECT e.ename FROM EMP e, DEPT d WHERE e.edno = d.dno")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan, "HashJoin") || strings.Contains(plan, "IndexLookup") {
		t.Errorf("naive plan must not use hash/index joins:\n%s", plan)
	}
}

// Property-style check: every optimizer mode returns the same multiset for
// a corpus of queries.
func TestOptimizerModesAgree(t *testing.T) {
	corpus := []string{
		"SELECT * FROM EMP",
		"SELECT e.ename, d.dname FROM EMP e, DEPT d WHERE e.edno = d.dno",
		"SELECT e.ename FROM EMP e WHERE EXISTS (SELECT 1 FROM DEPT d WHERE d.dno = e.edno AND d.loc = 'ARC')",
		"SELECT ename FROM EMP WHERE edno IN (SELECT dno FROM DEPT WHERE loc = 'ARC')",
		"SELECT ename FROM EMP WHERE edno NOT IN (SELECT dno FROM DEPT WHERE loc = 'ARC')",
		"SELECT d.loc, COUNT(*) FROM EMP e, DEPT d WHERE e.edno = d.dno GROUP BY d.loc",
		"SELECT e.ename, s.sname FROM EMP e, EMPSKILLS es, SKILLS s WHERE e.eno = es.eseno AND es.essno = s.sno",
		"SELECT ename FROM EMP e WHERE NOT EXISTS (SELECT 1 FROM EMPSKILLS es WHERE es.eseno = e.eno)",
		"SELECT DISTINCT loc FROM DEPT UNION SELECT ename FROM EMP WHERE sal > 400",
		"SELECT ename FROM EMP WHERE sal = (SELECT MAX(sal) FROM EMP)",
		"SELECT d.dname FROM DEPT d WHERE (SELECT COUNT(*) FROM EMP e WHERE e.edno = d.dno) >= 1",
	}
	type mode struct {
		name string
		rw   rewrite.Options
		op   opt.Options
	}
	modes := []mode{
		{"full", rewrite.DefaultOptions(), opt.DefaultOptions()},
		{"no-rewrite", rewrite.NoRewrite(), opt.DefaultOptions()},
		{"naive", rewrite.NoRewrite(), opt.NaiveOptions()},
		{"spool-off", rewrite.DefaultOptions(), opt.Options{HashJoin: true, IndexNL: true, HashedSubplans: true, JoinOrdering: true}},
	}
	for qi, q := range corpus {
		var ref []string
		for _, m := range modes {
			db := orgDB(t)
			db.Exec("CREATE INDEX emp_edno ON EMP (edno)")
			db.RewriteOptions = m.rw
			db.OptOptions = m.op
			got := queryStrings(t, db, q)
			sort.Strings(got)
			if m.name == "full" {
				ref = got
				continue
			}
			if fmt.Sprint(got) != fmt.Sprint(ref) {
				t.Errorf("query %d under %s differs:\n full: %v\n %s: %v\n query: %s", qi, m.name, ref, m.name, got, q)
			}
		}
	}
}

func TestDDLErrors(t *testing.T) {
	db := orgDB(t)
	if _, err := db.Exec("CREATE TABLE DEPT (x INT)"); err == nil {
		t.Error("duplicate table should fail")
	}
	if _, err := db.Query("SELECT * FROM nosuch"); err == nil {
		t.Error("unknown table should fail")
	}
	if _, err := db.Query("SELECT nosuchcol FROM EMP"); err == nil {
		t.Error("unknown column should fail")
	}
	if _, err := db.Query("SELECT eno FROM EMP, DEPT WHERE dname = ename AND eno = dno GROUP BY eno HAVING ename > 'a'"); err == nil {
		t.Error("HAVING over non-grouped column should fail")
	}
	if _, err := db.Query("SELECT ename FROM EMP WHERE sal = 'text'"); err == nil {
		t.Error("type mismatch should fail")
	}
}

func TestSelectNoFrom(t *testing.T) {
	db := orgDB(t)
	got := queryStrings(t, db, "SELECT 1 + 2, 'x'")
	sortedEqual(t, got, []string{"3|x"})
}

var _ = types.Null

// TestUTF8Identifiers pins that non-ASCII names lex and resolve through
// DDL, DML and queries.
func TestUTF8Identifiers(t *testing.T) {
	db := Open()
	if err := db.ExecScript("CREATE TABLE té (a INT, ñ TEXT); INSERT INTO té VALUES (1, 'x')"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT ñ FROM té WHERE a = 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].S != "x" || res.Cols[0].Name != "ñ" {
		t.Fatalf("SELECT ñ FROM té = %v %v", res.Cols, res.Rows)
	}
}
