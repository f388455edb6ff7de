package xnf

import (
	"strings"
	"testing"

	"xnf/internal/workload"
)

func exampleDB(t testing.TB) *DB {
	t.Helper()
	db := Open()
	if err := workload.LoadOrg(db.Engine(), workload.OrgParams{
		Depts: 6, EmpsPerDept: 5, ProjsPerDept: 2,
		Skills: 15, SkillsPerEmp: 2, SkillsPerProj: 2,
		ArcFraction: 0.5, Seed: 11,
	}); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestPublicSQL(t *testing.T) {
	db := exampleDB(t)
	res, err := db.Query("SELECT COUNT(*) FROM EMP")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 30 {
		t.Errorf("emp count = %v", res.Rows[0][0])
	}
	plan, err := db.Explain("SELECT * FROM EMP e, DEPT d WHERE e.edno = d.dno")
	if err != nil || plan == "" {
		t.Errorf("explain: %v", err)
	}
}

func TestPublicQueryCOByViewName(t *testing.T) {
	db := exampleDB(t)
	cache, err := db.QueryCO("deps_ARC")
	if err != nil {
		t.Fatal(err)
	}
	xdept, ok := cache.Component("xdept")
	if !ok || xdept.Len() != 3 {
		t.Fatalf("xdept = %d", xdept.Len())
	}
	xemp, _ := cache.Component("xemp")
	if xemp.Len() != 15 {
		t.Errorf("xemp = %d", xemp.Len())
	}
}

func TestPublicQueryCOInline(t *testing.T) {
	db := exampleDB(t)
	cache, err := db.QueryCO(`OUT OF d AS (SELECT * FROM DEPT WHERE loc = 'ARC'),
		e AS EMP,
		employs AS (RELATE d VIA EMPLOYS, e WHERE d.dno = e.edno)
		TAKE *`)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := cache.Component("d")
	for _, dept := range d.Objects() {
		for _, emp := range dept.Children("employs") {
			if emp.MustGet("edno").I != dept.MustGet("dno").I {
				t.Fatal("connection mismatch")
			}
		}
	}
}

func TestPublicWriteBack(t *testing.T) {
	db := exampleDB(t)
	cache, err := db.QueryCO("deps_ARC")
	if err != nil {
		t.Fatal(err)
	}
	xemp, _ := cache.Component("xemp")
	e := xemp.Objects()[0]
	if err := cache.Set(e, "sal", NewFloat(12345)); err != nil {
		t.Fatal(err)
	}
	if err := db.SaveChanges(cache); err != nil {
		t.Fatal(err)
	}
	res, _ := db.Query("SELECT COUNT(*) FROM EMP WHERE sal = 12345")
	if res.Rows[0][0].I != 1 {
		t.Error("write-back lost")
	}
}

func TestPublicTable1(t *testing.T) {
	db := exampleDB(t)
	table, err := db.AnalyzeTable1("deps_ARC")
	if err != nil {
		t.Fatal(err)
	}
	if table.SQLTotal != 23 || table.XNFTotal != 7 {
		t.Errorf("table 1 = %d/%d/%d", table.SQLTotal, table.ReplicatedTotal, table.XNFTotal)
	}
	if !strings.Contains(table.Format(), "Summary") {
		t.Error("format missing summary")
	}
}

func TestNaiveVsFullAgree(t *testing.T) {
	db := exampleDB(t)
	full, err := db.Query("SELECT ename FROM EMP e WHERE EXISTS (SELECT 1 FROM DEPT d WHERE d.dno = e.edno AND d.loc = 'ARC') ORDER BY ename")
	if err != nil {
		t.Fatal(err)
	}
	db.Naive()
	naive, err := db.Query("SELECT ename FROM EMP e WHERE EXISTS (SELECT 1 FROM DEPT d WHERE d.dno = e.edno AND d.loc = 'ARC') ORDER BY ename")
	if err != nil {
		t.Fatal(err)
	}
	db.Full()
	if len(full.Rows) != len(naive.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(full.Rows), len(naive.Rows))
	}
	for i := range full.Rows {
		if full.Rows[i].String() != naive.Rows[i].String() {
			t.Fatalf("row %d differs", i)
		}
	}
}

func TestPublicPreparedStatements(t *testing.T) {
	db := exampleDB(t)
	stmt, err := db.Prepare("SELECT ename FROM EMP WHERE edno = ?")
	if err != nil {
		t.Fatal(err)
	}
	for dno := int64(1); dno <= 3; dno++ {
		res, err := stmt.Query(NewInt(dno))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 5 {
			t.Fatalf("dept %d: %d employees, want 5", dno, len(res.Rows))
		}
	}
	// Exactly one compile for the statement, however many executions.
	if c := db.Engine().Metrics.Compiles.Load(); c != 1 {
		t.Errorf("compiles = %d, want 1", c)
	}
}

func TestCOViewCompilationCached(t *testing.T) {
	db := exampleDB(t)
	for i := 0; i < 3; i++ {
		if _, err := db.QueryCO("deps_ARC"); err != nil {
			t.Fatal(err)
		}
	}
	m := &db.Engine().Metrics
	if m.COPlanCompiles.Load() != 1 || m.COPlanCacheHits.Load() != 2 {
		t.Errorf("CO compiles=%d hits=%d, want 1/2", m.COPlanCompiles.Load(), m.COPlanCacheHits.Load())
	}
	// DDL on a table the view does not read keeps the compiled view.
	db.MustExec("CREATE TABLE extra (a INT NOT NULL, PRIMARY KEY (a))")
	if _, err := db.QueryCO("deps_ARC"); err != nil {
		t.Fatal(err)
	}
	if m.COPlanCompiles.Load() != 1 {
		t.Errorf("CO view recompiled after unrelated DDL: %d", m.COPlanCompiles.Load())
	}
	// DDL on a table it reads invalidates it.
	db.MustExec("CREATE INDEX emp_sal ON EMP (sal)")
	if _, err := db.QueryCO("deps_ARC"); err != nil {
		t.Fatal(err)
	}
	if m.COPlanCompiles.Load() != 2 {
		t.Errorf("CO view not recompiled after DDL on EMP: %d", m.COPlanCompiles.Load())
	}
}
