package engine

import (
	"strings"
	"testing"

	"xnf/internal/types"
)

// TestAnalyzeStatement covers the ANALYZE SQL verb: whole-database and
// single-table forms, statistics refresh, and catalog-version bumping
// (cached plans must recompile afterwards, exactly like the Go API).
func TestAnalyzeStatement(t *testing.T) {
	db := orgDB(t)
	queryStrings(t, db, "SELECT ename FROM EMP WHERE sal > 250")
	before := db.cat.Version()
	compiles := db.Metrics.Compiles.Load()

	if _, err := db.Exec("ANALYZE"); err != nil {
		t.Fatalf("ANALYZE: %v", err)
	}
	if db.cat.Version() == before {
		t.Fatal("ANALYZE did not bump the catalog version")
	}
	queryStrings(t, db, "SELECT ename FROM EMP WHERE sal > 250")
	if db.Metrics.Compiles.Load() == compiles {
		t.Fatal("ANALYZE did not invalidate the cached plan")
	}

	// Single-table form refreshes that table's column stats.
	if _, err := db.Exec("INSERT INTO DEPT VALUES (4, 'qa', 'LAB')"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("ANALYZE DEPT"); err != nil {
		t.Fatalf("ANALYZE DEPT: %v", err)
	}
	tbl, _ := db.cat.Table("DEPT")
	if got := tbl.Cardinality("loc"); got != 3 {
		t.Fatalf("ANALYZE DEPT did not refresh stats: loc cardinality = %d, want 3", got)
	}
	if _, err := db.Exec("ANALYZE NOSUCH"); err == nil {
		t.Fatal("ANALYZE of a missing table must fail")
	}
	// ANALYZE also arrives through scripts (the shell path).
	if err := db.ExecScript("ANALYZE; ANALYZE EMP;"); err != nil {
		t.Fatalf("scripted ANALYZE: %v", err)
	}
}

// TestPreparedDMLCompiledOnce verifies that prepared UPDATE/DELETE (and
// INSERT VALUES) carry their compiled predicate/assignments with the
// statement and stay correct across executions and DDL invalidation.
func TestPreparedDMLCompiledOnce(t *testing.T) {
	db := orgDB(t)
	up, err := db.Prepare("UPDATE EMP SET sal = sal + ? WHERE edno = ?")
	if err != nil {
		t.Fatal(err)
	}
	if up.mut == nil {
		t.Fatal("prepared UPDATE did not precompile its mutation")
	}
	if n, err := up.Exec(types.NewFloat(10), types.NewInt(1)); err != nil || n != 2 {
		t.Fatalf("prepared UPDATE: n=%d err=%v", n, err)
	}
	if n, err := up.Exec(types.NewFloat(10), types.NewInt(1)); err != nil || n != 2 {
		t.Fatalf("prepared UPDATE rerun: n=%d err=%v", n, err)
	}
	got := queryStrings(t, db, "SELECT sal FROM EMP WHERE eno = 1")
	sortedEqual(t, got, []string{"120"})

	del, err := db.Prepare("DELETE FROM EMP WHERE sal > ?")
	if err != nil {
		t.Fatal(err)
	}
	if del.mut == nil {
		t.Fatal("prepared DELETE did not precompile its mutation")
	}
	if n, err := del.Exec(types.NewFloat(450)); err != nil || n != 1 {
		t.Fatalf("prepared DELETE: n=%d err=%v", n, err)
	}

	ins, err := db.Prepare("INSERT INTO EMP VALUES (?, ?, ?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	if ins.insertRows == nil {
		t.Fatal("prepared INSERT did not precompile its VALUES expressions")
	}
	if n, err := ins.Exec(types.NewInt(10), types.NewString("e10"), types.NewInt(2), types.NewFloat(50)); err != nil || n != 1 {
		t.Fatalf("prepared INSERT: n=%d err=%v", n, err)
	}

	// DDL invalidates: the retained handle must recompile and keep working.
	if _, err := db.Exec("CREATE INDEX emp_edno ON EMP (edno)"); err != nil {
		t.Fatal(err)
	}
	if n, err := up.Exec(types.NewFloat(5), types.NewInt(2)); err != nil || n != 2 {
		t.Fatalf("prepared UPDATE after DDL: n=%d err=%v", n, err)
	}
}

// TestCOPlanTemplateCache verifies that repeated extraction of a stored CO
// view compiles the per-output physical plans once and reuses them until
// the catalog version changes.
func TestCOPlanTemplateCache(t *testing.T) {
	db := orgDB(t)
	if err := db.ExecScript(`CREATE VIEW deps AS
OUT OF d AS (SELECT * FROM DEPT WHERE loc = 'ARC'),
       e AS EMP,
       employs AS (RELATE d, e WHERE d.dno = e.edno)
TAKE *`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExtractCOView("deps", false); err != nil {
		t.Fatal(err)
	}
	if db.Metrics.COPlanCompiles.Load() != 1 {
		t.Fatalf("first extraction compiled %d plan sets, want 1", db.Metrics.COPlanCompiles.Load())
	}
	if _, err := db.ExtractCOView("deps", false); err != nil {
		t.Fatal(err)
	}
	if db.Metrics.COPlanCompiles.Load() != 1 {
		t.Fatalf("second extraction recompiled plans (%d sets)", db.Metrics.COPlanCompiles.Load())
	}
	if db.Metrics.COPlanCacheHits.Load() == 0 {
		t.Fatal("second extraction did not hit the plan-template cache")
	}
	// DDL invalidates the templates along with the compilation.
	if _, err := db.Exec("ANALYZE"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExtractCOView("deps", false); err != nil {
		t.Fatal(err)
	}
	if db.Metrics.COPlanCompiles.Load() != 2 {
		t.Fatalf("extraction after ANALYZE reused stale templates (%d sets)", db.Metrics.COPlanCompiles.Load())
	}
}

// TestCacheStatsHitCounters verifies the per-entry observability the
// eviction-tuning roadmap item needs: hit counts per normalized statement,
// MRU-first.
func TestCacheStatsHitCounters(t *testing.T) {
	db := orgDB(t)
	const q = "SELECT ename FROM EMP WHERE sal > 250"
	for i := 0; i < 3; i++ {
		queryStrings(t, db, q)
	}
	queryStrings(t, db, "SELECT COUNT(*) FROM DEPT")
	stats := db.CacheStats()
	if len(stats) < 2 {
		t.Fatalf("CacheStats returned %d entries, want >= 2", len(stats))
	}
	if !strings.Contains(stats[0].SQL, "COUNT") {
		t.Fatalf("MRU entry = %q, want the COUNT query first", stats[0].SQL)
	}
	var hits int64 = -1
	for _, e := range stats {
		if strings.Contains(e.SQL, "SAL > 250") {
			hits = e.Hits
		}
	}
	if hits != 2 {
		t.Fatalf("hot entry hits = %d, want 2 (three runs, first is the compile miss)", hits)
	}
}
