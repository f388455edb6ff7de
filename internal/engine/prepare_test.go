package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"xnf/internal/types"
)

func TestPlaceholderQuery(t *testing.T) {
	db := orgDB(t)
	stmt, err := db.Prepare("SELECT ename FROM EMP WHERE edno = ? AND sal > ?")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.NumParams() != 2 {
		t.Fatalf("NumParams = %d, want 2", stmt.NumParams())
	}
	res, err := stmt.Query(types.NewInt(1), types.NewFloat(50))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		got[i] = r.String()
	}
	sortedEqual(t, got, []string{"e1", "e2"})

	// Same statement, different binding — no recompile, different result.
	before := db.Metrics.Compiles.Load()
	res, err = stmt.Query(types.NewInt(1), types.NewFloat(150))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].String() != "e2" {
		t.Fatalf("rebinding: got %v", res.Rows)
	}
	if db.Metrics.Compiles.Load() != before {
		t.Fatalf("rebinding recompiled: %d -> %d", before, db.Metrics.Compiles.Load())
	}
}

func TestPlaceholderInSubquery(t *testing.T) {
	db := orgDB(t)
	// The placeholder sits inside a correlated subquery: it must be routed
	// through the subplan's parameter frame, not read from the top frame.
	res, err := db.Query(
		"SELECT dname FROM DEPT d WHERE EXISTS (SELECT 1 FROM EMP e WHERE e.edno = d.dno AND e.sal > ?)",
		types.NewFloat(250))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		got[i] = r.String()
	}
	sortedEqual(t, got, []string{"apps", "os"})

	// And inside an IN subquery, which keeps the hashed subplan strategy
	// (see TestPlaceholderSubqueryKeepsHashedStrategy).
	res, err = db.Query(
		"SELECT ename FROM EMP WHERE edno IN (SELECT dno FROM DEPT WHERE loc = ?)",
		types.NewString("ARC"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("IN subquery with placeholder: got %d rows, want 3", len(res.Rows))
	}
}

func TestPlaceholderDML(t *testing.T) {
	db := orgDB(t)
	ins, err := db.Prepare("INSERT INTO SKILLS VALUES (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 13; i++ {
		if _, err := ins.Exec(types.NewInt(int64(i)), types.NewString(fmt.Sprintf("s%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := queryStrings(t, db, "SELECT sname FROM SKILLS WHERE sno >= 10"); len(got) != 3 {
		t.Fatalf("prepared INSERT: got %v", got)
	}
	if _, err := db.Exec("UPDATE SKILLS SET sname = ? WHERE sno = ?", types.NewString("zzz"), types.NewInt(10)); err != nil {
		t.Fatal(err)
	}
	sortedEqual(t, queryStrings(t, db, "SELECT sname FROM SKILLS WHERE sno = 10"), []string{"zzz"})
	if n, err := db.Exec("DELETE FROM SKILLS WHERE sno >= ?", types.NewInt(10)); err != nil || n != 3 {
		t.Fatalf("prepared DELETE: n=%d err=%v", n, err)
	}
}

func TestArgCountMismatch(t *testing.T) {
	db := orgDB(t)
	stmt, err := db.Prepare("SELECT * FROM EMP WHERE eno = ?")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Query(); err == nil {
		t.Fatal("missing argument accepted")
	}
	if _, err := stmt.Query(types.NewInt(1), types.NewInt(2)); err == nil {
		t.Fatal("extra argument accepted")
	}
}

func TestPlaceholderRejectedInViewsAndDDL(t *testing.T) {
	db := orgDB(t)
	if _, err := db.Exec("CREATE VIEW v1 AS SELECT * FROM EMP WHERE sal > ?"); err == nil {
		t.Fatal("placeholder in view definition accepted")
	}
}

func TestPlanCacheSkipsCompile(t *testing.T) {
	db := orgDB(t)
	const q = "SELECT ename FROM EMP WHERE sal > 250"
	first := queryStrings(t, db, q)
	compiles := db.Metrics.Compiles.Load()
	for i := 0; i < 5; i++ {
		sortedEqual(t, queryStrings(t, db, q), first)
	}
	if got := db.Metrics.Compiles.Load(); got != compiles {
		t.Fatalf("cached statement recompiled: %d -> %d", compiles, got)
	}
	// Token-equivalent text (keyword case, whitespace) shares the entry.
	sortedEqual(t, queryStrings(t, db, "select  ename  from EMP\nwhere sal > 250"), first)
	if got := db.Metrics.Compiles.Load(); got != compiles {
		t.Fatalf("normalized variant recompiled: %d -> %d", compiles, got)
	}
	if hits := db.Metrics.CacheHits.Load(); hits < 6 {
		t.Fatalf("expected ≥6 cache hits, got %d", hits)
	}
}

func TestDDLAndAnalyzeInvalidatePlans(t *testing.T) {
	db := orgDB(t)
	const q = "SELECT ename FROM EMP WHERE edno = 2"
	queryStrings(t, db, q)
	base := db.Metrics.Compiles.Load()

	// DDL must invalidate: after the index exists the plan should change
	// (and at minimum be recompiled).
	if _, err := db.Exec("CREATE INDEX emp_edno ON EMP (edno)"); err != nil {
		t.Fatal(err)
	}
	queryStrings(t, db, q)
	afterIdx := db.Metrics.Compiles.Load()
	if afterIdx == base {
		t.Fatal("CREATE INDEX did not invalidate the cached plan")
	}
	plan, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "IndexLookup") {
		t.Fatalf("expected IndexLookup after CREATE INDEX, got:\n%s", plan)
	}

	// ANALYZE must invalidate (fresh statistics change costing).
	pre := db.Metrics.Compiles.Load()
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	queryStrings(t, db, q)
	if db.Metrics.Compiles.Load() == pre {
		t.Fatal("ANALYZE did not invalidate the cached plan")
	}

	// DROP + re-CREATE with a different shape: the stale plan must not
	// leak the old schema.
	if err := db.ExecScript(`
DROP TABLE SKILLS;
CREATE TABLE SKILLS (sno INT NOT NULL, sname VARCHAR, level INT, PRIMARY KEY (sno));
INSERT INTO SKILLS VALUES (1, 'sql', 9);
`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT * FROM SKILLS")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cols) != 3 {
		t.Fatalf("stale plan survived DROP/CREATE: %d columns", len(res.Cols))
	}
}

func TestOptimizerOptionsInvalidatePlans(t *testing.T) {
	db := orgDB(t)
	const q = "SELECT e.ename FROM EMP e, DEPT d WHERE e.edno = d.dno AND d.loc = 'ARC'"
	queryStrings(t, db, q)
	base := db.Metrics.Compiles.Load()
	// Flipping the optimizer options must not serve the old plan.
	db.OptOptions.HashJoin = false
	db.OptOptions.IndexNL = false
	queryStrings(t, db, q)
	if db.Metrics.Compiles.Load() == base {
		t.Fatal("option flip served a stale plan")
	}
}

func TestPlanCacheLRUEviction(t *testing.T) {
	db := orgDB(t)
	db.SetPlanCacheCapacity(4)
	// LIMIT operands stay in the cache key, so each text is its own shape.
	for i := 0; i < 10; i++ {
		queryStrings(t, db, fmt.Sprintf("SELECT ename FROM EMP WHERE eno = 1 LIMIT %d", i))
	}
	if n := db.PlanCacheLen(); n != 4 {
		t.Fatalf("cache len = %d, want 4", n)
	}
	// Capacity 0 disables caching entirely.
	db.SetPlanCacheCapacity(0)
	pre := db.Metrics.Compiles.Load()
	queryStrings(t, db, "SELECT ename FROM EMP WHERE eno = 1")
	queryStrings(t, db, "SELECT ename FROM EMP WHERE eno = 1")
	if got := db.Metrics.Compiles.Load(); got != pre+2 {
		t.Fatalf("disabled cache still caching: %d compiles, want %d", got-pre, 2)
	}
}

// TestPlanCacheConcurrency hammers one database's plan cache from many
// goroutines with a mix of prepared queries, ad-hoc queries, DML, DDL and
// ANALYZE. Run with -race; correctness here is "no race, no error, right
// row shape", not specific rows (DDL churn happens mid-flight).
// TestPlanCacheSingleFlight pins the in-flight table behind Prepare: the
// first caller to miss on a key leads, later callers get the leader's
// flight and its result, and a failed compile is not cached — the next
// caller leads again.
func TestPlanCacheSingleFlight(t *testing.T) {
	pc := newPlanCache(4)
	k := planKey{norm: "SELECT 1"}
	_, fl, leader := pc.lookup(k)
	if !leader {
		t.Fatal("first miss did not lead")
	}
	_, waiter, leader2 := pc.lookup(k)
	if leader2 || waiter != fl {
		t.Fatal("second miss on the same key did not join the leader's flight")
	}
	if _, _, otherLeads := pc.lookup(planKey{norm: "SELECT 1", version: 1}); !otherLeads {
		t.Fatal("a different catalog version joined the flight")
	}
	boom := fmt.Errorf("boom")
	pc.finish(k, fl, nil, boom)
	<-waiter.done
	if waiter.err != boom || waiter.st != nil {
		t.Fatalf("waiter got (%v, %v), want the leader's error", waiter.st, waiter.err)
	}
	if _, fl3, leader3 := pc.lookup(k); !leader3 || fl3 == fl {
		t.Fatal("a failed compile was kept: the next caller did not lead a fresh flight")
	}
}

func TestPlanCacheConcurrency(t *testing.T) {
	db := orgDB(t)
	const goroutines = 8
	const iters = 60
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			stmt, err := db.Prepare("SELECT ename FROM EMP WHERE edno = ?")
			if err != nil {
				errc <- err
				return
			}
			private := fmt.Sprintf("T_%d", g)
			for i := 0; i < iters; i++ {
				switch i % 6 {
				case 0, 1:
					if _, err := stmt.Query(types.NewInt(int64(i%4 + 1))); err != nil {
						errc <- err
						return
					}
				case 2:
					res, err := db.Query("SELECT ename, sal FROM EMP WHERE sal > ?", types.NewFloat(float64(i)))
					if err != nil {
						errc <- err
						return
					}
					for _, r := range res.Rows {
						if len(r) != 2 {
							errc <- fmt.Errorf("row width %d, want 2", len(r))
							return
						}
					}
				case 3:
					// Private-table DDL churn: bumps the catalog version and
					// invalidates everyone's cached plans mid-flight.
					if _, err := db.Exec(fmt.Sprintf("CREATE TABLE %s (a INT NOT NULL, PRIMARY KEY (a))", private)); err != nil {
						errc <- err
						return
					}
					if _, err := db.Exec(fmt.Sprintf("INSERT INTO %s VALUES (?)", private), types.NewInt(int64(i))); err != nil {
						errc <- err
						return
					}
					if _, err := db.Exec(fmt.Sprintf("DROP TABLE %s", private)); err != nil {
						errc <- err
						return
					}
				case 4:
					if err := db.Analyze(); err != nil {
						errc <- err
						return
					}
				case 5:
					if _, err := db.Prepare("SELECT COUNT(*) FROM DEPT WHERE loc = ?"); err != nil {
						errc <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

func TestPreparedInsertSelectCompilesOnce(t *testing.T) {
	db := orgDB(t)
	if err := db.ExecScript(`CREATE TABLE EMPCOPY (eno INT NOT NULL, ename VARCHAR, PRIMARY KEY (eno))`); err != nil {
		t.Fatal(err)
	}
	stmt, err := db.Prepare("INSERT INTO EMPCOPY SELECT eno + ?, ename FROM EMP WHERE edno = 1")
	if err != nil {
		t.Fatal(err)
	}
	base := db.Metrics.Compiles.Load()
	for i := 0; i < 3; i++ {
		if n, err := stmt.Exec(types.NewInt(int64(i * 100))); err != nil || n != 2 {
			t.Fatalf("exec %d: n=%d err=%v", i, n, err)
		}
	}
	if got := db.Metrics.Compiles.Load(); got != base {
		t.Fatalf("prepared INSERT…SELECT recompiled per exec: %d -> %d", base, got)
	}
	if got := queryStrings(t, db, "SELECT COUNT(*) FROM EMPCOPY"); got[0] != "6" {
		t.Fatalf("rows inserted = %v, want 6", got)
	}
}

func TestPlaceholderSubqueryKeepsHashedStrategy(t *testing.T) {
	db := orgDB(t)
	// Plain IN/EXISTS forms are rewritten to joins regardless of
	// placeholders; NOT IN is where the hashed-subplan strategy carries
	// the load, and the prepared form must not degrade to per-row rerun —
	// placeholders are execution constants, not correlation.
	const lit = "SELECT ename FROM EMP WHERE edno NOT IN (SELECT dno FROM DEPT WHERE loc = 'ARC')"
	const ph = "SELECT ename FROM EMP WHERE edno NOT IN (SELECT dno FROM DEPT WHERE loc = ?)"
	litPlan, err := db.Explain(lit)
	if err != nil {
		t.Fatal(err)
	}
	phPlan, err := db.Explain(ph)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(litPlan, "hashed") {
		t.Fatalf("literal form not hashed:\n%s", litPlan)
	}
	if !strings.Contains(phPlan, "hashed") {
		t.Fatalf("placeholder form lost the hashed strategy:\n%s", phPlan)
	}
	// And the bound execution matches the literal form per binding
	// (including three-valued logic: e5's NULL edno never qualifies).
	res, err := db.Query(ph, types.NewString("ARC"))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		got[i] = r.String()
	}
	sortedEqual(t, got, []string{"e4"})
	res, err = db.Query(ph, types.NewString("HQ"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("HQ binding rows = %d, want 3", len(res.Rows))
	}
}

func TestUnparameterizedDMLNotCached(t *testing.T) {
	db := orgDB(t)
	db.SetPlanCacheCapacity(4)
	queryStrings(t, db, "SELECT COUNT(*) FROM DEPT") // hot compiled plan
	if db.PlanCacheLen() != 1 {
		t.Fatalf("cache len = %d", db.PlanCacheLen())
	}
	// A bulk load of distinct multi-row literal inserts must not flush the
	// LRU: their literals are never lifted, so each text is a one-shot.
	for i := 600; i < 650; i += 2 {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO SKILLS VALUES (%d, 's'), (%d, 't')", i, i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if db.PlanCacheLen() != 1 {
		t.Fatalf("literal DML polluted the cache: len = %d", db.PlanCacheLen())
	}
	pre := db.Metrics.Compiles.Load()
	queryStrings(t, db, "SELECT COUNT(*) FROM DEPT")
	if db.Metrics.Compiles.Load() != pre {
		t.Fatal("hot plan was evicted by literal DML")
	}
}

func TestRetainedStmtRevalidatesAfterDDL(t *testing.T) {
	db := orgDB(t)
	if err := db.ExecScript(`
CREATE TABLE RT (a INT NOT NULL, b VARCHAR, PRIMARY KEY (a));
INSERT INTO RT VALUES (1, 'one');
`); err != nil {
		t.Fatal(err)
	}
	stmt, err := db.Prepare("SELECT a, b FROM RT WHERE a = ?")
	if err != nil {
		t.Fatal(err)
	}
	res, err := stmt.Query(types.NewInt(1))
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("before DDL: %v, %v", res, err)
	}
	// Recreate the table with a permuted column order: a retained handle
	// must re-prepare, not evaluate the old ordinals (which would silently
	// return no rows).
	if err := db.ExecScript(`
DROP TABLE RT;
CREATE TABLE RT (b VARCHAR, a INT NOT NULL, extra INT, PRIMARY KEY (a));
INSERT INTO RT VALUES ('one', 1, 99);
`); err != nil {
		t.Fatal(err)
	}
	res, err = stmt.Query(types.NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].String() != "1|one" {
		t.Fatalf("retained handle ran a stale plan: %v", res.Rows)
	}
	// Dropping the table gives a clean error, not a stale execution.
	if _, err := db.Exec("DROP TABLE RT"); err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Query(types.NewInt(1)); err == nil {
		t.Fatal("query against dropped table should fail")
	}
}
