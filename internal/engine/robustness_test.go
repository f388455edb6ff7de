package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"xnf/internal/resource"
	"xnf/internal/types"
)

// TestRevalidateDepInvalidation exercises per-dependency plan invalidation:
// a prepared statement survives DDL and ANALYZE on tables it never touches
// (re-stamped in place, no recompile), and is recompiled the moment one of
// its own dependencies changes.
func TestRevalidateDepInvalidation(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE ta (k INT NOT NULL, v INT, PRIMARY KEY (k))")
	mustExec(t, db, "CREATE TABLE tb (k INT NOT NULL, v INT, PRIMARY KEY (k))")
	mustExec(t, db, "INSERT INTO ta VALUES (1, 10)")
	mustExec(t, db, "INSERT INTO tb VALUES (1, 20)")

	st, err := db.Prepare("SELECT v FROM ta WHERE k = ?")
	if err != nil {
		t.Fatal(err)
	}
	if !st.depsKnown || len(st.deps) != 1 || st.deps[0] != "TA" {
		t.Fatalf("deps = %v (known=%v), want [TA]", st.deps, st.depsKnown)
	}

	// Unrelated DDL and ANALYZE bump the global catalog version but not
	// TA's: revalidation must keep the compiled plan.
	mustExec(t, db, "CREATE TABLE tc (k INT NOT NULL, PRIMARY KEY (k))")
	mustExec(t, db, "ANALYZE tb")
	st2, err := st.Revalidate()
	if err != nil {
		t.Fatal(err)
	}
	if st2 != st {
		t.Fatal("DDL/ANALYZE on unrelated tables recompiled the statement")
	}

	// ANALYZE on the dependency itself must force a recompile.
	mustExec(t, db, "ANALYZE ta")
	st3, err := st.Revalidate()
	if err != nil {
		t.Fatal(err)
	}
	if st3 == st {
		t.Fatal("ANALYZE on a dependency did not recompile the statement")
	}
	res, err := st3.Query(types.NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 10 {
		t.Fatalf("recompiled statement returned %v, want [[10]]", res.Rows)
	}
}

// TestRevalidateViewDeps checks that a statement over a view depends on the
// view AND its underlying tables, so ANALYZE on the base table invalidates
// plans compiled through the view.
func TestRevalidateViewDeps(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE base (k INT NOT NULL, v INT, PRIMARY KEY (k))")
	mustExec(t, db, "INSERT INTO base VALUES (1, 7)")
	mustExec(t, db, "CREATE VIEW vw AS SELECT k, v FROM base")

	st, err := db.Prepare("SELECT v FROM vw WHERE k = 1")
	if err != nil {
		t.Fatal(err)
	}
	has := func(name string) bool {
		for _, d := range st.deps {
			if d == name {
				return true
			}
		}
		return false
	}
	if !st.depsKnown || !has("VW") || !has("BASE") {
		t.Fatalf("deps = %v, want both VW and BASE", st.deps)
	}
	mustExec(t, db, "ANALYZE base")
	st2, err := st.Revalidate()
	if err != nil {
		t.Fatal(err)
	}
	if st2 == st {
		t.Fatal("ANALYZE on the view's base table did not invalidate the plan")
	}
}

// TestPlanCacheDepInvalidation covers the implicit cache behind Query/Exec:
// unrelated catalog churn must keep serving the cached plan, dependency
// churn must evict it.
func TestPlanCacheDepInvalidation(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE ta (k INT NOT NULL, v INT, PRIMARY KEY (k))")
	mustExec(t, db, "CREATE TABLE tb (k INT NOT NULL, v INT, PRIMARY KEY (k))")
	mustExec(t, db, "INSERT INTO ta VALUES (1, 10)")

	const q = "SELECT v FROM ta WHERE k = 1"
	n, err := normalizeSQL(q)
	if err != nil {
		t.Fatal(err)
	}
	norm := n.key
	hits := func() int64 {
		for _, e := range db.CacheStats() {
			if e.SQL == norm {
				return e.Hits
			}
		}
		return -1
	}
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	before := hits()
	if before < 1 {
		t.Fatalf("cache hits = %d after a repeat, want >= 1", before)
	}

	// Churn on TB: the TA plan must be served from cache, not recompiled.
	mustExec(t, db, "ANALYZE tb")
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	if after := hits(); after != before+1 {
		t.Fatalf("hits went %d -> %d across unrelated ANALYZE, want a cache hit", before, after)
	}

	// Churn on TA: the entry must be evicted and recompiled fresh.
	mustExec(t, db, "ANALYZE ta")
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	if after := hits(); after >= before+2 {
		t.Fatalf("hits = %d after dependency ANALYZE, want a recompile (fresh entry)", after)
	}
}

// TestStatementTimeoutOption proves Options.StatementTimeout cuts off a
// long statement with a deadline error the wire layer maps to CodeTimeout.
func TestStatementTimeoutOption(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE big (k INT NOT NULL, PRIMARY KEY (k))")
	for i := int64(0); i < 100; i++ {
		mustExec(t, db, "INSERT INTO big VALUES (?)", types.NewInt(i))
	}
	db.Options.StatementTimeout = time.Millisecond
	start := time.Now()
	_, err := db.Query("SELECT A.k FROM big A, big B, big C ORDER BY A.k DESC")
	if err == nil {
		t.Fatal("a 1ms timeout let a million-row cross join finish")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timeout surfaced as %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("statement ran %v past its 1ms deadline", d)
	}
}

// TestMemBudgetTypedError: when the process budget cannot hold a statement
// even in degraded mode, the failure is the typed retryable kind.
func TestMemBudgetTypedError(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE big (k INT NOT NULL, v INT, PRIMARY KEY (k))")
	for i := int64(0); i < 2000; i++ {
		mustExec(t, db, "INSERT INTO big VALUES (?, ?)", types.NewInt(i), types.NewInt(i%17))
	}
	db.SetMemBudget(2048)
	defer db.SetMemBudget(0)
	_, err := db.Query("SELECT k, v FROM big ORDER BY v, k DESC")
	if err == nil {
		t.Fatal("a 2KB budget admitted a 2000-row sort")
	}
	if !errors.Is(err, resource.ErrResourceExhausted) {
		t.Fatalf("budget failure surfaced as %v, want ErrResourceExhausted", err)
	}
	if n := db.MemUsed(); n != 0 {
		t.Fatalf("reserved bytes after failed statement = %d, want 0", n)
	}
}
