package engine

import (
	"strings"
	"testing"

	"xnf/internal/types"
)

func statsDB(t *testing.T) *Database {
	t.Helper()
	db := Open()
	mustExec := func(sql string) {
		t.Helper()
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustExec("CREATE TABLE t (id INT NOT NULL, v TEXT, PRIMARY KEY (id))")
	mustExec("ALTER TABLE t SET STORAGE COLUMN")
	for i := 1; i <= 5; i++ {
		if _, err := db.Exec("INSERT INTO t VALUES (?, ?)",
			types.Value{T: types.IntType, I: int64(i)}, types.Value{T: types.StringType, S: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestStatementMetrics(t *testing.T) {
	db := statsDB(t)
	reg := db.Registry()

	if _, err := db.Query("SELECT id FROM t"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("UPDATE t SET v = 'y' WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("DELETE FROM t WHERE id = 5"); err != nil {
		t.Fatal(err)
	}

	want := map[string]int64{
		"xnf_statements_select_total": 1,
		"xnf_statements_insert_total": 5,
		"xnf_statements_update_total": 1,
		"xnf_statements_delete_total": 1,
		"xnf_statements_ddl_total":    2, // CREATE TABLE + ALTER STORAGE
		"xnf_rows_returned_total":     5,
		"xnf_rows_affected_total":     7, // 5 inserts + 1 update + 1 delete
	}
	for name, v := range want {
		if got, ok := reg.Value(name); !ok || got != v {
			t.Errorf("%s = %d (ok=%v), want %d", name, got, ok, v)
		}
	}
	// Latency histogram saw one observation per statement.
	if got, _ := reg.Value("xnf_statement_latency_ns"); got != 10 {
		t.Errorf("latency count = %d, want 10", got)
	}

	// Abandoning a cursor mid-stream still observes the statement once.
	rows, err := db.QueryRows("SELECT id FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows.Next(); err != nil {
		t.Fatal(err)
	}
	rows.Close()
	rows.Close() // idempotent: must not double-observe
	if got, _ := reg.Value("xnf_statements_select_total"); got != 2 {
		t.Errorf("select count after abandoned cursor = %d, want 2", got)
	}

	// Failed statements count as errors.
	if _, err := db.Query("SELECT nope FROM t"); err == nil {
		t.Fatal("expected error")
	}
	if got, _ := reg.Value("xnf_statement_errors_total"); got < 1 {
		t.Errorf("error count = %d, want >= 1", got)
	}
}

func TestSlowQueryLog(t *testing.T) {
	db := statsDB(t)
	db.SetSlowQueryThreshold(1) // 1ns: everything is slow
	if _, err := db.Query("SELECT id FROM t WHERE id = 2"); err != nil {
		t.Fatal(err)
	}
	slow := db.SlowQueries()
	if len(slow) == 0 {
		t.Fatal("no slow queries recorded")
	}
	if !strings.Contains(slow[0].SQL, "SELECT id FROM t") {
		t.Errorf("slow entry SQL = %q", slow[0].SQL)
	}
	if slow[0].Rows != 1 || slow[0].Duration <= 0 {
		t.Errorf("slow entry rows/duration = %d/%v", slow[0].Rows, slow[0].Duration)
	}

	// Threshold <= 0 disables recording.
	db.SetSlowQueryThreshold(0)
	before := len(db.SlowQueries())
	if _, err := db.Query("SELECT id FROM t"); err != nil {
		t.Fatal(err)
	}
	if got := len(db.SlowQueries()); got != before {
		t.Errorf("slow log grew with threshold disabled: %d -> %d", before, got)
	}

	// The ring keeps the newest entries, newest first.
	db.SetSlowQueryThreshold(1)
	for i := 0; i < slowLogCap+5; i++ {
		if _, err := db.Query("SELECT v FROM t WHERE id = 3"); err != nil {
			t.Fatal(err)
		}
	}
	slow = db.SlowQueries()
	if len(slow) != slowLogCap {
		t.Fatalf("ring size = %d, want %d", len(slow), slowLogCap)
	}
	for i := 1; i < len(slow); i++ {
		if slow[i].When.After(slow[i-1].When) {
			t.Fatalf("slow log not newest-first at %d", i)
		}
	}
}

func TestPlanCacheMetricsFuncs(t *testing.T) {
	db := statsDB(t)
	reg := db.Registry()
	for i := 0; i < 3; i++ {
		if _, err := db.Query("SELECT id FROM t WHERE id = 1"); err != nil {
			t.Fatal(err)
		}
	}
	hits, _ := reg.Value("xnf_plan_cache_hits_total")
	misses, _ := reg.Value("xnf_plan_cache_misses_total")
	if hits < 2 || misses < 1 {
		t.Errorf("cache hits/misses = %d/%d, want >=2/>=1", hits, misses)
	}
	if entries, ok := reg.Value("xnf_plan_cache_entries"); !ok || entries < 1 {
		t.Errorf("cache entries = %d (ok=%v)", entries, ok)
	}
	if segs, ok := reg.Value("xnf_colstore_segments"); !ok || segs < 1 {
		t.Errorf("colstore segments = %d (ok=%v)", segs, ok)
	}
	if b, ok := reg.Value("xnf_colstore_bytes_resident"); !ok || b <= 0 {
		t.Errorf("colstore bytes = %d (ok=%v)", b, ok)
	}
}

// TestScriptStatementMetrics pins that statements run through ExecScript
// (loaders, schema files) move the statement counters like Exec does.
func TestScriptStatementMetrics(t *testing.T) {
	db := Open()
	reg := db.Registry()
	if err := db.ExecScript(`
		CREATE TABLE s (id INT NOT NULL, v TEXT, PRIMARY KEY (id));
		INSERT INTO s VALUES (1, 'a');
		INSERT INTO s VALUES (2, 'b');
		INSERT INTO s VALUES (3, 'c');
		UPDATE s SET v = 'z' WHERE id > 1;
		SELECT v FROM s;
	`); err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"xnf_statements_ddl_total":    1,
		"xnf_statements_insert_total": 3,
		"xnf_statements_update_total": 1,
		"xnf_statements_select_total": 1,
		"xnf_rows_affected_total":     5, // 3 inserts + 2 updated rows
		"xnf_rows_returned_total":     3,
		"xnf_statement_latency_ns":    6,
	}
	for name, v := range want {
		if got, ok := reg.Value(name); !ok || got != v {
			t.Errorf("%s = %d (ok=%v), want %d", name, got, ok, v)
		}
	}
}
