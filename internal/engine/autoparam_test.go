package engine

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"xnf/internal/ast"
	"xnf/internal/opt"
	"xnf/internal/parser"
	"xnf/internal/types"
)

// These tests pin the auto-parameterized plan cache to the literal
// compile: a SELECT served from the cache (placeholder plan plus the
// text's literals) must return what compiling its literal text returns,
// with the same columns and the same zone-map pruning.

// literalQuery compiles the literal text directly, bypassing the cache.
func literalQuery(t *testing.T, db *Database, q string) *Result {
	t.Helper()
	stmt, err := parser.Parse(q)
	if err != nil {
		t.Fatalf("%q: %v", q, err)
	}
	res, err := db.QueryStmt(stmt.(*ast.SelectStmt))
	if err != nil {
		t.Fatalf("literal %q: %v", q, err)
	}
	return res
}

// TestAutoParamMatchesLiteralCompile runs every literal SELECT of the
// equivalence fixtures on column-analyzed storage three ways — through the
// plan cache, as a literal compile, and through the cache under
// NaiveOptions — and requires the same rows, column names and types, and
// segments scanned and pruned.
func TestAutoParamMatchesLiteralCompile(t *testing.T) {
	lifted := 0
	defer func() {
		if lifted < 80 {
			t.Errorf("only %d queries had a literal lifted", lifted)
		}
	}()
	for _, f := range equivFixtures {
		t.Run(f.name, func(t *testing.T) {
			if f.parallel {
				setPoolWorkers(t, 4)
			}
			db := f.build(t)
			columnar(t, db, f.tables...)
			if err := db.Analyze(); err != nil {
				t.Fatal(err)
			}
			for _, c := range f.cases {
				if c.args != nil {
					continue
				}
				if n, _ := normalizeSQL(c.q); n.frame != nil {
					lifted++
				}
				db.OptOptions = opt.DefaultOptions()
				got, err := db.Query(c.q)
				if err != nil {
					t.Fatalf("cached %q: %v", c.q, err)
				}
				want := literalQuery(t, db, c.q)
				tol := f.parallel
				if d := diffRows(got.Rows, want.Rows, isOrdered(c.q), tol); d != "" {
					t.Errorf("%q: cached plan %s", c.q, d)
				}
				if fmt.Sprint(got.Cols) != fmt.Sprint(want.Cols) {
					t.Errorf("%q: cached columns %v, literal %v", c.q, got.Cols, want.Cols)
				}
				gc, wc := got.Counters, want.Counters
				if gc.SegmentsScanned != wc.SegmentsScanned || gc.SegmentsPruned != wc.SegmentsPruned {
					t.Errorf("%q: cached plan scanned/pruned %d/%d segments, literal %d/%d",
						c.q, gc.SegmentsScanned, gc.SegmentsPruned, wc.SegmentsScanned, wc.SegmentsPruned)
				}
				if f.noNaive {
					continue
				}
				db.OptOptions = opt.NaiveOptions()
				naive, err := db.Query(c.q)
				if err != nil {
					t.Fatalf("naive %q: %v", c.q, err)
				}
				if d := diffRows(naive.Rows, want.Rows, isOrdered(c.q), tol); d != "" {
					t.Errorf("%q: naive plan %s", c.q, d)
				}
			}
		})
	}
}

// paramRef matches a statement parameter in EXPLAIN text: a frame slot
// with the 1-based placeholder it carries, or the bare placeholder inside
// a rendered expression (not followed by the "(" of a frame slot).
var paramRef = regexp.MustCompile(`\?\d+\(\?(\d+)\)|\?(\d+)([^(\d]|$)`)

// TestAutoParamExplain requires the plan a cache miss compiles to be the
// literal text's plan with each lifted literal shown as its parameter.
// Disjunctions whose hull the literal plan folds at compile time are left
// out: the parameterized plan folds them at Open (their pruning is checked
// by TestAutoParamMatchesLiteralCompile).
func TestAutoParamExplain(t *testing.T) {
	for _, f := range equivFixtures {
		t.Run(f.name, func(t *testing.T) {
			db := f.build(t)
			columnar(t, db, f.tables...)
			if err := db.Analyze(); err != nil {
				t.Fatal(err)
			}
			for _, c := range f.cases {
				n, err := normalizeSQL(c.q)
				if err != nil || n.frame == nil {
					continue
				}
				stmt, err := parser.Parse(placeholderText(c.q, n.spans))
				if err != nil {
					t.Fatalf("%q: placeholder form: %v", c.q, err)
				}
				ast.Placeholders(stmt, func(p *ast.Placeholder) { p.Type = n.frame[p.Idx].T })
				plan, err := db.CompileSelect(stmt.(*ast.SelectStmt))
				if err != nil {
					t.Fatalf("%q: placeholder form: %v", c.q, err)
				}
				got := plan.Explain(0)
				if strings.Contains(got, "HULL(") {
					continue
				}
				got = paramRef.ReplaceAllStringFunc(got, func(m string) string {
					sub := paramRef.FindStringSubmatch(m)
					if sub[1] != "" {
						k, _ := strconv.Atoi(sub[1])
						return n.frame[k-1].SQLLiteral()
					}
					k, _ := strconv.Atoi(sub[2])
					return n.frame[k-1].SQLLiteral() + sub[3]
				})
				want, err := db.Explain(c.q)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("%q: parameterized plan\n%s\nliteral plan\n%s", c.q, got, want)
				}
			}
		})
	}
}

// TestAutoParamCompilesOnce pins the point of the change: 4000 ad-hoc
// lookups that differ only in their key compile once and return their own
// rows.
func TestAutoParamCompilesOnce(t *testing.T) {
	db := orgDB(t)
	before := db.Metrics.Compiles.Load()
	for i := 1; i <= 4000; i++ {
		res, err := db.Query(fmt.Sprintf("SELECT eno FROM EMP WHERE eno = %d", i))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) > 0 && res.Rows[0][0].I != int64(i) {
			t.Fatalf("eno = %d returned %v", i, res.Rows)
		}
	}
	if got := db.Metrics.Compiles.Load() - before; got != 1 {
		t.Fatalf("4000 distinct literal lookups compiled %d times, want 1", got)
	}
}

// TestAutoParamLiteralDMLCached pins that single-row literal DML shares one
// entry per shape, and that each execution binds its own literals.
func TestAutoParamLiteralDMLCached(t *testing.T) {
	db := orgDB(t)
	db.SetPlanCacheCapacity(8)
	for i := 700; i < 750; i++ {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO SKILLS VALUES (%d, 's%d')", i, i)); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Exec(fmt.Sprintf("UPDATE SKILLS SET sname = 'u%d' WHERE sno = %d", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := db.PlanCacheLen(); n != 2 {
		t.Fatalf("100 literal DML statements of two shapes left %d cache entries, want 2", n)
	}
	res, err := db.Query("SELECT sname FROM SKILLS WHERE sno = 725")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].S != "u725" {
		t.Fatalf("sno 725 holds %v, want u725", res.Rows)
	}
}

// TestAutoParamOrdinalsStayInKey pins that ORDER BY ordinals pick output
// columns: ORDER BY 1 and ORDER BY 2 are different plans.
func TestAutoParamOrdinalsStayInKey(t *testing.T) {
	db := orgDB(t)
	first, err := db.Query("SELECT ename, sal FROM EMP ORDER BY 1")
	if err != nil {
		t.Fatal(err)
	}
	second, err := db.Query("SELECT ename, sal FROM EMP ORDER BY 2")
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, e := range db.CacheStats() {
		keys[e.SQL] = true
	}
	if !keys["SELECT ename , sal FROM EMP ORDER BY 1"] || !keys["SELECT ename , sal FROM EMP ORDER BY 2"] {
		t.Fatalf("cache keys %v, want one entry per ordinal", keys)
	}
	for i := 1; i < len(first.Rows); i++ {
		if first.Rows[i-1][0].S > first.Rows[i][0].S {
			t.Fatalf("ORDER BY 1 is not ordered by ename: %v", first.Rows)
		}
	}
	for i := 1; i < len(second.Rows); i++ {
		if types.Compare(second.Rows[i-1][1], second.Rows[i][1]) > 0 {
			t.Fatalf("ORDER BY 2 is not ordered by sal: %v", second.Rows)
		}
	}
}

// TestAutoParamKeepsIdentifierSpelling pins that a cached plan labels its
// columns as the caller's text spells them, whichever spelling compiled
// first, while texts that differ only in keyword case share one entry.
func TestAutoParamKeepsIdentifierSpelling(t *testing.T) {
	for _, order := range [][]string{{"ename", "ENAME"}, {"ENAME", "ename"}} {
		db := orgDB(t)
		for _, spelling := range order {
			res, err := db.Query("SELECT " + spelling + " FROM EMP WHERE eno = 1")
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Cols[0].Name; got != spelling {
				t.Fatalf("after %v: SELECT %s labels its column %q", order, spelling, got)
			}
		}
		before := db.Metrics.Compiles.Load()
		res, err := db.Query("select " + order[0] + " from EMP where eno = 2")
		if err != nil {
			t.Fatal(err)
		}
		if got := db.Metrics.Compiles.Load() - before; got != 0 || res.Cols[0].Name != order[0] {
			t.Fatalf("keyword-case variant compiled %d times and labels %q, want 0 and %q", got, res.Cols[0].Name, order[0])
		}
	}
}

// TestAutoParamErrorsQuoteUserLiteral pins that errors speak about the
// caller's text, not the placeholder form the cache compiles.
func TestAutoParamErrorsQuoteUserLiteral(t *testing.T) {
	db := orgDB(t)
	// A parse error at a lifted literal: the placeholder form fails too,
	// and the literal compile reports the caller's token.
	_, err := db.Query("SELECT ename FROM EMP WHERE eno = 3 'zz9'")
	if err == nil || !strings.Contains(err.Error(), "zz9") {
		t.Fatalf("error %v does not quote the literal 'zz9'", err)
	}
	// A shape whose placeholder form does not compile (GROUP BY literals
	// stay in the key, so the select list no longer matches it) runs with
	// its literals in place.
	res, err := db.Query("SELECT edno + 1, COUNT(*) FROM EMP GROUP BY edno + 1")
	if err != nil {
		t.Fatalf("literal-only shape: %v", err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("literal-only shape returned no rows")
	}
	// A run-time error quotes the bound literal's value.
	_, err = db.Exec("INSERT INTO SKILLS VALUES (1, 'dup')")
	if err == nil || !strings.Contains(err.Error(), "1") {
		t.Fatalf("duplicate key error %v does not quote the key", err)
	}
	// The handle keeps the caller's text.
	st, err := db.Prepare("select ename from EMP where eno = 3")
	if err != nil {
		t.Fatal(err)
	}
	if st.SQL() != "select ename from EMP where eno = 3" || st.NumParams() != 0 {
		t.Fatalf("handle SQL %q, %d params", st.SQL(), st.NumParams())
	}
}
