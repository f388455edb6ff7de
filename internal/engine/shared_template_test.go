package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"xnf/internal/ast"
	"xnf/internal/exec"
	"xnf/internal/opt"
	"xnf/internal/rewrite"
	"xnf/internal/types"
)

// These tests pin the contract that makes cached plans shareable: a
// compiled plan is immutable, and every execution keeps its state in
// iterators of its own. Each drives one compiled template from many
// goroutines at once, each with its own context and no copy of the plan,
// and requires every run to return what a serial run returns. Run them
// under -race.

const sharedGoroutines = 16

// runShared calls run serially once, then from sharedGoroutines goroutines
// rounds times each, and requires every result to equal the serial one.
func runShared(t *testing.T, rounds int, run func() (string, error)) {
	t.Helper()
	want, err := run()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < sharedGoroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got, err := run()
				if err != nil {
					t.Errorf("concurrent run: %v", err)
					return
				}
				if got != want {
					t.Errorf("concurrent run returned\n%s\nwant\n%s", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func rowsText(rows []types.Row) string {
	var b strings.Builder
	for _, r := range rows {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// sharedDB holds tables large enough that scans and joins span several
// batches.
func sharedDB(t *testing.T) *Database {
	t.Helper()
	db := Open()
	if err := db.ExecScript(`
		CREATE TABLE D (dno INT NOT NULL, loc VARCHAR, PRIMARY KEY (dno));
		CREATE TABLE E (eno INT NOT NULL, edno INT, sal INT, tag VARCHAR, PRIMARY KEY (eno));
	`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := db.Exec("INSERT INTO D VALUES (?, ?)", types.NewInt(int64(i)), types.NewString(fmt.Sprintf("L%d", i%4))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3000; i++ {
		if _, err := db.Exec("INSERT INTO E VALUES (?, ?, ?, 'x')", types.NewInt(int64(i)), types.NewInt(int64(i%60)), types.NewInt(int64(i%97))); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestSharedTemplateSelect(t *testing.T) {
	rowOpts := opt.DefaultOptions()
	rowOpts.Vectorize = false
	cases := []struct {
		name  string
		sql   string
		args  []types.Value
		opts  opt.Options
		rw    rewrite.Options
		shape []string // EXPLAIN must contain each
	}{
		{"row-executor", "SELECT e.eno, d.loc FROM E e, D d WHERE e.edno = d.dno AND e.sal < ? ORDER BY e.eno",
			[]types.Value{types.NewInt(50)}, rowOpts, rewrite.DefaultOptions(), []string{"HashJoin", "Sort"}},
		{"batch-executor", "SELECT d.loc, COUNT(*), SUM(e.sal) FROM E e, D d WHERE e.edno = d.dno AND e.sal > ? GROUP BY d.loc ORDER BY 1",
			[]types.Value{types.NewInt(10)}, opt.DefaultOptions(), rewrite.DefaultOptions(), []string{"BatchHashJoin", "BatchAgg"}},
		{"batch-distinct-union", "SELECT DISTINCT edno FROM E WHERE sal < ? UNION ALL SELECT dno FROM D WHERE loc = 'L1'",
			[]types.Value{types.NewInt(20)}, opt.DefaultOptions(), rewrite.DefaultOptions(), []string{"BatchDistinct", "BatchUnionAll"}},
		{"hashed-subplan", "SELECT eno FROM E WHERE edno NOT IN (SELECT dno FROM D WHERE loc = ?)",
			[]types.Value{types.NewString("L2")}, opt.DefaultOptions(), rewrite.NoRewrite(), []string{"hashed"}},
		{"rerun-subplan", "SELECT eno FROM E e WHERE e.eno < 300 AND e.sal > (SELECT COUNT(*) FROM D d WHERE d.dno < e.edno)",
			nil, opt.DefaultOptions(), rewrite.NoRewrite(), []string{"rerun"}},
		{"spool", "SELECT d1.dno, d2.dno FROM D d1, D d2 WHERE d1.loc = d2.loc AND d1.dno < ?",
			[]types.Value{types.NewInt(30)}, opt.DefaultOptions(), rewrite.DefaultOptions(), []string{"Spool"}},
		{"index-nested-loop", "SELECT a.dno FROM (SELECT dno FROM D WHERE loc = ?) a, (SELECT dno FROM D WHERE loc = ?) b WHERE a.dno = b.dno",
			[]types.Value{types.NewString("L3"), types.NewString("L3")}, opt.DefaultOptions(), rewrite.DefaultOptions(), []string{"NLJoin", "IndexLookup"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db := sharedDB(t)
			db.OptOptions, db.RewriteOptions = c.opts, c.rw
			st, err := db.Prepare(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			explain := st.plan.Explain(0)
			for _, s := range c.shape {
				if !strings.Contains(explain, s) {
					t.Fatalf("plan lacks %s:\n%s", s, explain)
				}
			}
			args := st.bind(c.args)
			n := 0
			var mu sync.Mutex
			runShared(t, 8, func() (string, error) {
				// Alternate between driving the cached plan directly and
				// the engine's own statement path.
				mu.Lock()
				n++
				direct := n%2 == 0
				mu.Unlock()
				if direct {
					rows, err := exec.CollectWith(exec.NewCtx(db.Store()), st.plan, args)
					return rowsText(rows), err
				}
				res, err := st.Query(c.args...)
				if err != nil {
					return "", err
				}
				return rowsText(res.Rows), nil
			})
		})
	}
}

func TestSharedTemplateDML(t *testing.T) {
	cases := []struct {
		name  string
		sql   string
		args  []types.Value
		shape string // the predicate's subplan strategy
	}{
		{"in-subquery", "UPDATE E SET tag = ? WHERE edno IN (SELECT dno FROM D WHERE loc = ?)",
			[]types.Value{types.NewString("y"), types.NewString("L1")}, "hashed"},
		{"correlated-subquery", "UPDATE E SET tag = ? WHERE eno < 500 AND sal > (SELECT COUNT(*) FROM D d WHERE d.dno < E.edno)",
			[]types.Value{types.NewString("z")}, "rerun"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db := sharedDB(t)
			st, err := db.Prepare(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			upd := st.other.(*ast.UpdateStmt)
			if pred := st.mut.pred.String(); !strings.Contains(pred, c.shape) {
				t.Fatalf("predicate %s has no %s subplan", pred, c.shape)
			}
			args := st.bind(c.args)
			n := 0
			var mu sync.Mutex
			runShared(t, 8, func() (string, error) {
				mu.Lock()
				n++
				direct := n%2 == 0
				mu.Unlock()
				if direct {
					// The compiled predicate itself, shared by every run.
					rids, _, err := db.mutationTargets(upd.Table, st.mut.pred, args)
					return fmt.Sprint(len(rids)), err
				}
				affected, err := st.Exec(c.args...)
				return fmt.Sprint(affected), err
			})
		})
	}
}
