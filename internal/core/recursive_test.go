package core_test

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	. "xnf/internal/core"

	"xnf/internal/engine"
	"xnf/internal/opt"
	"xnf/internal/rewrite"
	"xnf/internal/types"
	"xnf/internal/vexec"
	"xnf/internal/workload"
)

// queryRows runs a SQL query and returns its rows.
func queryRows(t *testing.T, db *engine.Database, sql string) []types.Row {
	t.Helper()
	res, err := db.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res.Rows
}

// keyed indexes rows by the string of their first column.
func keyed(rows []types.Row) map[string]types.Row {
	m := make(map[string]types.Row, len(rows))
	for _, r := range rows {
		m[r[0].String()] = r
	}
	return m
}

// closure walks a self-relationship in Go: from the seed keys, follow
// every (parent, child) edge whose child exists in nodes, and return the
// keys reached (seeds included only when reached again).
func closure(seed []string, edges []types.Row, nodes map[string]types.Row) map[string]bool {
	out := make(map[string][]string)
	for _, e := range edges {
		out[e[0].String()] = append(out[e[0].String()], e[1].String())
	}
	reached := make(map[string]bool)
	queue := append([]string(nil), seed...)
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		for _, ch := range out[k] {
			if _, ok := nodes[ch]; ok && !reached[ch] {
				reached[ch] = true
				queue = append(queue, ch)
			}
		}
	}
	return reached
}

// edgesFrom keeps the distinct edges whose parent is in from and whose
// child exists in nodes — the rows of a connection output.
func edgesFrom(edges []types.Row, from map[string]bool, nodes map[string]types.Row) []types.Row {
	seen := make(map[string]bool)
	var out []types.Row
	for _, e := range edges {
		if _, ok := nodes[e[1].String()]; !ok || !from[e[0].String()] || seen[e.String()] {
			continue
		}
		seen[e.String()] = true
		out = append(out, e)
	}
	return out
}

// multiset renders rows as a sorted list of row strings.
func multiset(rows []types.Row) string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		lines[i] = r.String()
	}
	sort.Strings(lines)
	return strings.Join(lines, " ")
}

// check compares every output of res with the oracle's rows as multisets.
func check(t *testing.T, path string, res *COResult, want map[string][]types.Row) {
	t.Helper()
	for i, out := range res.Outputs {
		rows, ok := want[strings.ToLower(out.Name)]
		if !ok {
			t.Fatalf("no oracle for output %s", out.Name)
		}
		if multiset(res.Rows[i]) != multiset(rows) {
			t.Errorf("%s: output %s has %d rows, oracle %d", path, out.Name, len(res.Rows[i]), len(rows))
		}
	}
}

// TestRecursiveOracle checks the recursive CO pipeline against a closure
// computed independently: root rows, then connection rows walked in Go
// from base-table SQL results. Every output must match as a multiset
// under the naive, row-executor and default optimizer options, the last
// with the worker pool at 1 and 2, and every shipped output must have a
// plan template. Concurrent checkouts through the engine's plan cache
// agree too.
func TestRecursiveOracle(t *testing.T) {
	fixtures := []struct {
		view   string
		load   func(db *engine.Database) error
		oracle func(t *testing.T, db *engine.Database) map[string][]types.Row
	}{
		{"parts_explosion", func(db *engine.Database) error {
			return workload.LoadParts(db, workload.PartsParams{Parts: 120, FanOut: 2, Roots: 3, Seed: 5})
		}, func(t *testing.T, db *engine.Database) map[string][]types.Row {
			roots := queryRows(t, db, "SELECT pno, pname, ptype FROM PART WHERE ptype = 'root'")
			parts := keyed(queryRows(t, db, "SELECT pno, pname, ptype FROM PART"))
			edges := queryRows(t, db, "SELECT super, sub FROM ASSEMBLY")
			rootKeys := make(map[string]bool)
			var seed []string
			for _, r := range roots {
				rootKeys[r[0].String()] = true
				seed = append(seed, r[0].String())
			}
			// xroot reaches xpart through TOP_CONTAINS, then xpart reaches
			// itself through CONTAINS.
			top := edgesFrom(edges, rootKeys, parts)
			var first []string
			for _, e := range top {
				first = append(first, e[1].String())
			}
			reached := closure(first, edges, parts)
			for _, k := range first {
				reached[k] = true
			}
			var xpart []types.Row
			for k := range reached {
				xpart = append(xpart, parts[k])
			}
			return map[string][]types.Row{
				"xroot": roots, "xpart": xpart, "toplevel": top,
				"contains": edgesFrom(edges, reached, parts),
			}
		}},
		{"part_graph", func(db *engine.Database) error {
			return workload.LoadOO1(db, workload.OO1Params{Parts: 200, Conns: 3, Seed: 1})
		}, func(t *testing.T, db *engine.Database) map[string][]types.Row {
			// A pure cycle: the first component anchors the CO, so every
			// part is a root.
			partRows := queryRows(t, db, "SELECT id, ptype, x, y, build FROM OPART")
			parts := keyed(partRows)
			all := make(map[string]bool)
			for k := range parts {
				all[k] = true
			}
			edges := queryRows(t, db, "SELECT frm, t FROM CONNECTION")
			return map[string][]types.Row{"xpart": partRows, "connected": edgesFrom(edges, all, parts)}
		}},
	}
	configs := []struct {
		name string
		opts opt.Options
	}{
		{"naive", opt.NaiveOptions()},
		{"row-executor", func() opt.Options { o := opt.DefaultOptions(); o.Vectorize = false; return o }()},
		{"default", opt.DefaultOptions()},
	}
	t.Cleanup(func() { vexec.SetWorkers(0) })
	for _, f := range fixtures {
		t.Run(f.view, func(t *testing.T) {
			db := engine.Open()
			if err := f.load(db); err != nil {
				t.Fatal(err)
			}
			want := f.oracle(t, db)
			if len(want["xpart"]) == 0 {
				t.Fatal("the oracle reached no parts")
			}
			c, err := CompileView(db.Catalog(), f.view, rewrite.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if !IsRecursive(c) {
				t.Fatalf("%s must compile to a fixpoint", f.view)
			}
			plans, err := c.PlanTemplates(db.Store(), opt.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			for i, out := range c.Outputs {
				if out.Box != nil && plans[i] == nil {
					t.Errorf("output %s ships rows but has no plan template", out.Name)
				}
			}
			for _, workers := range []int{1, 2} {
				vexec.SetWorkers(workers)
				for _, cfg := range configs {
					if workers > 1 && !cfg.opts.Vectorize {
						// Row plans never reach the pool, and the naive
						// nested loops are quadratic: run them once.
						continue
					}
					res, err := c.Execute(db.Store(), cfg.opts)
					if err != nil {
						t.Fatalf("%s/%d workers: %v", cfg.name, workers, err)
					}
					check(t, fmt.Sprintf("%s/%d workers", cfg.name, workers), res, want)
				}
			}
			// Concurrent checkouts share the engine's cached templates.
			var wg sync.WaitGroup
			results := make([]*COResult, 4)
			errs := make([]error, len(results))
			for i := range results {
				wg.Add(1)
				go func() {
					defer wg.Done()
					results[i], errs[i] = db.ExtractCOView(f.view, false)
				}()
			}
			wg.Wait()
			for i, res := range results {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				check(t, "concurrent checkout", res, want)
			}
		})
	}
}
