package engine_test

import (
	"fmt"
	"strings"
	"testing"

	"xnf/internal/engine"
	"xnf/internal/workload"
)

// TestGoldenCOPlans pins the plan template set of every CO view of the
// org, parts and OO1 workloads: one EXPLAIN text per shipped output.
func TestGoldenCOPlans(t *testing.T) {
	views := []struct {
		view string
		open func() (*engine.Database, error)
	}{
		{"deps_ARC", func() (*engine.Database, error) { return workload.NewOrgDB(workload.DefaultOrg()) }},
		{"parts_explosion", func() (*engine.Database, error) {
			return workload.NewPartsDB(workload.PartsParams{Parts: 120, FanOut: 2, Roots: 3, Seed: 5})
		}},
		{"part_graph", func() (*engine.Database, error) {
			return workload.NewOO1DB(workload.OO1Params{Parts: 200, Conns: 3, Seed: 1})
		}},
	}
	var b strings.Builder
	for _, v := range views {
		db, err := v.open()
		if err != nil {
			t.Fatal(err)
		}
		c, err := db.CompileCOView(v.view)
		if err != nil {
			t.Fatal(err)
		}
		plans, err := c.PlanTemplates(db.Store(), db.OptOptions)
		if err != nil {
			t.Fatal(err)
		}
		var entry strings.Builder
		for i, p := range plans {
			if p != nil {
				fmt.Fprintf(&entry, "-- output %s\n%s", c.Outputs[i].Name, p.Explain(0))
			}
		}
		if entry.Len() > 0 {
			fmt.Fprintf(&b, "== %s ==\n%s\n", v.view, entry.String())
		}
	}
	engine.CheckGolden(t, "co_views.golden", b.String())
}
