package core_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"xnf/internal/engine"
	"xnf/internal/exec"
	"xnf/internal/workload"
)

// TestSharedTemplateCO drives one set of CO plan templates from 16
// goroutines at once, each over its own context (which spools the CO's
// shared boxes and, for a recursive view, runs its fixpoint) and none with
// a copy of the plans, and requires every extraction to equal a serial
// one — and the serial one to equal the engine's own extraction. Run it
// under -race.
func TestSharedTemplateCO(t *testing.T) {
	views := []struct {
		view string
		open func() (*engine.Database, error)
	}{
		{"deps_ARC", func() (*engine.Database, error) { return workload.NewOrgDB(workload.DefaultOrg()) }},
		{"parts_explosion", func() (*engine.Database, error) {
			return workload.NewPartsDB(workload.PartsParams{Parts: 120, FanOut: 2, Roots: 3, Seed: 5})
		}},
	}
	for _, v := range views {
		t.Run(v.view, func(t *testing.T) {
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
			extract := func() (string, error) {
				ctx := exec.NewCtx(db.Store())
				var b strings.Builder
				for i, p := range plans {
					if p == nil {
						continue
					}
					rows, err := exec.Collect(ctx, p.Root())
					if err != nil {
						return "", err
					}
					fmt.Fprintf(&b, "%s: %v\n", c.Outputs[i].Name, rows)
				}
				return b.String(), nil
			}
			want, err := extract()
			if err != nil {
				t.Fatal(err)
			}
			res, err := db.ExtractCOView(v.view, false)
			if err != nil {
				t.Fatal(err)
			}
			var engineText strings.Builder
			for i, rows := range res.Rows {
				if plans[i] != nil {
					fmt.Fprintf(&engineText, "%s: %v\n", c.Outputs[i].Name, rows)
				}
			}
			if engineText.String() != want {
				t.Fatalf("templates extract\n%s\nthe engine extracts\n%s", want, engineText.String())
			}
			var wg sync.WaitGroup
			for g := 0; g < 16; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for r := 0; r < 4; r++ {
						got, err := extract()
						if err != nil {
							t.Errorf("concurrent extraction: %v", err)
							return
						}
						if got != want {
							t.Errorf("concurrent extraction differs from the serial one")
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}
