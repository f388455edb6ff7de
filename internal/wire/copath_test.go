package wire

import (
	"context"
	"fmt"
	"net"
	"sort"
	"strings"
	"testing"

	"xnf/internal/core"
	"xnf/internal/engine"
	"xnf/internal/types"
	"xnf/internal/workload"
)

// literalServer serves db through a zero-value Server literal (no
// NewServer), the configuration the type's documentation promises works.
func literalServer(t testing.TB, db *engine.Database) string {
	t.Helper()
	srv := &Server{DB: db}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return l.Addr().String()
}

// coMultisets renders each output's rows as a sorted list of row strings,
// keyed by component number.
func coMultisets(res *core.COResult) map[int][]string {
	out := make(map[int][]string)
	for i, rows := range res.Rows {
		lines := make([]string, len(rows))
		for j, r := range rows {
			lines[j] = r.String()
		}
		sort.Strings(lines)
		out[res.Outputs[i].CompID] = lines
	}
	return out
}

// TestCOExtractionPaths pins that a CO has one execution path: for a DAG
// view and two recursive ones, the streamed tagged tuples, a drain of the
// stream, Compiled.Execute and a wire FetchCO under every ship mode yield
// the same per-output multisets, and stream and drain do the same spool
// work.
func TestCOExtractionPaths(t *testing.T) {
	views := []struct {
		view string
		load func(db *engine.Database) error
		// want pins per-output row counts (by output name) where known.
		want map[string]int
	}{
		{"deps_ARC", func(db *engine.Database) error {
			return workload.LoadOrg(db, workload.OrgParams{
				Depts: 8, EmpsPerDept: 4, ProjsPerDept: 2,
				Skills: 20, SkillsPerEmp: 2, SkillsPerProj: 1,
				ArcFraction: 0.5, Seed: 3,
			})
		}, nil},
		{"parts_explosion", func(db *engine.Database) error {
			return workload.LoadParts(db, workload.PartsParams{Parts: 120, FanOut: 2, Roots: 3, Seed: 5})
		}, nil},
		{"part_graph", func(db *engine.Database) error {
			return workload.LoadOO1(db, workload.OO1Params{Parts: 200, Conns: 3, Seed: 1})
		}, map[string]int{"xpart": 200, "connected": 511}},
	}
	modes := []struct {
		name string
		mode ShipMode
	}{
		{"whole", ShipWhole()},
		{"blocks", ShipBlocks(7)},
		{"tuple", ShipTupleAtATime()},
	}
	for _, v := range views {
		t.Run(v.view, func(t *testing.T) {
			db := engine.Open()
			if err := v.load(db); err != nil {
				t.Fatal(err)
			}

			// The stream, pulled tuple by tuple.
			s, err := db.StreamCOView(context.Background(), v.view)
			if err != nil {
				t.Fatal(err)
			}
			streamed := &core.COResult{Outputs: s.Outputs(), Rows: make([][]types.Row, len(s.Outputs()))}
			for {
				comp, row, err := s.Next()
				if err != nil {
					t.Fatal(err)
				}
				if row == nil {
					break
				}
				streamed.Rows[comp] = append(streamed.Rows[comp], row)
			}
			streamSpool := s.Counters().SpoolMaterial
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			want := coMultisets(streamed)
			total := 0
			for _, out := range streamed.Outputs {
				n := len(want[out.CompID])
				total += n
				if c, ok := v.want[strings.ToLower(out.Name)]; ok && n != c {
					t.Errorf("output %s: %d rows, want %d", out.Name, n, c)
				}
			}
			if total == 0 {
				t.Fatal("the CO streamed no tuples")
			}

			check := func(path string, res *core.COResult) {
				t.Helper()
				got := coMultisets(res)
				for _, out := range streamed.Outputs {
					if fmt.Sprint(got[out.CompID]) != fmt.Sprint(want[out.CompID]) {
						t.Errorf("%s: output %s has %d rows differing from the stream's %d",
							path, out.Name, len(got[out.CompID]), len(want[out.CompID]))
					}
				}
			}

			s, err = db.StreamCOView(context.Background(), v.view)
			if err != nil {
				t.Fatal(err)
			}
			drained, err := s.Drain()
			if err != nil {
				t.Fatal(err)
			}
			check("drain", drained)
			if drained.Counters.SpoolMaterial != streamSpool {
				t.Errorf("drain spooled %d fragments, stream %d", drained.Counters.SpoolMaterial, streamSpool)
			}

			compiled, err := db.CompileCOView(v.view)
			if err != nil {
				t.Fatal(err)
			}
			executed, err := compiled.Execute(db.Store(), db.OptOptions)
			if err != nil {
				t.Fatal(err)
			}
			check("execute", executed)

			addr := literalServer(t, db)
			for _, m := range modes {
				c, err := Dial(addr)
				if err != nil {
					t.Fatal(err)
				}
				fetched, err := c.FetchCO(v.view, m.mode)
				c.Close()
				if err != nil {
					t.Fatalf("FetchCO %s: %v", m.name, err)
				}
				check("FetchCO "+m.name, fetched)
			}
		})
	}
}

// A Server literal checks COs out through the database's cached plan
// templates: one template compile, then cache hits.
func TestLiteralServerUsesCOPlanCache(t *testing.T) {
	db := engine.Open()
	if err := workload.LoadOrg(db, workload.OrgParams{
		Depts: 8, EmpsPerDept: 4, ProjsPerDept: 2,
		Skills: 20, SkillsPerEmp: 2, SkillsPerProj: 1,
		ArcFraction: 0.5, Seed: 3,
	}); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(literalServer(t, db))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		if _, err := c.FetchCO("deps_ARC", ShipWhole()); err != nil {
			t.Fatal(err)
		}
	}
	if got, hits := db.Metrics.COPlanCompiles.Load(), db.Metrics.COPlanCacheHits.Load(); got != 1 || hits != 2 {
		t.Errorf("COPlanCompiles=%d COPlanCacheHits=%d, want 1 and 2", got, hits)
	}
}
