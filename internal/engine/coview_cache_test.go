package engine_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"xnf/internal/engine"
	"xnf/internal/workload"
)

func orgWithDepsARC(t *testing.T) *engine.Database {
	t.Helper()
	db, err := workload.NewOrgDB(workload.OrgParams{
		Depts: 8, EmpsPerDept: 4, ProjsPerDept: 2,
		Skills: 20, SkillsPerEmp: 2, SkillsPerProj: 1,
		ArcFraction: 0.5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// checkout streams deps_ARC to its end.
func checkout(t *testing.T, db *engine.Database) {
	t.Helper()
	s, err := db.StreamCOView(context.Background(), "deps_ARC")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestCOViewSingleFlight races the first checkout of a CO view: the view
// and its plan templates compile once, and every other racer waits for
// that compilation.
func TestCOViewSingleFlight(t *testing.T) {
	db := orgWithDepsARC(t)
	const racers = 16
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			s, err := db.StreamCOView(context.Background(), "deps_ARC")
			if err == nil {
				_, err = s.Drain()
			}
			errs <- err
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	m := &db.Metrics
	if c, h := m.COPlanCompiles.Load(), m.COPlanCacheHits.Load(); c != 1 || h != racers-1 {
		t.Fatalf("compiles=%d hits=%d, want 1/%d", c, h, racers-1)
	}
}

// TestCOViewInvalidation checks per-dependency invalidation: DDL on a
// table the view does not read keeps the entry, while an index or fresh
// statistics on EMP, which it reads, recompile it.
func TestCOViewInvalidation(t *testing.T) {
	db := orgWithDepsARC(t)
	m := &db.Metrics
	checkout(t, db)
	steps := []struct {
		sql      string
		compiles int64
	}{
		{"CREATE TABLE extra (a INT NOT NULL, PRIMARY KEY (a))", 1},
		{"CREATE INDEX emp_sal ON EMP (sal)", 2},
		{"ANALYZE EMP", 3},
		{"ANALYZE extra", 3},
	}
	for _, st := range steps {
		if _, err := db.Exec(st.sql); err != nil {
			t.Fatalf("%s: %v", st.sql, err)
		}
		checkout(t, db)
		if got := m.COPlanCompiles.Load(); got != st.compiles {
			t.Fatalf("after %s: %d compiles, want %d", st.sql, got, st.compiles)
		}
	}
}

// TestCOViewInPlanCache checks that a CO view is an ordinary plan-cache
// entry: CacheStats lists it with its hits, and the LRU bound evicts it.
func TestCOViewInPlanCache(t *testing.T) {
	db := orgWithDepsARC(t)
	for i := 0; i < 3; i++ {
		checkout(t, db)
	}
	var hits int64 = -1
	for _, e := range db.CacheStats() {
		if strings.Contains(e.SQL, "DEPS_ARC") {
			hits = e.Hits
		}
	}
	if hits != 2 {
		t.Fatalf("CO entry hits = %d, want 2 (three checkouts, the first compiles)", hits)
	}
	db.SetPlanCacheCapacity(1)
	checkout(t, db)
	if _, err := db.Query("SELECT COUNT(*) FROM DEPT"); err != nil {
		t.Fatal(err)
	}
	checkout(t, db)
	if c := db.Metrics.COPlanCompiles.Load(); c != 3 {
		t.Fatalf("%d compiles, want 3: the resize and then the SELECT must each evict the CO entry", c)
	}
}
