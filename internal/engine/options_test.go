package engine

import (
	"fmt"
	"testing"
)

// floodCache prepares n distinct one-shot statements, each entering the
// plan cache with zero hits.
func floodCache(t *testing.T, db *Database, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		// Each text is its own shape: the table alias is part of the key.
		if _, err := db.Query(fmt.Sprintf("SELECT ename FROM EMP e%d WHERE eno = %d", i, 1000+i)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPlanCacheCapacityBound checks that LRU eviction respects the capacity
// bound under a flood of one-shot statements.
func TestPlanCacheCapacityBound(t *testing.T) {
	db := orgDB(t)
	db.SetPlanCacheCapacity(4)
	floodCache(t, db, 32)
	if n := db.PlanCacheLen(); n > 4 {
		t.Fatalf("cache grew to %d entries with capacity 4", n)
	}
}

// TestCacheStatsExposeCost verifies CacheStats carries the compile cost.
func TestCacheStatsExposeCost(t *testing.T) {
	db := orgDB(t)
	if _, err := db.Query("SELECT ename FROM EMP WHERE sal > 100"); err != nil {
		t.Fatal(err)
	}
	stats := db.CacheStats()
	if len(stats) == 0 {
		t.Fatal("no cache entries")
	}
	if stats[0].CostNs <= 0 {
		t.Fatalf("entry cost = %d, want > 0", stats[0].CostNs)
	}
}
