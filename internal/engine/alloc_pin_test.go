package engine

import (
	"testing"

	"xnf/internal/exec"
	"xnf/internal/types"
)

// TestPointLookupAllocs pins the allocation cost of a prepared point
// lookup: a handle over the cached plan is one allocation, and a whole
// Stmt.Query stays within the 46 allocations it made while every
// execution deep-copied the plan.
func TestPointLookupAllocs(t *testing.T) {
	db := orgDB(t)
	st, err := db.Prepare("SELECT * FROM EMP WHERE eno = ?")
	if err != nil {
		t.Fatal(err)
	}
	tmpl := exec.NewPlan(st.plan)
	var handle exec.Plan
	if n := testing.AllocsPerRun(100, func() { handle = exec.ClonePlan(tmpl) }); n != 1 {
		t.Errorf("ClonePlan allocates %v times, want 1", n)
	}
	if handle.Root() != st.plan {
		t.Fatal("ClonePlan must share the compiled root")
	}
	key := types.NewInt(3)
	query := func() {
		res, err := st.Query(key)
		if err != nil || len(res.Rows) != 1 {
			t.Fatalf("point lookup = %v, %v", res, err)
		}
	}
	query()
	n := testing.AllocsPerRun(200, query)
	t.Logf("prepared point lookup: %v allocations", n)
	if n > 46 {
		t.Errorf("prepared point lookup allocates %v times, want at most 46", n)
	}
}
