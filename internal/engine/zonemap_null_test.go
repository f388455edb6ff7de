package engine

import (
	"fmt"
	"testing"

	"xnf/internal/colstore"
	"xnf/internal/types"
)

// nullDB builds a column table whose NULL distribution is segment-shaped:
// column nv is NULL only in the first segment, and column av is NULL
// everywhere except the first segment. 4 segments total.
func nullDB(t testing.TB) (*Database, int) {
	t.Helper()
	const segs = 4
	n := segs * colstore.SegRows
	db := Open()
	if err := db.ExecScript("CREATE TABLE NT (k INT NOT NULL, nv INT, av INT, PRIMARY KEY (k))"); err != nil {
		t.Fatal(err)
	}
	td, err := db.Store().Table("NT")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		nv, av := types.NewInt(int64(i)), types.Null
		if i < colstore.SegRows {
			nv, av = types.Null, types.NewInt(int64(i))
		}
		if _, err := td.Insert(types.Row{types.NewInt(int64(i)), nv, av}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Exec("ALTER TABLE NT SET STORAGE COLUMN"); err != nil {
		t.Fatal(err)
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	return db, segs
}

// TestZoneMapNullPruning: IS NULL prunes segments whose live null count is
// zero, IS NOT NULL prunes segments that are entirely NULL — and every
// query returns exactly the row executor's (unpruned) result.
func TestZoneMapNullPruning(t *testing.T) {
	db, segs := nullDB(t)
	cases := []struct {
		q         string
		minPruned int64
	}{
		// nv is NULL only in segment 0: the other 3 prune.
		{"SELECT COUNT(*) FROM NT WHERE nv IS NULL", int64(segs - 1)},
		// av is non-NULL only in segment 0: the other 3 prune.
		{"SELECT COUNT(av) FROM NT WHERE av IS NOT NULL", int64(segs - 1)},
		// nv IS NOT NULL refutes only segment 0.
		{"SELECT COUNT(*) FROM NT WHERE nv IS NOT NULL", 1},
		// Conjunct with a range: both prune terms apply.
		{"SELECT COUNT(*) FROM NT WHERE nv IS NULL AND k < 100", int64(segs - 1)},
		// No segment is all-NULL in k (NOT NULL column): nothing prunes.
		{"SELECT COUNT(*) FROM NT WHERE k IS NOT NULL", 0},
	}
	for _, tc := range cases {
		_, got := runBoth(t, db, tc.q)
		if got.Counters.SegmentsPruned < tc.minPruned {
			t.Errorf("%q: pruned %d segments, want >= %d", tc.q, got.Counters.SegmentsPruned, tc.minPruned)
		}
		if tc.minPruned == 0 && got.Counters.SegmentsPruned != 0 {
			t.Errorf("%q: unexpected pruning (%d segments)", tc.q, got.Counters.SegmentsPruned)
		}
	}
}

// TestNullPruningAfterDML: the per-segment null counts must track deletes,
// updates and revived slots exactly — after DML rewrites the NULL shape,
// IS NULL pruning must still return the row executor's answer.
func TestNullPruningAfterDML(t *testing.T) {
	db, _ := nullDB(t)
	// Delete all the NULL nv rows (segment 0), making nv IS NULL empty, and
	// NULL out one row in segment 2.
	if _, err := db.Exec(fmt.Sprintf("DELETE FROM NT WHERE k < %d", colstore.SegRows)); err != nil {
		t.Fatal(err)
	}
	target := 2*colstore.SegRows + 17
	if _, err := db.Exec(fmt.Sprintf("UPDATE NT SET nv = NULL WHERE k = %d", target)); err != nil {
		t.Fatal(err)
	}
	// Re-insert into the freed slots (revive path) with non-NULL nv.
	for i := 0; i < 100; i++ {
		if _, err := db.Exec("INSERT INTO NT VALUES (?, ?, ?)",
			types.NewInt(int64(1_000_000+i)), types.NewInt(int64(i)), types.Null); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []string{
		"SELECT COUNT(*) FROM NT WHERE nv IS NULL",
		"SELECT k FROM NT WHERE nv IS NULL ORDER BY k",
		"SELECT COUNT(*) FROM NT WHERE nv IS NOT NULL",
		"SELECT COUNT(*) FROM NT WHERE av IS NOT NULL",
	} {
		runBoth(t, db, q)
	}
	// The single NULL planted in segment 2 must be found (not pruned away).
	res, err := db.Query("SELECT k FROM NT WHERE nv IS NULL")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != int64(target) {
		t.Fatalf("nv IS NULL found %v, want the one row k=%d", res.Rows, target)
	}
}
