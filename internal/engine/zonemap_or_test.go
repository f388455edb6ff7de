package engine

import (
	"testing"
)

// TestZoneMapORPruning covers the OR-hull extension of the prune extractor:
// IN lists and OR'd BETWEEN ranges on the insertion-sorted key column must
// skip segments outside their bounding hull, while OR shapes that span
// different columns extract nothing — and every query must return exactly
// the row executor's (unpruned) result.
func TestZoneMapORPruning(t *testing.T) {
	db := typedDB(t, 40_000)
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		q          string
		wantPruned bool
	}{
		// IN list: hull [100, 300] — only the first segment can qualify.
		{"SELECT COUNT(*), SUM(f) FROM TT WHERE v IN (100, 200, 300)", true},
		// IN list containing NULL: the NULL branch can never be true and
		// must not widen (or break) the hull.
		{"SELECT COUNT(*) FROM TT WHERE v IN (150, NULL, 250)", true},
		// OR of BETWEEN ranges: hull [1000, 2200].
		{"SELECT COUNT(*) FROM TT WHERE (v BETWEEN 1000 AND 1200) OR (v BETWEEN 2000 AND 2200)", true},
		// OR of half-open ranges: only a shared upper bound survives.
		{"SELECT COUNT(*) FROM TT WHERE v < 100 OR (v >= 500 AND v < 600)", true},
		// Branches on different columns: no common bounded column, no hull.
		{"SELECT COUNT(*) FROM TT WHERE v < 100 OR g = 5", false},
		// One branch unbounded below: no lower hull; upper hull still cuts
		// the tail segments.
		{"SELECT COUNT(*) FROM TT WHERE v IN (10, 20) OR v < 5", true},
	}
	for _, tc := range cases {
		_, got := runBoth(t, db, tc.q)
		if tc.wantPruned && got.Counters.SegmentsPruned == 0 {
			t.Errorf("%q: expected zone-map pruning, 0 segments pruned", tc.q)
		}
		if !tc.wantPruned && got.Counters.SegmentsPruned != 0 {
			t.Errorf("%q: unexpected pruning (%d segments) from a non-hull OR", tc.q, got.Counters.SegmentsPruned)
		}
	}
}
