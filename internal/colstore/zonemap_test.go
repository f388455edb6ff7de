package colstore

import (
	"testing"

	"xnf/internal/types"
)

// zoneTable builds a two-column (INT, FLOAT) table with n sequential rows.
func zoneTable(n int) *Table {
	tb := New([]types.Type{types.IntType, types.FloatType})
	for i := 0; i < n; i++ {
		tb.Append(types.Row{types.NewInt(int64(i)), types.NewFloat(float64(i) / 2)})
	}
	return tb
}

func geBound(col int, v types.Value) ColBound {
	return ColBound{Col: col, Lo: v, HasLo: true}
}

func ltBound(col int, v types.Value) ColBound {
	return ColBound{Col: col, Hi: v, HasHi: true, HiStrict: true}
}

func TestTypedViewsZoneMapPruning(t *testing.T) {
	tb := zoneTable(3 * SegRows)
	views, pruned := tb.TypedViews(nil)
	if len(views) != 3 || pruned != 0 {
		t.Fatalf("unbounded: %d views, %d pruned", len(views), pruned)
	}
	// id >= 2*SegRows lives entirely in the last segment.
	views, pruned = tb.TypedViews([]ColBound{geBound(0, types.NewInt(int64(2*SegRows)))})
	if len(views) != 1 || pruned != 2 {
		t.Fatalf("ge bound: %d views, %d pruned, want 1/2", len(views), pruned)
	}
	// id < 10 lives in the first segment.
	views, pruned = tb.TypedViews([]ColBound{ltBound(0, types.NewInt(10))})
	if len(views) != 1 || pruned != 2 {
		t.Fatalf("lt bound: %d views, %d pruned, want 1/2", len(views), pruned)
	}
	// A float bound against the int column prunes too (numeric comparable).
	views, pruned = tb.TypedViews([]ColBound{geBound(0, types.NewFloat(float64(2*SegRows)+0.5))})
	if len(views) != 1 || pruned != 2 {
		t.Fatalf("float-on-int bound: %d views, %d pruned, want 1/2", len(views), pruned)
	}
	// A string bound against the int column is not comparable: never prune.
	views, pruned = tb.TypedViews([]ColBound{geBound(0, types.NewString("zz"))})
	if len(views) != 3 || pruned != 0 {
		t.Fatalf("mismatched bound type pruned: %d views, %d pruned", len(views), pruned)
	}
	// A NULL comparison value qualifies nothing anywhere.
	views, pruned = tb.TypedViews([]ColBound{{Col: 0, Never: true}})
	if len(views) != 0 || pruned != 3 {
		t.Fatalf("Never bound: %d views, %d pruned, want 0/3", len(views), pruned)
	}
}

func TestZoneWideningAndAnalyze(t *testing.T) {
	tb := zoneTable(2 * SegRows)
	lo := geBound(0, types.NewInt(int64(2*SegRows+1000)))
	if views, pruned := tb.TypedViews([]ColBound{lo}); len(views) != 0 || pruned != 2 {
		t.Fatalf("initial: %d views, %d pruned", len(views), pruned)
	}
	// Overwriting a slot in segment 0 with a large value widens its zone:
	// the segment must stop pruning immediately.
	tb.Set(5, types.Row{types.NewInt(int64(2 * SegRows * 10)), types.NewFloat(0)})
	views, pruned := tb.TypedViews([]ColBound{lo})
	if len(views) != 1 || pruned != 1 {
		t.Fatalf("after widening write: %d views, %d pruned, want 1/1", len(views), pruned)
	}
	// Deleting that row leaves the zone conservatively wide — still no
	// pruning of segment 0 — until ANALYZE recomputes exact bounds.
	tb.Delete(5)
	if views, _ := tb.TypedViews([]ColBound{lo}); len(views) != 1 {
		t.Fatalf("conservative zone pruned a segment right after delete")
	}
	tb.Maintain()
	if views, pruned := tb.TypedViews([]ColBound{lo}); len(views) != 0 || pruned != 2 {
		t.Fatalf("after Maintain: %d views, %d pruned, want 0/2", len(views), pruned)
	}
}

func TestAllNullColumnPrunes(t *testing.T) {
	tb := New([]types.Type{types.IntType, types.IntType})
	for i := 0; i < 100; i++ {
		tb.Append(types.Row{types.NewInt(int64(i)), types.Null})
	}
	// Any comparison on the all-NULL column is Unknown everywhere.
	views, pruned := tb.TypedViews([]ColBound{geBound(1, types.NewInt(0))})
	if len(views) != 0 || pruned != 1 {
		t.Fatalf("all-NULL column: %d views, %d pruned, want 0/1", len(views), pruned)
	}
	// The populated column still scans.
	if views, _ := tb.TypedViews([]ColBound{geBound(0, types.NewInt(0))}); len(views) != 1 {
		t.Fatal("populated column wrongly pruned")
	}
}

func TestTypedViewSnapshotSemantics(t *testing.T) {
	tb := New([]types.Type{types.IntType, types.StringType})
	for i := 0; i < SegRows; i++ { // full segment → cached typed view
		tb.Append(types.Row{types.NewInt(int64(i)), types.NewString("x")})
	}
	views, _ := tb.TypedViews(nil)
	v := views[0]
	if v.Cols[0].Nulls != nil {
		t.Fatal("NOT NULL column carries a null bitmap")
	}
	// Mutations after the snapshot must not show through it.
	tb.Set(0, types.Row{types.NewInt(-777), types.Null})
	if got := v.Cols[0].Ints[0]; got != 0 {
		t.Fatalf("typed view saw later write: %d", got)
	}
	if v.Cols[0].IsNull(0) {
		t.Fatal("typed view saw later NULL")
	}
	// A fresh snapshot sees the write, with the null bitmap materialized.
	views, _ = tb.TypedViews(nil)
	if got := views[0].Cols[0].Ints[0]; got != -777 {
		t.Fatalf("fresh typed view missed the write: %d", got)
	}
	if !views[0].Cols[1].IsNull(0) {
		t.Fatal("fresh typed view missed the NULL")
	}
	// The cached view is reused while the segment is unchanged.
	again, _ := tb.TypedViews(nil)
	if &again[0].Cols[0].Ints[0] != &views[0].Cols[0].Ints[0] {
		t.Fatal("full unchanged segment rebuilt its typed view")
	}
	// A delete invalidates the cache and drops out of the live selection.
	tb.Delete(20)
	if views, _ = tb.TypedViews(nil); views[0].Rows() != SegRows-1 {
		t.Fatalf("view rows = %d after delete", views[0].Rows())
	}
}

func TestHollowSegmentLifecycle(t *testing.T) {
	tb := zoneTable(SegRows + 100)
	for i := 0; i < SegRows; i++ {
		tb.Delete(i)
	}
	if got := tb.HollowSegments(); got != 0 {
		t.Fatalf("hollowed before Maintain: %d", got)
	}
	if h := tb.Maintain(); h != 1 {
		t.Fatalf("Maintain hollowed %d segments, want 1", h)
	}
	if got := tb.HollowSegments(); got != 1 {
		t.Fatalf("HollowSegments = %d, want 1", got)
	}
	// The hollow segment is skipped by scans, and its slots read as dead.
	if views, _ := tb.TypedViews(nil); len(views) != 1 {
		t.Fatalf("hollow segment not skipped: %d views", len(views))
	}
	if _, ok := tb.Get(0); ok {
		t.Fatal("hollow slot returned a row")
	}
	// Restore (transaction rollback) re-materializes storage on demand.
	tb.Restore(7, types.Row{types.NewInt(7000), types.NewFloat(7.5)})
	if tb.HollowSegments() != 0 {
		t.Fatal("restore left the segment hollow")
	}
	row, ok := tb.Get(7)
	if !ok || row[0].I != 7000 || row[1].F != 7.5 {
		t.Fatalf("restored row = %v, %v", row, ok)
	}
	// Neighboring slots stay dead with zero payload.
	if _, ok := tb.Get(8); ok {
		t.Fatal("unrestored hollow slot came back alive")
	}
	if views, _ := tb.TypedViews(nil); len(views) != 2 {
		t.Fatalf("revived segment not scanned: %d views", len(views))
	}
}
