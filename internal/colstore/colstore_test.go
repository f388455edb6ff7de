package colstore

import (
	"fmt"
	"testing"

	"xnf/internal/types"
)

func intRow(vals ...int64) types.Row {
	r := make(types.Row, len(vals))
	for i, v := range vals {
		r[i] = types.NewInt(v)
	}
	return r
}

func TestAppendGetAcrossSegments(t *testing.T) {
	tb := New([]types.Type{types.IntType, types.StringType})
	n := SegRows*2 + 100
	for i := 0; i < n; i++ {
		row := types.Row{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("s%d", i))}
		if i%7 == 0 {
			row[1] = types.Null
		}
		slot := tb.Append(row)
		if slot != i {
			t.Fatalf("slot %d, want %d", slot, i)
		}
	}
	if tb.Segments() != 3 {
		t.Fatalf("segments = %d, want 3", tb.Segments())
	}
	if tb.Slots() != n {
		t.Fatalf("slots = %d, want %d", tb.Slots(), n)
	}
	for _, i := range []int{0, 1, SegRows - 1, SegRows, 2*SegRows + 99} {
		row, ok := tb.Get(i)
		if !ok {
			t.Fatalf("slot %d not found", i)
		}
		if row[0].I != int64(i) {
			t.Fatalf("slot %d holds %v", i, row)
		}
		if i%7 == 0 {
			if !row[1].IsNull() {
				t.Fatalf("slot %d: expected NULL, got %v", i, row[1])
			}
		} else if row[1].S != fmt.Sprintf("s%d", i) {
			t.Fatalf("slot %d holds %v", i, row)
		}
	}
	if _, ok := tb.Get(n); ok {
		t.Fatal("out-of-range slot resolved")
	}
}

func TestDeleteRestoreSetRoundTrip(t *testing.T) {
	tb := New([]types.Type{types.IntType})
	for i := 0; i < 10; i++ {
		tb.Append(intRow(int64(i)))
	}
	tb.Delete(4)
	if _, ok := tb.Get(4); ok {
		t.Fatal("deleted slot still live")
	}
	if tb.Live(4) || !tb.Live(5) {
		t.Fatal("liveness wrong after delete")
	}
	tb.Restore(4, intRow(44))
	row, ok := tb.Get(4)
	if !ok || row[0].I != 44 {
		t.Fatalf("restored slot = %v (ok=%v)", row, ok)
	}
	tb.Set(4, intRow(45))
	row, _ = tb.Get(4)
	if row[0].I != 45 {
		t.Fatalf("set slot = %v", row)
	}
	// Restore past the end pads with tombstones (rollback of a delete after
	// the heap shrank through a representation switch).
	tb.Restore(25, intRow(7))
	if tb.Slots() != 26 {
		t.Fatalf("slots = %d, want 26", tb.Slots())
	}
	if _, ok := tb.Get(20); ok {
		t.Fatal("padding slot resolved as live")
	}
	row, ok = tb.Get(25)
	if !ok || row[0].I != 7 {
		t.Fatalf("restored tail slot = %v (ok=%v)", row, ok)
	}
}

func TestFromRowsPreservesHoles(t *testing.T) {
	rows := []types.Row{intRow(0), nil, intRow(2), nil, intRow(4)}
	tb := FromRows([]types.Type{types.IntType}, rows)
	if tb.Slots() != 5 {
		t.Fatalf("slots = %d", tb.Slots())
	}
	for i, r := range rows {
		got, ok := tb.Get(i)
		if (r == nil) == ok {
			t.Fatalf("slot %d liveness mismatch", i)
		}
		if r != nil && got[0].I != r[0].I {
			t.Fatalf("slot %d = %v, want %v", i, got, r)
		}
	}
	views, _ := tb.TypedViews(nil)
	if len(views) != 1 {
		t.Fatalf("views = %d", len(views))
	}
	if views[0].Rows() != 3 || len(views[0].Sel) != 3 {
		t.Fatalf("view rows = %d sel = %v", views[0].Rows(), views[0].Sel)
	}
}

func TestBitmap(t *testing.T) {
	b := newBitmap(SegRows)
	for _, i := range []int{0, 63, 64, 4095} {
		if b.Get(i) {
			t.Fatalf("bit %d set in fresh bitmap", i)
		}
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if b.Count() != 4 {
		t.Fatalf("count = %d", b.Count())
	}
	b.Clear(64)
	if b.Get(64) || b.Count() != 3 {
		t.Fatal("clear failed")
	}
}
