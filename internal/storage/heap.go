package storage

import (
	"xnf/internal/catalog"
	"xnf/internal/colstore"
	"xnf/internal/types"
)

// rowHeap abstracts the physical row representation of one table so
// TableData can keep rows either row-major (slot array) or column-major
// (colstore segments) behind one API. Implementations do no locking —
// TableData's mutex guards every call — and RIDs are stable slot numbers
// in both representations, so indexes survive a representation switch.
type rowHeap interface {
	// slots returns the physical slot count (live + deleted).
	slots() int
	// get decodes the live row at rid (false for holes/out of range).
	get(rid RID) (types.Row, bool)
	// live reports whether rid holds a live row, without decoding it.
	live(rid RID) bool
	// value decodes column col of the live row at rid, without building
	// the row.
	value(rid RID, col int) types.Value
	// append stores a row in a fresh slot.
	append(row types.Row) RID
	// set overwrites the live row at rid.
	set(rid RID, row types.Row)
	// clear tombstones the slot at rid.
	clear(rid RID)
	// restore revives a deleted slot (transaction rollback), extending the
	// heap with holes if rid lies past the end.
	restore(rid RID, row types.Row)
	// scan visits every live row in slot order until fn returns false.
	scan(fn func(rid RID, row types.Row) bool)
	// kind reports which representation this heap is.
	kind() catalog.StorageKind
}

// --- row-major heap (slot array) ---

// slotHeap is the classic heap: a slot array of rows where deleted slots
// are nil. Slot order is insertion order, which gives deterministic scans.
type slotHeap struct {
	rows []types.Row
}

func (h *slotHeap) slots() int { return len(h.rows) }

func (h *slotHeap) get(rid RID) (types.Row, bool) {
	if rid < 0 || int(rid) >= len(h.rows) || h.rows[rid] == nil {
		return nil, false
	}
	return h.rows[rid], true
}

func (h *slotHeap) live(rid RID) bool {
	return rid >= 0 && int(rid) < len(h.rows) && h.rows[rid] != nil
}

func (h *slotHeap) value(rid RID, col int) types.Value { return h.rows[rid][col] }

func (h *slotHeap) append(row types.Row) RID {
	h.rows = append(h.rows, row)
	return RID(len(h.rows) - 1)
}

func (h *slotHeap) set(rid RID, row types.Row) { h.rows[rid] = row }

func (h *slotHeap) clear(rid RID) { h.rows[rid] = nil }

func (h *slotHeap) restore(rid RID, row types.Row) {
	for int(rid) >= len(h.rows) {
		h.rows = append(h.rows, nil)
	}
	h.rows[rid] = row
}

func (h *slotHeap) scan(fn func(rid RID, row types.Row) bool) {
	for i, r := range h.rows {
		if r == nil {
			continue
		}
		if !fn(RID(i), r) {
			return
		}
	}
}

func (h *slotHeap) kind() catalog.StorageKind { return catalog.RowStore }

// --- column-major heap (colstore segments) ---

// colHeap adapts a colstore.Table to the heap protocol.
type colHeap struct {
	t *colstore.Table
}

func (h *colHeap) slots() int { return h.t.Slots() }

func (h *colHeap) get(rid RID) (types.Row, bool) {
	return h.t.Get(int(rid))
}

func (h *colHeap) live(rid RID) bool { return rid >= 0 && h.t.Live(int(rid)) }

func (h *colHeap) value(rid RID, col int) types.Value { return h.t.Value(int(rid), col) }

func (h *colHeap) append(row types.Row) RID { return RID(h.t.Append(row)) }

func (h *colHeap) set(rid RID, row types.Row) { h.t.Set(int(rid), row) }

func (h *colHeap) clear(rid RID) { h.t.Delete(int(rid)) }

func (h *colHeap) restore(rid RID, row types.Row) { h.t.Restore(int(rid), row) }

func (h *colHeap) scan(fn func(rid RID, row types.Row) bool) {
	h.t.Scan(func(slot int, row types.Row) bool { return fn(RID(slot), row) })
}

func (h *colHeap) kind() catalog.StorageKind { return catalog.ColumnStore }

// colTypes extracts the declared column types of a table definition.
func colTypes(def *catalog.Table) []types.Type {
	typs := make([]types.Type, len(def.Columns))
	for i, c := range def.Columns {
		typs[i] = c.Type
	}
	return typs
}

// newHeap builds an empty heap of the given kind.
func newHeap(def *catalog.Table, kind catalog.StorageKind) rowHeap {
	if kind == catalog.ColumnStore {
		return &colHeap{t: colstore.New(colTypes(def))}
	}
	return &slotHeap{}
}

// convertHeap rebuilds src in the target representation, preserving slot
// numbers (deleted slots stay deleted) so RIDs and indexes remain valid.
func convertHeap(def *catalog.Table, src rowHeap, kind catalog.StorageKind) rowHeap {
	if src.kind() == kind {
		return src
	}
	slots := make([]types.Row, src.slots())
	src.scan(func(rid RID, row types.Row) bool {
		slots[rid] = row
		return true
	})
	if kind == catalog.ColumnStore {
		return &colHeap{t: colstore.FromRows(colTypes(def), slots)}
	}
	return &slotHeap{rows: slots}
}
