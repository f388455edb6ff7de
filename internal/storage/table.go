package storage

import (
	"fmt"
	"sync"

	"xnf/internal/catalog"
	"xnf/internal/colstore"
	"xnf/internal/types"
)

// TableData is the physical table handle: a heap of rows (row-major slot
// array or column-major colstore segments, see SetStorage) plus secondary
// indexes. Slot order is insertion order in both representations, which
// gives deterministic scans for tests and reproducible benchmarks.
type TableData struct {
	mu      sync.RWMutex
	def     *catalog.Table
	heap    rowHeap
	live    int64
	indexes map[string]index
}

func newTableData(def *catalog.Table) *TableData {
	return &TableData{def: def, heap: newHeap(def, def.StorageKind()), indexes: make(map[string]index)}
}

// Def returns the catalog definition.
func (t *TableData) Def() *catalog.Table { return t.def }

// RowCount returns the number of live rows.
func (t *TableData) RowCount() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.live
}

// StorageKind reports the current physical representation.
func (t *TableData) StorageKind() catalog.StorageKind {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.heap.kind()
}

// SetStorage switches the physical representation, preserving RIDs (and
// therefore indexes). It is idempotent; the caller (Store) is responsible
// for bumping the catalog version afterwards.
func (t *TableData) SetStorage(kind catalog.StorageKind) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.heap = convertHeap(t.def, t.heap, kind)
	t.def.SetStorageKind(kind)
}

// Segments reports the number of column-store segments (0 for row tables);
// the xnfsql \storage command surfaces it.
func (t *TableData) Segments() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if ch, ok := t.heap.(*colHeap); ok {
		return ch.t.Segments()
	}
	return 0
}

// HollowSegments reports how many column-store segments currently have
// their payload freed by compaction (0 for row tables); observability and
// tests read it.
func (t *TableData) HollowSegments() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if ch, ok := t.heap.(*colHeap); ok {
		return ch.t.HollowSegments()
	}
	return 0
}

// TypedColumnViews snapshots the column-store segments as typed (unboxed)
// views for the typed batch kernels, skipping segments whose zone maps
// refute one of the bounds; pruned counts the skipped segments. ok is false
// when the table is row-major (callers then fall back to Snapshot). The
// views are immutable — DML after the call is not visible through them,
// exactly like Snapshot's row pointers.
func (t *TableData) TypedColumnViews(bounds []colstore.ColBound) (views []colstore.TypedView, pruned int, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ch, isCol := t.heap.(*colHeap)
	if !isCol {
		return nil, 0, false
	}
	views, pruned = ch.t.TypedViews(bounds)
	return views, pruned, true
}

// ColStats reports the column-store footprint of the table — segment
// count and approximate resident heap bytes — or ok=false for a
// row-major heap.
func (t *TableData) ColStats() (segments int, bytes int64, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ch, isCol := t.heap.(*colHeap)
	if !isCol {
		return 0, 0, false
	}
	return ch.t.Segments(), ch.t.BytesResident(), true
}

// EncodedColumns counts the column-store segment columns currently held in
// compressed form, by kind; zeros for row-major tables.
func (t *TableData) EncodedColumns() (dict, pack int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if ch, ok := t.heap.(*colHeap); ok {
		return ch.t.EncodedColumns()
	}
	return 0, 0
}

// Insert validates the row against the schema (arity, types, NOT NULL,
// primary-key uniqueness), appends it and maintains indexes and stats.
func (t *TableData) Insert(row types.Row) (RID, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.insertLocked(row)
}

func (t *TableData) insertLocked(row types.Row) (RID, error) {
	if len(row) != len(t.def.Columns) {
		return 0, fmt.Errorf("storage: table %s expects %d columns, got %d",
			t.def.Name, len(t.def.Columns), len(row))
	}
	coerced := make(types.Row, len(row))
	for i, col := range t.def.Columns {
		v, err := types.Coerce(row[i], col.Type)
		if err != nil {
			return 0, fmt.Errorf("storage: column %s.%s: %v", t.def.Name, col.Name, err)
		}
		if v.IsNull() && col.NotNull {
			return 0, fmt.Errorf("storage: column %s.%s is NOT NULL", t.def.Name, col.Name)
		}
		coerced[i] = v
	}
	if pk := t.def.PKOrdinals(); len(pk) > 0 {
		if rid, ok := t.lookupUniqueLocked(t.def.PrimaryKey, coerced, pk); ok {
			return 0, fmt.Errorf("storage: duplicate primary key %v in table %s (existing rid %d)",
				coerced.Key(pk), t.def.Name, rid)
		}
	}
	rid := t.heap.append(coerced)
	t.live++
	t.def.SetRowCount(t.live)
	for _, idx := range t.indexes {
		idx.insert(coerced, rid)
	}
	return rid, nil
}

func (t *TableData) lookupUniqueLocked(cols []string, row types.Row, ords []int) (RID, bool) {
	if idx := t.def.IndexOn(cols); idx != nil {
		if in, ok := t.indexes[key(idx.Name)]; ok {
			keyVals := make(types.Row, len(ords))
			for i, o := range ords {
				keyVals[i] = row[o]
			}
			for _, rid := range in.lookup(keyVals) {
				if stored, ok := t.heap.get(rid); ok && stored.EqualOn(row, ords) {
					return rid, true
				}
			}
			return 0, false
		}
	}
	found := RID(0)
	ok := false
	t.heap.scan(func(rid RID, r types.Row) bool {
		if r.EqualOn(row, ords) {
			found, ok = rid, true
			return false
		}
		return true
	})
	return found, ok
}

// Get fetches a row by RID. Returned rows must not be mutated.
func (t *TableData) Get(rid RID) (types.Row, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.heap.get(rid)
}

// Update replaces the row at rid, re-validating constraints and maintaining
// indexes. It returns the old row for undo logging.
func (t *TableData) Update(rid RID, row types.Row) (types.Row, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	old, ok := t.heap.get(rid)
	if !ok {
		return nil, fmt.Errorf("storage: rid %d not found in table %s", rid, t.def.Name)
	}
	if len(row) != len(t.def.Columns) {
		return nil, fmt.Errorf("storage: table %s expects %d columns, got %d",
			t.def.Name, len(t.def.Columns), len(row))
	}
	coerced := make(types.Row, len(row))
	for i, col := range t.def.Columns {
		v, err := types.Coerce(row[i], col.Type)
		if err != nil {
			return nil, fmt.Errorf("storage: column %s.%s: %v", t.def.Name, col.Name, err)
		}
		if v.IsNull() && col.NotNull {
			return nil, fmt.Errorf("storage: column %s.%s is NOT NULL", t.def.Name, col.Name)
		}
		coerced[i] = v
	}
	if pk := t.def.PKOrdinals(); len(pk) > 0 && !old.EqualOn(coerced, pk) {
		if other, ok := t.lookupUniqueLocked(t.def.PrimaryKey, coerced, pk); ok && other != rid {
			return nil, fmt.Errorf("storage: duplicate primary key %v in table %s", coerced.Key(pk), t.def.Name)
		}
	}
	for _, idx := range t.indexes {
		idx.remove(old, rid)
	}
	t.heap.set(rid, coerced)
	for _, idx := range t.indexes {
		idx.insert(coerced, rid)
	}
	return old, nil
}

// Delete removes the row at rid and returns it for undo logging.
func (t *TableData) Delete(rid RID) (types.Row, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	old, ok := t.heap.get(rid)
	if !ok {
		return nil, fmt.Errorf("storage: rid %d not found in table %s", rid, t.def.Name)
	}
	for _, idx := range t.indexes {
		idx.remove(old, rid)
	}
	t.heap.clear(rid)
	t.live--
	t.def.SetRowCount(t.live)
	return old, nil
}

// insertAt restores a row into a specific slot; used only by transaction
// rollback to undo a delete.
func (t *TableData) insertAt(rid RID, row types.Row) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.heap.restore(rid, row)
	t.live++
	t.def.SetRowCount(t.live)
	for _, idx := range t.indexes {
		idx.insert(row, rid)
	}
}

// Scan calls fn for every live row in slot order; returning false stops the
// scan. The table lock is held in read mode for the duration.
func (t *TableData) Scan(fn func(rid RID, row types.Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.heap.scan(fn)
}

// Snapshot returns all live rows as a slice; operators that need stable
// input (e.g. while the same table is being updated) use it. Column-major
// tables materialize rows here — the batch engine avoids this path via
// TypedColumnViews.
func (t *TableData) Snapshot() []types.Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]types.Row, 0, t.live)
	t.heap.scan(func(_ RID, r types.Row) bool {
		out = append(out, r)
		return true
	})
	return out
}

// SnapshotRIDs returns the RIDs of all live rows in slot order.
func (t *TableData) SnapshotRIDs() []RID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]RID, 0, t.live)
	t.heap.scan(func(rid RID, _ types.Row) bool {
		out = append(out, rid)
		return true
	})
	return out
}

// indexOrds resolves an index definition's columns to table ordinals.
func (t *TableData) indexOrds(def *catalog.Index) ([]int, error) {
	ords := make([]int, len(def.Columns))
	for i, col := range def.Columns {
		o, ok := t.def.ColumnIndex(col)
		if !ok {
			return nil, fmt.Errorf("storage: index column %s not in table %s", col, t.def.Name)
		}
		ords[i] = o
	}
	return ords, nil
}

func (t *TableData) buildIndex(def *catalog.Index) error {
	ords, err := t.indexOrds(def)
	if err != nil {
		return err
	}
	var idx index
	switch def.Kind {
	case catalog.HashIndex:
		idx = newHashIndexCap(ords, int(t.live))
	case catalog.OrderedIndex:
		idx = newOrderedIndex(ords)
	default:
		return fmt.Errorf("storage: unknown index kind %d", def.Kind)
	}
	t.heap.scan(func(rid RID, r types.Row) bool {
		idx.insert(r, rid)
		return true
	})
	t.indexes[key(def.Name)] = idx
	return nil
}

// IndexLookup returns the RIDs whose index key equals keyVals, using the
// named index. A hash bucket also holds keys that merely share the hash,
// so hash candidates whose key columns differ from keyVals are dropped.
func (t *TableData) IndexLookup(indexName string, keyVals types.Row) ([]RID, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	idx, ok := t.indexes[key(indexName)]
	if !ok {
		return nil, fmt.Errorf("storage: index %s not built on table %s", indexName, t.def.Name)
	}
	h, hashed := idx.(*hashIndex)
	rids := idx.lookup(keyVals)
	// A hash lookup returns the index's own bucket; an ordered lookup
	// returns a fresh slice, which is filtered in place.
	out := rids[:0]
	if hashed {
		out = make([]RID, 0, len(rids))
	}
	for _, rid := range rids {
		if t.heap.live(rid) && (!hashed || t.keyEqualLocked(rid, h.ords, keyVals)) {
			out = append(out, rid)
		}
	}
	return out, nil
}

// keyEqualLocked reports whether the live row at rid holds keyVals on the
// columns ords.
func (t *TableData) keyEqualLocked(rid RID, ords []int, keyVals types.Row) bool {
	for i, v := range keyVals {
		if !types.Equal(t.heap.value(rid, ords[i]), v) {
			return false
		}
	}
	return true
}

// IndexRange returns the RIDs whose leading index column lies in [lo, hi]
// (either bound may be the NULL value meaning unbounded). Only ordered
// indexes support ranges.
func (t *TableData) IndexRange(indexName string, lo, hi types.Value) ([]RID, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	idx, ok := t.indexes[key(indexName)]
	if !ok {
		return nil, fmt.Errorf("storage: index %s not built on table %s", indexName, t.def.Name)
	}
	oi, ok := idx.(*orderedIndex)
	if !ok {
		return nil, fmt.Errorf("storage: index %s is not an ordered index", indexName)
	}
	return oi.rangeLookup(lo, hi), nil
}
