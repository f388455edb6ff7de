package colstore

import "xnf/internal/types"

// Table is the column-major heap of one table: a sequence of segments
// addressed by global slot number. It performs no locking and no schema
// validation of its own — storage.TableData owns the lock and coerces rows
// to the declared column types before they get here.
type Table struct {
	typs []types.Type
	segs []*segment
}

// New returns an empty column-major heap for columns of the given types.
func New(typs []types.Type) *Table {
	return &Table{typs: typs}
}

// FromRows builds a column-major heap from a slot array, preserving slot
// numbers: nil entries become deleted slots so existing RIDs and secondary
// indexes stay valid across a representation switch.
func FromRows(typs []types.Type, rows []types.Row) *Table {
	t := New(typs)
	for _, r := range rows {
		if r == nil {
			t.appendDeleted()
		} else {
			t.Append(r)
		}
	}
	return t
}

// Slots returns the total number of physical slots (live + deleted).
func (t *Table) Slots() int {
	if len(t.segs) == 0 {
		return 0
	}
	return (len(t.segs)-1)*SegRows + t.segs[len(t.segs)-1].n
}

// Segments returns the number of segments.
func (t *Table) Segments() int { return len(t.segs) }

// BytesResident reports the approximate heap bytes held by the table's
// column vectors: typed payload capacity plus string headers and bytes.
// Hollow segments (payload freed) contribute nothing; bitmaps and zone
// maps are negligible and ignored. Snapshot-time observability only —
// it walks every string of every VARCHAR column.
func (t *Table) BytesResident() int64 {
	var total int64
	for _, seg := range t.segs {
		if seg.hollow {
			continue
		}
		for c := range seg.cols {
			v := &seg.cols[c]
			total += int64(cap(v.ints))*8 + int64(cap(v.floats))*8
			total += int64(cap(v.strs)) * 16 // string headers
			for _, s := range v.strs {
				total += int64(len(s))
			}
			if v.dict != nil {
				total += v.dict.Bytes()
			}
			if v.pack != nil {
				total += v.pack.Bytes()
			}
		}
	}
	return total
}

// tail returns the last segment, allocating if none has free capacity.
func (t *Table) tail() *segment {
	if len(t.segs) == 0 || t.segs[len(t.segs)-1].n == SegRows {
		t.segs = append(t.segs, newSegment(t.typs))
	}
	return t.segs[len(t.segs)-1]
}

// Append stores row in a fresh slot and returns its global slot number.
func (t *Table) Append(row types.Row) int {
	seg := t.tail()
	i := seg.grow()
	seg.write(i, row)
	return (len(t.segs)-1)*SegRows + i
}

// appendDeleted extends the heap by one tombstoned slot.
func (t *Table) appendDeleted() {
	seg := t.tail()
	i := seg.grow()
	seg.deleted.Set(i)
	seg.dead++
	for c := range seg.nulls {
		seg.nulls[c].Set(i)
	}
	seg.version++
}

// locate splits a global slot number.
func (t *Table) locate(slot int) (*segment, int, bool) {
	si := slot / SegRows
	if si >= len(t.segs) {
		return nil, 0, false
	}
	return t.segs[si], slot % SegRows, true
}

// Get decodes the row at slot; ok is false for deleted or out-of-range slots.
func (t *Table) Get(slot int) (types.Row, bool) {
	if slot < 0 {
		return nil, false
	}
	seg, off, ok := t.locate(slot)
	if !ok {
		return nil, false
	}
	return seg.get(off)
}

// Value decodes column col of the live row at slot, without building the
// row. The slot must be live.
func (t *Table) Value(slot, col int) types.Value {
	seg, off, _ := t.locate(slot)
	if seg.nulls[col].Get(off) {
		return types.Null
	}
	return seg.cols[col].load(off)
}

// Live reports whether slot holds a live row, without decoding it.
func (t *Table) Live(slot int) bool {
	seg, off, ok := t.locate(slot)
	if !ok {
		return false
	}
	return off < seg.n && !seg.deleted.Get(off)
}

// Set overwrites the live row at slot.
func (t *Table) Set(slot int, row types.Row) {
	seg, off, ok := t.locate(slot)
	if !ok {
		return
	}
	seg.write(off, row)
}

// Delete tombstones the slot.
func (t *Table) Delete(slot int) {
	seg, off, ok := t.locate(slot)
	if !ok {
		return
	}
	seg.markDeleted(off)
}

// Restore revives a deleted slot with the given row, extending the heap
// with tombstoned padding if the slot lies past the end (transaction
// rollback of a delete).
func (t *Table) Restore(slot int, row types.Row) {
	for t.Slots() <= slot {
		t.appendDeleted()
	}
	seg, off, _ := t.locate(slot)
	seg.revive(off, row)
}

// Scan decodes every live row in slot order; returning false stops early.
func (t *Table) Scan(fn func(slot int, row types.Row) bool) {
	for si, seg := range t.segs {
		base := si * SegRows
		for i := 0; i < seg.n; i++ {
			if seg.deleted.Get(i) {
				continue
			}
			row, _ := seg.get(i)
			if !fn(base+i, row) {
				return
			}
		}
	}
}

// TypedViews snapshots the segments for an unboxed batch scan, skipping
// segments with no live rows and — when bounds are given — segments whose
// zone maps prove no row can satisfy the scan predicate. pruned counts the
// zone-map skips (fully-deleted segments are not scans avoided by pruning
// and are not counted).
func (t *Table) TypedViews(bounds []ColBound) (views []TypedView, pruned int) {
	views = make([]TypedView, 0, len(t.segs))
	for _, seg := range t.segs {
		if seg.n == 0 || seg.dead == seg.n {
			continue
		}
		if len(bounds) > 0 && seg.prunable(t.typs, bounds) {
			pruned++
			continue
		}
		views = append(views, seg.typedSnapshot())
	}
	return views, pruned
}

// Maintain is the ANALYZE hook: it recomputes exact zone maps for every
// segment, hollows all-deleted segments — their payload vectors are
// freed while the slot space is preserved, so RIDs, secondary indexes and
// undo-log restores stay valid — and compresses eligible columns of full
// segments (dictionary strings, packed ints; DML since the last pass has
// already dropped mutated segments back to raw, so this is also the
// re-encode step). Returns the number of segments hollowed by this call.
// Callers hold the owning table's write lock.
func (t *Table) Maintain() int {
	hollowed := 0
	for _, seg := range t.segs {
		if !seg.hollow && seg.n > 0 && seg.dead == seg.n {
			seg.hollowOut()
			hollowed++
		}
		seg.encode()
		seg.recomputeZones()
	}
	return hollowed
}

// EncodedColumns counts the segment columns currently held compressed, by
// kind (observability and tests).
func (t *Table) EncodedColumns() (dict, pack int) {
	for _, seg := range t.segs {
		for c := range seg.cols {
			if seg.cols[c].dict != nil {
				dict++
			}
			if seg.cols[c].pack != nil {
				pack++
			}
		}
	}
	return dict, pack
}

// HollowSegments reports how many segments currently have their payload
// freed (observability and tests).
func (t *Table) HollowSegments() int {
	n := 0
	for _, seg := range t.segs {
		if seg.hollow {
			n++
		}
	}
	return n
}
