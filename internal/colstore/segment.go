package colstore

import (
	"sync/atomic"

	"xnf/internal/enc"
	"xnf/internal/types"
)

// SegRows is the slot capacity of one segment: large enough that a segment
// view amortizes over several executor batches, small enough that one
// segment is a natural morsel for parallel scans.
const SegRows = 4096

// colVec is one column of one segment: a typed vector selected by the
// column's declared type. INTEGER and BOOLEAN share the int64 payload
// (exactly like types.Value), FLOAT uses float64, VARCHAR uses string.
// NULLs live in the segment's per-column bitmap; the typed slot of a NULL
// holds the zero value.
//
// A column of a full, Maintain'd segment may instead hold a compressed
// encoding — a sorted string dictionary or a frame-of-reference packed int
// vector — with the corresponding raw slice nil. Encoded payloads are
// immutable; any in-place write first rebuilds the raw vector (unencode).
type colVec struct {
	typ    types.Type
	ints   []int64
	floats []float64
	strs   []string

	dict *enc.StringDict
	pack *enc.IntPack
}

// encoded reports whether the column holds a compressed payload.
func (v *colVec) encoded() bool { return v.dict != nil || v.pack != nil }

func newColVec(typ types.Type) colVec {
	v := colVec{typ: typ}
	switch typ {
	case types.FloatType:
		v.floats = make([]float64, 0, SegRows)
	case types.StringType:
		v.strs = make([]string, 0, SegRows)
	default: // IntType, BoolType and anything value-coerced to them
		v.ints = make([]int64, 0, SegRows)
	}
	return v
}

// grow appends one zero slot.
func (v *colVec) grow() {
	switch v.typ {
	case types.FloatType:
		v.floats = append(v.floats, 0)
	case types.StringType:
		v.strs = append(v.strs, "")
	default:
		v.ints = append(v.ints, 0)
	}
}

// store encodes a non-NULL value into slot i. The storage layer coerces
// values to the declared column type before they reach the heap, so the
// value's runtime type matches the vector's.
func (v *colVec) store(i int, val types.Value) {
	switch v.typ {
	case types.FloatType:
		v.floats[i] = val.F
	case types.StringType:
		v.strs[i] = val.S
	default:
		v.ints[i] = val.I
	}
}

// zero clears slot i (deleted slots must not pin old strings). Encoded
// payloads are immutable and shared with published snapshots; tombstoned
// slots of an encoded column keep their codes and are masked by the
// deleted/null bitmaps instead.
func (v *colVec) zero(i int) {
	if v.encoded() {
		return
	}
	switch v.typ {
	case types.FloatType:
		v.floats[i] = 0
	case types.StringType:
		v.strs[i] = ""
	default:
		v.ints[i] = 0
	}
}

// load decodes slot i as a non-NULL value.
func (v *colVec) load(i int) types.Value {
	if v.dict != nil {
		return types.Value{T: types.StringType, S: v.dict.At(i)}
	}
	if v.pack != nil {
		return types.Value{T: v.typ, I: v.pack.At(i)}
	}
	switch v.typ {
	case types.FloatType:
		return types.Value{T: types.FloatType, F: v.floats[i]}
	case types.StringType:
		return types.Value{T: types.StringType, S: v.strs[i]}
	default:
		return types.Value{T: v.typ, I: v.ints[i]}
	}
}

// segment is one SegRows-slot chunk of a Table.
type segment struct {
	n       int // physical slots in use
	cols    []colVec
	nulls   []Bitmap // per column; bit set = NULL
	deleted Bitmap
	dead    int    // number of deleted slots
	version uint64 // bumped on every mutation; invalidates cached views
	hollow  bool   // all-deleted payload freed; rebuilt on demand

	// zones holds the per-column min/max summary used for scan pruning.
	// Bounds widen on every write (conservative across overwrites and
	// deletes) and are recomputed exactly by ANALYZE.
	zones []zone

	// tview caches the typed snapshot of a full segment, stamped with the
	// version it was built at. Readers build-and-publish racily (last write
	// wins — both candidates are equivalent), writers invalidate by bumping
	// version under the owning table's write lock.
	tview atomic.Pointer[stampedTypedView]
}

type stampedTypedView struct {
	version uint64
	v       TypedView
}

func newSegment(typs []types.Type) *segment {
	s := &segment{
		cols:    make([]colVec, len(typs)),
		nulls:   make([]Bitmap, len(typs)),
		deleted: newBitmap(SegRows),
		zones:   make([]zone, len(typs)),
	}
	for i, t := range typs {
		s.cols[i] = newColVec(t)
		s.nulls[i] = newBitmap(SegRows)
	}
	return s
}

// grow extends the segment by one zero, non-deleted slot; the caller fills
// it via write or marks it deleted (rollback padding).
func (s *segment) grow() int {
	s.ensureStorage()
	i := s.n
	for c := range s.cols {
		s.cols[c].grow()
	}
	s.n++
	return i
}

// write stores row into slot i, which must exist and not be deleted (revive
// clears the tombstone and its null bits before calling write, so wasNull
// below always reflects a live slot's prior state).
func (s *segment) write(i int, row types.Row) {
	s.unencode()
	for c := range s.cols {
		wasNull := s.nulls[c].Get(i)
		if row[c].IsNull() {
			if !wasNull {
				s.zones[c].nulls++
			}
			s.nulls[c].Set(i)
			s.cols[c].zero(i)
		} else {
			if wasNull {
				s.zones[c].nulls--
			}
			s.nulls[c].Clear(i)
			s.cols[c].store(i, row[c])
			s.zones[c].widen(row[c])
		}
	}
	s.version++
}

// get decodes slot i; ok is false for deleted slots.
func (s *segment) get(i int) (types.Row, bool) {
	if i >= s.n || s.deleted.Get(i) {
		return nil, false
	}
	row := make(types.Row, len(s.cols))
	for c := range s.cols {
		if s.nulls[c].Get(i) {
			row[c] = types.Null
		} else {
			row[c] = s.cols[c].load(i)
		}
	}
	return row, true
}

// markDeleted tombstones slot i and drops its payload. The null bits it
// sets are tombstone markers, not live NULLs: any slot that was counted as
// a live NULL leaves the count here, and revive clears the bits again
// before rewriting.
func (s *segment) markDeleted(i int) {
	s.deleted.Set(i)
	s.dead++
	for c := range s.cols {
		if s.nulls[c].Get(i) {
			s.zones[c].nulls--
		}
		s.nulls[c].Set(i)
		s.cols[c].zero(i)
	}
	s.version++
}

// revive restores row into the previously deleted slot i (undo of delete).
func (s *segment) revive(i int, row types.Row) {
	s.ensureStorage()
	s.deleted.Clear(i)
	s.dead--
	// Clear the tombstone null bits so write's wasNull bookkeeping sees the
	// slot as freshly live (markDeleted already uncounted the old NULLs).
	for c := range s.nulls {
		s.nulls[c].Clear(i)
	}
	s.write(i, row) // bumps version
}

// hollowOut frees the payload of an all-deleted segment while preserving
// its slot space, so RIDs stay stable and an undo-log restore of one of its
// slots keeps working (ensureStorage rebuilds zeroed vectors on demand).
// ANALYZE-driven compaction calls it; callers hold the table's write lock.
func (s *segment) hollowOut() {
	if s.hollow || s.n == 0 || s.dead != s.n {
		return
	}
	for c := range s.cols {
		s.cols[c].ints, s.cols[c].floats, s.cols[c].strs = nil, nil, nil
		s.cols[c].dict, s.cols[c].pack = nil, nil
	}
	s.hollow = true
	s.zones = make([]zone, len(s.cols))
	s.tview.Store(nil)
	s.version++
}

// ensureStorage rebuilds the zeroed payload vectors of a hollowed segment
// before a write can land in it again (rollback restore, or appends into a
// hollow tail segment).
func (s *segment) ensureStorage() {
	if !s.hollow {
		return
	}
	for c := range s.cols {
		vec := &s.cols[c]
		switch vec.typ {
		case types.FloatType:
			vec.floats = make([]float64, s.n, SegRows)
		case types.StringType:
			vec.strs = make([]string, s.n, SegRows)
		default:
			vec.ints = make([]int64, s.n, SegRows)
		}
	}
	s.hollow = false
}

// encode compresses the eligible columns of a full, settled segment:
// strings to a sorted dictionary, ints/bools to frame-of-reference packed
// codes (enc's heuristics decide per column; floats and refused columns
// stay raw). Only full segments encode — the tail keeps taking raw DML
// writes until Maintain sees it full. NULL and tombstoned slots encode as
// code zero; they are masked by the bitmaps exactly as their raw zero
// values were. Callers hold the owning table's write lock.
func (s *segment) encode() {
	if s.hollow || s.n < SegRows || s.dead == s.n {
		return
	}
	changed := false
	for c := range s.cols {
		vec := &s.cols[c]
		if vec.encoded() {
			continue
		}
		nulls := s.nulls[c]
		skip := func(i int) bool { return nulls.Get(i) }
		switch vec.typ {
		case types.FloatType:
			// No float encoding; stays raw.
		case types.StringType:
			if d := enc.DictStrings(vec.strs, skip); d != nil {
				vec.dict, vec.strs = d, nil
				changed = true
			}
		default:
			if p := enc.PackInts(vec.ints, skip); p != nil {
				vec.pack, vec.ints = p, nil
				changed = true
			}
		}
	}
	if changed {
		s.tview.Store(nil)
		s.version++
	}
}

// unencode rebuilds raw payload vectors from any encoded columns before an
// in-place mutation. NULL and tombstoned slots come back as zero values
// (the raw invariant: deleted slots must not pin strings). Published
// snapshots keep the old immutable encoded payload; the version bump here
// invalidates the caches.
func (s *segment) unencode() {
	changed := false
	for c := range s.cols {
		vec := &s.cols[c]
		if !vec.encoded() {
			continue
		}
		nulls := s.nulls[c]
		if vec.dict != nil {
			strs := make([]string, s.n, SegRows)
			for i := 0; i < s.n; i++ {
				if !nulls.Get(i) {
					strs[i] = vec.dict.At(i)
				}
			}
			vec.strs, vec.dict = strs, nil
		} else {
			ints := make([]int64, s.n, SegRows)
			for i := 0; i < s.n; i++ {
				if !nulls.Get(i) {
					ints[i] = vec.pack.At(i)
				}
			}
			vec.ints, vec.pack = ints, nil
		}
		changed = true
	}
	if changed {
		s.tview.Store(nil)
		s.version++
	}
}

// recomputeZones rebuilds the exact per-column min/max and live null count
// over live slots (the ANALYZE pass; incremental widening only ever
// over-approximates min/max, and this re-derives the null counts from
// scratch as a self-check against drift).
func (s *segment) recomputeZones() {
	zs := make([]zone, len(s.cols))
	if !s.hollow {
		for c := range s.cols {
			vec := &s.cols[c]
			nulls := s.nulls[c]
			for i := 0; i < s.n; i++ {
				if s.deleted.Get(i) {
					continue
				}
				if nulls.Get(i) {
					zs[c].nulls++
					continue
				}
				zs[c].widen(vec.load(i))
			}
		}
	}
	s.zones = zs
}

// typedSnapshot is snapshot's unboxed counterpart: the typed payload and
// null bitmaps are copied (snapshot isolation — later in-place writes must
// not show through), never boxed. Full segments cache the copy per version,
// so steady-state scans of loaded tables touch no per-row code at all.
func (s *segment) typedSnapshot() TypedView {
	if s.n == SegRows {
		if sv := s.tview.Load(); sv != nil && sv.version == s.version {
			return sv.v
		}
		v := s.decodeTyped()
		s.tview.Store(&stampedTypedView{version: s.version, v: v})
		return v
	}
	return s.decodeTyped()
}

// decodeTyped snapshots every column of the segment in typed form.
func (s *segment) decodeTyped() TypedView {
	v := TypedView{Cols: make([]TypedCol, len(s.cols)), N: s.n}
	for c := range s.cols {
		vec := &s.cols[c]
		tc := TypedCol{Typ: vec.typ}
		switch {
		case vec.dict != nil:
			// Encoded payloads are immutable and replaced (never mutated) by
			// unencode/write, so sharing the pointer is snapshot-safe.
			tc.Dict = vec.dict
		case vec.pack != nil:
			tc.Pack = vec.pack
		case vec.typ == types.FloatType:
			tc.Floats = append([]float64(nil), vec.floats...)
		case vec.typ == types.StringType:
			tc.Strs = append([]string(nil), vec.strs...)
		default:
			tc.Ints = append([]int64(nil), vec.ints...)
		}
		if s.nulls[c].Count() > 0 {
			tc.Nulls = s.nulls[c].clone()
		}
		v.Cols[c] = tc
	}
	v.Sel = s.liveSel()
	return v
}

// liveSel returns the live slot selection, or nil when every slot is live.
func (s *segment) liveSel() []int {
	if s.dead == 0 {
		return nil
	}
	sel := make([]int, 0, s.n-s.dead)
	for i := 0; i < s.n; i++ {
		if !s.deleted.Get(i) {
			sel = append(sel, i)
		}
	}
	return sel
}
