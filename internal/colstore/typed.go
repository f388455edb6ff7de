package colstore

import (
	"xnf/internal/enc"
	"xnf/internal/types"
)

// TypedCol is one column of a typed segment view: the payload slice
// selected by Typ — []int64 for INTEGER and BOOLEAN, []float64 for FLOAT,
// []string for VARCHAR — plus the null bitmap (bit set = SQL NULL; the
// typed slot of a NULL holds the zero value). Nulls is nil when none of the
// covered slots is NULL, so kernels can skip the bitmap test entirely on
// NOT NULL data. A TypedCol is immutable once published.
//
// Columns of encoded segments carry Dict (VARCHAR) or Pack (INTEGER/
// BOOLEAN) instead of a raw slice; kernels that understand the encodings
// compare codes directly, everything else decodes per slot through
// StrAt/IntAt/Value.
type TypedCol struct {
	Typ    types.Type
	Ints   []int64
	Floats []float64
	Strs   []string
	Nulls  Bitmap

	Dict *enc.StringDict
	Pack *enc.IntPack
}

// Encoded reports whether the column holds a compressed payload instead of
// a raw slice.
func (c *TypedCol) Encoded() bool { return c.Dict != nil || c.Pack != nil }

// IsNull reports whether slot i holds SQL NULL.
func (c *TypedCol) IsNull(i int) bool { return c.Nulls != nil && c.Nulls.Get(i) }

// StrAt reads string slot i, decoding through the dictionary if encoded.
func (c *TypedCol) StrAt(i int) string {
	if c.Dict != nil {
		return c.Dict.At(i)
	}
	return c.Strs[i]
}

// IntAt reads int/bool slot i, decoding the packed code if encoded.
func (c *TypedCol) IntAt(i int) int64 {
	if c.Pack != nil {
		return c.Pack.At(i)
	}
	return c.Ints[i]
}

// Value boxes slot i into a types.Value — the box-on-demand escape hatch at
// row/projection boundaries; kernels read the payload slices directly.
func (c *TypedCol) Value(i int) types.Value {
	if c.IsNull(i) {
		return types.Null
	}
	switch c.Typ {
	case types.FloatType:
		return types.Value{T: types.FloatType, F: c.Floats[i]}
	case types.StringType:
		return types.Value{T: types.StringType, S: c.StrAt(i)}
	default:
		return types.Value{T: c.Typ, I: c.IntAt(i)}
	}
}

// TypedView is the unboxed scan-facing snapshot of one segment: typed
// column vectors the batch executor reads without materializing a single
// types.Value, plus the selection of live slots (nil when every slot is
// live). It is immutable; mutations to the segment after the view
// was built are not visible through it.
type TypedView struct {
	Cols []TypedCol
	Sel  []int // live slot offsets; nil = all N slots live
	N    int   // physical slots covered
}

// Rows returns the live row count of the view.
func (v TypedView) Rows() int {
	if v.Sel != nil {
		return len(v.Sel)
	}
	return v.N
}

// ColBound is one conjunctive pruning bound over a table column, derived
// from a scan predicate of the form `col <op> constant`: a segment whose
// zone map proves no value can fall inside [Lo, Hi] is skipped without
// being decoded. Never marks a bound whose comparison constant is NULL —
// such a predicate is Unknown for every row, so every segment prunes.
type ColBound struct {
	Col                int
	Lo, Hi             types.Value
	HasLo, HasHi       bool
	LoStrict, HiStrict bool // strict = exclusive bound (<, > rather than <=, >=)
	Never              bool
	NullOnly           bool // IS NULL: prune segments with zero live NULL slots
	NotNull            bool // IS NOT NULL: prune segments with no live non-NULL value
}

// zone is the min/max summary of the non-NULL values of one column of one
// segment, plus the exact count of live NULL slots. min is the NULL value
// while no non-NULL value has ever been recorded (an all-NULL or empty
// column prunes under any comparison, which is Unknown on every row).
// Bounds widen on every write and never shrink between ANALYZE passes, so
// they stay conservative across UPDATE/DELETE; nulls is maintained exactly
// at every write/delete/revive, so IS [NOT] NULL pruning needs no ANALYZE.
type zone struct {
	min, max types.Value
	nulls    int // live slots holding SQL NULL in this column
}

func (z *zone) empty() bool { return z.min.IsNull() }

func (z *zone) widen(v types.Value) {
	if z.empty() {
		z.min, z.max = v, v
		return
	}
	if types.Compare(v, z.min) < 0 {
		z.min = v
	}
	if types.Compare(v, z.max) > 0 {
		z.max = v
	}
}

// boundComparable reports whether comparing the bound value against values
// of the column's declared type can never raise a type error: only then is
// it safe to skip a segment (pruning must not suppress errors the filter
// would have surfaced).
func boundComparable(t types.Type, v types.Value) bool {
	if v.T == t {
		return true
	}
	numeric := func(x types.Type) bool { return x == types.IntType || x == types.FloatType }
	return numeric(t) && numeric(v.T)
}

// prunable reports whether the bounds prove that no live row of the segment
// can satisfy the scan predicate. It is deliberately conservative: unknown
// or type-mismatched bounds never prune.
func (s *segment) prunable(typs []types.Type, bounds []ColBound) bool {
	for _, b := range bounds {
		if b.Never {
			return true
		}
		if b.Col < 0 || b.Col >= len(s.zones) {
			continue
		}
		z := &s.zones[b.Col]
		if b.NullOnly {
			// IS NULL qualifies exactly the live NULL slots; the min/max
			// emptiness rule below must NOT apply (an all-NULL segment is
			// empty by that test yet satisfies IS NULL everywhere).
			if z.nulls == 0 {
				return true
			}
			continue
		}
		if b.NotNull {
			// IS NOT NULL needs a live non-NULL value; an empty zone proves
			// none exists (every non-NULL write widens the zone).
			if z.empty() {
				return true
			}
			continue
		}
		if z.empty() {
			// No non-NULL value recorded: the comparison is Unknown (or the
			// column empty) on every row, so nothing can qualify.
			return true
		}
		if (b.HasLo && !boundComparable(typs[b.Col], b.Lo)) ||
			(b.HasHi && !boundComparable(typs[b.Col], b.Hi)) {
			continue
		}
		if b.HasLo {
			if c := types.Compare(z.max, b.Lo); c < 0 || (b.LoStrict && c == 0) {
				return true
			}
		}
		if b.HasHi {
			if c := types.Compare(z.min, b.Hi); c > 0 || (b.HiStrict && c == 0) {
				return true
			}
		}
	}
	return false
}
