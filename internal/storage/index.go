package storage

import (
	"encoding/binary"
	"fmt"
	"sort"

	"xnf/internal/types"
)

// index is the common interface of the physical index structures.
type index interface {
	insert(row types.Row, rid RID)
	remove(row types.Row, rid RID)
	// lookup returns candidate RIDs for an exact key match. Hash indexes
	// may return hash-collision false positives; callers re-check.
	lookup(key types.Row) []RID
}

// hashIndex buckets RIDs by the hash of the key columns.
type hashIndex struct {
	ords    []int
	buckets map[uint64][]RID
}

func newHashIndex(ords []int) *hashIndex {
	return &hashIndex{ords: ords, buckets: make(map[uint64][]RID)}
}

// newHashIndexCap presizes the bucket map for a bulk rebuild over a table
// of known row count (checkpoint restore, storage conversion), skipping the
// incremental map growth an empty-start build pays.
func newHashIndexCap(ords []int, n int) *hashIndex {
	return &hashIndex{ords: ords, buckets: make(map[uint64][]RID, n)}
}

func (h *hashIndex) keyHash(row types.Row) uint64 { return row.Hash(h.ords) }

func (h *hashIndex) insert(row types.Row, rid RID) {
	k := h.keyHash(row)
	h.buckets[k] = append(h.buckets[k], rid)
}

func (h *hashIndex) remove(row types.Row, rid RID) {
	k := h.keyHash(row)
	bucket := h.buckets[k]
	for i, r := range bucket {
		if r == rid {
			bucket[i] = bucket[len(bucket)-1]
			h.buckets[k] = bucket[:len(bucket)-1]
			return
		}
	}
}

func (h *hashIndex) lookup(key types.Row) []RID { return h.buckets[key.HashAll()] }

// orderedIndex keeps (key, rid) entries sorted; maintenance is lazy — bulk
// loads append and the structure re-sorts on the first read after a write,
// which keeps index builds linear-ish instead of quadratic.
type orderedIndex struct {
	ords    []int
	entries []orderedEntry
	dirty   bool
}

type orderedEntry struct {
	key types.Row
	rid RID
}

func newOrderedIndex(ords []int) *orderedIndex { return &orderedIndex{ords: ords} }

func (o *orderedIndex) keyOf(row types.Row) types.Row {
	k := make(types.Row, len(o.ords))
	for i, ord := range o.ords {
		k[i] = row[ord]
	}
	return k
}

func (o *orderedIndex) insert(row types.Row, rid RID) {
	o.entries = append(o.entries, orderedEntry{key: o.keyOf(row), rid: rid})
	o.dirty = true
}

func (o *orderedIndex) remove(row types.Row, rid RID) {
	for i := range o.entries {
		if o.entries[i].rid == rid {
			o.entries = append(o.entries[:i], o.entries[i+1:]...)
			return
		}
	}
}

func (o *orderedIndex) ensureSorted() {
	if !o.dirty {
		return
	}
	sort.SliceStable(o.entries, func(i, j int) bool {
		return compareKey(o.entries[i].key, o.entries[j].key) < 0
	})
	o.dirty = false
}

func (o *orderedIndex) lookup(key types.Row) []RID {
	o.ensureSorted()
	lo := sort.Search(len(o.entries), func(i int) bool {
		return compareKey(o.entries[i].key, key) >= 0
	})
	var out []RID
	for i := lo; i < len(o.entries); i++ {
		if compareKey(o.entries[i].key, key) != 0 {
			break
		}
		out = append(out, o.entries[i].rid)
	}
	return out
}

// compareKey orders an index key against another key, or against a probe
// prefix, on the columns of b.
func compareKey(a, b types.Row) int {
	for i := range b {
		if c := types.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return 0
}

// --- checkpoint codec ---
//
// Checkpoint images persist the physical index payloads so restore is a
// bulk decode instead of a per-row rebuild over the heap (the rebuild's
// row boxing and incremental map growth dominated restore time). The
// index kind and key ordinals are not encoded — both are derived from
// the catalog definition, which the image's DDL section replays first.

const (
	idxPayloadHash    = 0
	idxPayloadOrdered = 1
	idxPayloadAbsent  = 2 // not built; restore falls back to a heap scan
)

// appendIndex serializes one physical index payload.
func appendIndex(buf []byte, idx index) []byte {
	switch h := idx.(type) {
	case nil:
		return append(buf, idxPayloadAbsent)
	case *hashIndex:
		buf = append(buf, idxPayloadHash)
		total := 0
		for _, b := range h.buckets {
			total += len(b)
		}
		buf = binary.AppendUvarint(buf, uint64(total))
		buf = binary.AppendUvarint(buf, uint64(len(h.buckets)))
		for hash, bucket := range h.buckets {
			buf = binary.LittleEndian.AppendUint64(buf, hash)
			buf = binary.AppendUvarint(buf, uint64(len(bucket)))
			for _, rid := range bucket {
				buf = binary.AppendUvarint(buf, uint64(rid))
			}
		}
		return buf
	case *orderedIndex:
		buf = append(buf, idxPayloadOrdered)
		if h.dirty {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.AppendUvarint(buf, uint64(len(h.entries)))
		for _, e := range h.entries {
			buf = types.AppendBinaryRow(buf, e.key)
			buf = binary.AppendUvarint(buf, uint64(e.rid))
		}
		return buf
	}
	panic("storage: unknown index type")
}

// decodeIndex deserializes one index payload; a nil index with nil error
// means the payload was the absent marker and the caller must rebuild
// from the heap. ords comes from the catalog definition. All counts are
// bounded against the remaining payload before allocation, so a damaged
// image fails cleanly.
func decodeIndex(buf []byte, ords []int) (index, []byte, error) {
	if len(buf) < 1 {
		return nil, nil, fmt.Errorf("short index payload")
	}
	kind := buf[0]
	buf = buf[1:]
	switch kind {
	case idxPayloadAbsent:
		return nil, buf, nil
	case idxPayloadHash:
		total, k := binary.Uvarint(buf)
		if k <= 0 || total > uint64(len(buf)) {
			return nil, nil, fmt.Errorf("bad index rid total")
		}
		buf = buf[k:]
		nbuckets, k := binary.Uvarint(buf)
		// Each bucket costs at least 9 bytes (hash + count).
		if k <= 0 || nbuckets > uint64(len(buf))/9+1 {
			return nil, nil, fmt.Errorf("bad index bucket count")
		}
		buf = buf[k:]
		h := &hashIndex{ords: ords, buckets: make(map[uint64][]RID, nbuckets)}
		// One backing array for every bucket: restore costs O(1) allocations
		// instead of one per bucket. Buckets are cap-limited sub-slices, so
		// a later insert into one bucket reallocates rather than clobbering
		// its neighbor.
		backing := make([]RID, 0, total)
		for i := uint64(0); i < nbuckets; i++ {
			if len(buf) < 8 {
				return nil, nil, fmt.Errorf("short index bucket")
			}
			hash := binary.LittleEndian.Uint64(buf)
			buf = buf[8:]
			cnt, k := binary.Uvarint(buf)
			if k <= 0 || cnt > uint64(len(buf)) {
				return nil, nil, fmt.Errorf("bad index bucket size")
			}
			buf = buf[k:]
			start := len(backing)
			for j := uint64(0); j < cnt; j++ {
				rid, k := binary.Uvarint(buf)
				if k <= 0 {
					return nil, nil, fmt.Errorf("bad index rid")
				}
				buf = buf[k:]
				backing = append(backing, RID(rid))
			}
			h.buckets[hash] = backing[start:len(backing):len(backing)]
		}
		return h, buf, nil
	case idxPayloadOrdered:
		if len(buf) < 1 {
			return nil, nil, fmt.Errorf("short index dirty flag")
		}
		dirty := buf[0] != 0
		buf = buf[1:]
		n, k := binary.Uvarint(buf)
		if k <= 0 || n > uint64(len(buf)) {
			return nil, nil, fmt.Errorf("bad index entry count")
		}
		buf = buf[k:]
		o := &orderedIndex{ords: ords, entries: make([]orderedEntry, 0, n), dirty: dirty}
		for i := uint64(0); i < n; i++ {
			key, rest, err := types.DecodeBinaryRow(buf)
			if err != nil {
				return nil, nil, fmt.Errorf("index entry key: %w", err)
			}
			buf = rest
			rid, k := binary.Uvarint(buf)
			if k <= 0 {
				return nil, nil, fmt.Errorf("bad index entry rid")
			}
			buf = buf[k:]
			o.entries = append(o.entries, orderedEntry{key: key, rid: RID(rid)})
		}
		return o, buf, nil
	}
	return nil, nil, fmt.Errorf("unknown index payload kind %d", kind)
}

// rangeLookup returns RIDs whose leading key column is within [lo, hi];
// a NULL bound means unbounded on that side.
func (o *orderedIndex) rangeLookup(lo, hi types.Value) []RID {
	o.ensureSorted()
	start := 0
	if !lo.IsNull() {
		start = sort.Search(len(o.entries), func(i int) bool {
			return types.Compare(o.entries[i].key[0], lo) >= 0
		})
	}
	var out []RID
	for i := start; i < len(o.entries); i++ {
		if !hi.IsNull() && types.Compare(o.entries[i].key[0], hi) > 0 {
			break
		}
		out = append(out, o.entries[i].rid)
	}
	return out
}
