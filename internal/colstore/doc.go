// Package colstore is the column-major table representation that lives
// beneath storage.TableData: the storage-engine analog of the batch
// executor's column-at-a-time evaluation, so hot analytical tables feed
// vexec pipelines without a per-scan row→column transpose.
//
// # Layout
//
// A Table is a sequence of fixed-capacity segments of SegRows (4096) slots.
// Slot numbers are global and stable: slot s lives at offset s%SegRows of
// segment s/SegRows, so the storage layer's RIDs survive a row↔column
// representation switch and secondary indexes keep working unchanged.
//
// Each segment stores one typed vector per column — []int64 for INTEGER and
// BOOLEAN, []float64 for FLOAT, []string for VARCHAR — plus one null Bitmap
// per column (bit set = SQL NULL; the typed slot then holds the zero value)
// and one deleted Bitmap for the whole segment (bit set = the slot is a
// hole left by DELETE, or padding created by a rollback restore past the
// end of the heap). A live row therefore never materializes a types.Value
// until something reads it.
//
// # Views and zero-copy scans
//
// Scans do not gather rows. The scan interface is the typed view:
// TypedViews snapshots each segment as TypedCol payload arrays plus null
// bitmaps (a copy of the raw arrays — never boxed), and the batch engine's
// typed kernels run comparisons, arithmetic and aggregation directly over
// them, boxing a types.Value only at projection/row boundaries.
//
// Views are immutable once built; every mutation bumps the segment version
// so the next scan rebuilds. Full segments (n == SegRows) cache the
// snapshot in an atomic pointer — the common case for loaded
// analytical tables, where repeated scans touch no per-row code at all.
// The mutable tail segment rebuilds its view per scan, which bounds
// staleness without locking writers out.
//
// Sel lists the live slot offsets when the segment has holes and is nil
// when every slot is live, matching the batch engine's selection-vector
// convention. Segments whose every slot is deleted are skipped outright.
//
// # Zone maps and segment pruning
//
// Every segment keeps a per-column min/max summary (zone) of its non-NULL
// values. Writes widen the bounds incrementally — they never shrink on
// UPDATE or DELETE, so the zones stay conservative — and ANALYZE
// (Table.Maintain) recomputes them exactly. TypedViews accepts ColBound
// conjuncts derived from `col <op> constant` scan predicates and skips
// segments whose zones prove no row can qualify, before the segment is
// even decoded; an all-NULL (or empty) column prunes under any comparison,
// and a NULL comparison constant prunes everything. Pruning is refused for
// type pairings whose comparison could raise an error, so it can only skip
// work, never change semantics.
//
// # Compaction
//
// ANALYZE also hollows segments whose every slot is deleted: their payload
// vectors are freed while the slot space (and the deleted bitmap) is
// preserved, so RIDs, secondary indexes and undo-log restores stay valid.
// A hollow segment re-materializes zeroed storage on demand when a
// rollback restore or a tail append writes into it.
//
// # Promotion
//
// Tables switch representation only explicitly, through ALTER TABLE …
// SET STORAGE COLUMN/ROW.
package colstore
