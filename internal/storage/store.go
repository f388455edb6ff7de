// Package storage is the data manager (the paper's CORE analog): in-memory
// heap tables addressed by row identifiers, hash and ordered secondary
// indexes, statistics maintenance, and transactions with an undo log.
// The query compiler never touches storage directly; the executor reads
// through table handles obtained here.
package storage

import (
	"fmt"
	"sync"
	"sync/atomic"

	"xnf/internal/catalog"
	"xnf/internal/wal"
)

// RID identifies a row within its table (slot number in the heap).
type RID int64

// Store owns the physical data for every table in one database.
type Store struct {
	mu     sync.RWMutex
	cat    *catalog.Catalog
	tables map[string]*TableData

	// txGate linearizes transactions against DDL and checkpoints when a
	// WAL is attached: transactions hold it in read mode from Begin
	// through Commit/Rollback (so their memory effects and log records
	// are one atomic unit from the gate's perspective), DDL and
	// checkpoints take it exclusively. Without a WAL the gate is unused —
	// in-memory behavior is unchanged.
	txGate sync.RWMutex
	dur    atomic.Pointer[durability]
	nextTx atomic.Uint64
}

// NewStore creates an empty store bound to a catalog.
func NewStore(cat *catalog.Catalog) *Store {
	return &Store{cat: cat, tables: make(map[string]*TableData)}
}

// Catalog returns the catalog the store is bound to.
func (s *Store) Catalog() *catalog.Catalog { return s.cat }

// ddlGate takes the transaction gate exclusively while a WAL is
// attached, so a DDL record's log position matches its apply position
// relative to every transaction. It returns the matching release func
// (a no-op for in-memory stores).
func (s *Store) ddlGate() func() {
	if s.dur.Load() == nil {
		return func() {}
	}
	s.txGate.Lock()
	return s.txGate.Unlock
}

// CreateTable registers the definition in the catalog and allocates the heap.
func (s *Store) CreateTable(def *catalog.Table) error {
	defer s.ddlGate()()
	// Hold s.mu across the catalog registration: whoever sees the table in
	// the catalog and then asks the store for it (a concurrent ANALYZE)
	// waits here until the heap is in place.
	s.mu.Lock()
	if err := s.cat.CreateTable(def); err != nil {
		s.mu.Unlock()
		return err
	}
	td := newTableData(def)
	// A primary key implies a unique hash index for constraint checking
	// and optimizer use.
	if len(def.PrimaryKey) > 0 {
		idx := &catalog.Index{
			Name:    def.Name + "_PK",
			Table:   def.Name,
			Columns: def.PrimaryKey,
			Kind:    catalog.HashIndex,
			Unique:  true,
		}
		def.Indexes = append(def.Indexes, idx)
		td.buildIndex(idx)
	}
	s.tables[key(def.Name)] = td
	s.mu.Unlock()
	return s.logDDL(&wal.Record{Op: wal.OpCreateTable, TableDef: defToWAL(def)})
}

// DropTable removes a table and its data.
func (s *Store) DropTable(name string) error {
	defer s.ddlGate()()
	if err := s.cat.DropTable(name); err != nil {
		return err
	}
	s.mu.Lock()
	delete(s.tables, key(name))
	s.mu.Unlock()
	return s.logDDL(&wal.Record{Op: wal.OpDropTable, Name: name})
}

// CreateView registers a view. Views live purely in the catalog; the
// store-level wrapper exists so the definition reaches the WAL.
func (s *Store) CreateView(v *catalog.View) error {
	defer s.ddlGate()()
	if err := s.cat.CreateView(v); err != nil {
		return err
	}
	return s.logDDL(&wal.Record{Op: wal.OpCreateView, Name: v.Name, Text: v.Text, IsXNF: v.IsXNF})
}

// DropView removes a view.
func (s *Store) DropView(name string) error {
	defer s.ddlGate()()
	if err := s.cat.DropView(name); err != nil {
		return err
	}
	return s.logDDL(&wal.Record{Op: wal.OpDropView, Name: name})
}

// Table returns the physical table handle.
func (s *Store) Table(name string) (*TableData, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	td, ok := s.tables[key(name)]
	if !ok {
		return nil, fmt.Errorf("storage: table %s does not exist", name)
	}
	return td, nil
}

// ColStoreStats sums the column-store footprint over every table:
// total segments and approximate resident heap bytes. Row-major tables
// contribute nothing. Snapshot-time observability only.
func (s *Store) ColStoreStats() (segments int, bytes int64) {
	s.mu.RLock()
	tds := make([]*TableData, 0, len(s.tables))
	for _, td := range s.tables {
		tds = append(tds, td)
	}
	s.mu.RUnlock()
	for _, td := range tds {
		if segs, b, ok := td.ColStats(); ok {
			segments += segs
			bytes += b
		}
	}
	return segments, bytes
}

// EncodedColumnStats counts the column-store segment columns currently
// held compressed across every table, by encoding kind. Snapshot-time
// observability only.
func (s *Store) EncodedColumnStats() (dict, pack int) {
	s.mu.RLock()
	tds := make([]*TableData, 0, len(s.tables))
	for _, td := range s.tables {
		tds = append(tds, td)
	}
	s.mu.RUnlock()
	for _, td := range tds {
		d, p := td.EncodedColumns()
		dict += d
		pack += p
	}
	return dict, pack
}

// CreateIndex builds a secondary index over existing data.
func (s *Store) CreateIndex(idx *catalog.Index) error {
	defer s.ddlGate()()
	td, err := s.Table(idx.Table)
	if err != nil {
		return err
	}
	if err := s.cat.AddIndex(idx); err != nil {
		return err
	}
	td.mu.Lock()
	if err := td.buildIndex(idx); err != nil {
		td.mu.Unlock()
		return err
	}
	td.mu.Unlock()
	return s.logDDL(&wal.Record{Op: wal.OpCreateIndex, IndexDef: &wal.IndexDef{
		Name: idx.Name, Table: idx.Table, Columns: idx.Columns,
		Kind: uint8(idx.Kind), Unique: idx.Unique,
	}})
}

// Analyze recomputes the distinct-value statistics for a table's columns.
// The stats walk runs over an immutable snapshot — segment views for
// column tables, row pointers for row tables — so writers are blocked
// only for the instant the snapshot is captured, never for the duration
// of the walk. Analyze also drives the colstore auto-promotion heuristic:
// a row-major table whose fresh live row count crosses the configured
// threshold is switched to columnar storage in the same pass (the row
// count that justifies columnar scans is exactly what ANALYZE just
// measured).
func (s *Store) Analyze(name string) error {
	td, err := s.Table(name)
	if err != nil {
		return err
	}
	seen := make([]map[uint64]struct{}, len(td.def.Columns))
	for i := range seen {
		seen[i] = make(map[uint64]struct{})
	}
	if views, _, ok := td.TypedColumnViews(nil); ok {
		for _, v := range views {
			for c := range seen {
				col := &v.Cols[c]
				if v.Sel != nil {
					for _, i := range v.Sel {
						seen[c][col.Value(i).Hash()] = struct{}{}
					}
				} else {
					for i := 0; i < v.N; i++ {
						seen[c][col.Value(i).Hash()] = struct{}{}
					}
				}
			}
		}
	} else {
		for _, r := range td.Snapshot() {
			for c := range seen {
				seen[c][r[c].Hash()] = struct{}{}
			}
		}
	}
	for i, col := range td.def.Columns {
		td.def.SetColCard(col.Name, int64(len(seen[i])))
	}
	td.mu.Lock()
	if ch, ok := td.heap.(*colHeap); ok {
		// Column tables piggyback physical maintenance on the stats pass:
		// exact zone maps for segment pruning, and compaction of segments
		// whose every slot is deleted (payload freed, slot space kept).
		ch.t.Maintain()
	}
	td.mu.Unlock()
	// Fresh statistics can change plan choices; stale compiled plans over
	// this table must not outlive them (plans over other tables survive).
	s.cat.BumpName(name)
	return nil
}

// SetTableStorage switches a table's physical representation (ALTER TABLE
// … SET STORAGE). RIDs and indexes are preserved; the catalog version is
// bumped so compiled plans re-decide their scan strategy.
func (s *Store) SetTableStorage(name string, kind catalog.StorageKind) error {
	defer s.ddlGate()()
	td, err := s.Table(name)
	if err != nil {
		return err
	}
	td.SetStorage(kind)
	s.cat.BumpName(name)
	return s.logDDL(&wal.Record{Op: wal.OpSetStorage, Table: name, Storage: uint8(kind)})
}

// AnalyzeAll runs Analyze over every table. A table dropped concurrently
// between the catalog snapshot and the walk is skipped, not an error — a
// whole-database ANALYZE racing DDL analyzes whatever still exists.
func (s *Store) AnalyzeAll() error {
	for _, t := range s.cat.Tables() {
		if err := s.Analyze(t.Name); err != nil {
			if _, stillThere := s.cat.Table(t.Name); !stillThere {
				continue
			}
			return err
		}
	}
	return nil
}

func key(name string) string {
	// Identifier lookup is case-insensitive throughout the engine. A name
	// that is already upper-case is its own key and is not copied.
	i := 0
	for i < len(name) && !('a' <= name[i] && name[i] <= 'z') {
		i++
	}
	if i == len(name) {
		return name
	}
	b := []byte(name)
	for ; i < len(b); i++ {
		if 'a' <= b[i] && b[i] <= 'z' {
			b[i] -= 'a' - 'A'
		}
	}
	return string(b)
}
