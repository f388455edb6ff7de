// Package catalog holds the database schema: table and column definitions,
// keys, index metadata, view texts and optimizer statistics. It corresponds
// to the catalog component of an RDBMS; the storage engine and the query
// compiler both consult it.
package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"xnf/internal/types"
)

// Column describes one column of a table.
type Column struct {
	Name    string
	Type    types.Type
	NotNull bool
}

// ForeignKey records that Columns of this table reference the primary key
// columns of RefTable. The XNF layer uses foreign keys to decide which
// relationship connect/disconnect operations are updatable.
type ForeignKey struct {
	Columns    []string
	RefTable   string
	RefColumns []string
}

// IndexKind distinguishes the physical index structures the storage engine
// provides.
type IndexKind uint8

// The index kinds.
const (
	HashIndex IndexKind = iota
	OrderedIndex
)

// Index is the catalog entry for an index.
type Index struct {
	Name    string
	Table   string
	Columns []string
	Kind    IndexKind
	Unique  bool
}

// StorageKind selects the physical row representation of a table.
type StorageKind uint8

// The storage kinds. RowStore (the zero value) is the slot-array heap;
// ColumnStore keeps the table column-major in colstore segments.
const (
	RowStore StorageKind = iota
	ColumnStore
)

// String returns the SQL spelling used by ALTER TABLE … SET STORAGE.
func (k StorageKind) String() string {
	if k == ColumnStore {
		return "COLUMN"
	}
	return "ROW"
}

// Table is the catalog entry for a base table.
type Table struct {
	Name        string
	Columns     []Column
	PrimaryKey  []string
	ForeignKeys []ForeignKey
	Indexes     []*Index

	// Stats are maintained by the storage engine and read by the
	// optimizer; statsMu synchronizes them (DML and ANALYZE update
	// statistics while concurrent compilations read them). Access goes
	// through RowCount/SetRowCount/Cardinality/SetColCard.
	statsMu sync.RWMutex
	Stats   Stats

	// storage is the physical representation kind, maintained by the
	// storage engine (ALTER TABLE … SET STORAGE, ANALYZE auto-promotion).
	// Changing it bumps the catalog version like any DDL.
	storage atomic.Uint32
}

// StorageKind returns the table's physical representation.
func (t *Table) StorageKind() StorageKind { return StorageKind(t.storage.Load()) }

// SetStorageKind records the physical representation (storage engine only).
func (t *Table) SetStorageKind(k StorageKind) { t.storage.Store(uint32(k)) }

// RowCount returns the table's current row-count statistic.
func (t *Table) RowCount() int64 {
	t.statsMu.RLock()
	defer t.statsMu.RUnlock()
	return t.Stats.RowCount
}

// SetRowCount records the row-count statistic (storage engine only).
func (t *Table) SetRowCount(n int64) {
	t.statsMu.Lock()
	t.Stats.RowCount = n
	t.statsMu.Unlock()
}

// Stats carries the optimizer statistics for a table.
type Stats struct {
	RowCount int64
	// ColCard maps column name to its number of distinct values.
	ColCard map[string]int64
}

// View is a named stored query; Text is re-parsed on use. IsXNF marks
// composite-object views defined with OUT OF ... TAKE.
type View struct {
	Name  string
	Text  string
	IsXNF bool
}

// Catalog is the set of tables and views of one database. It is safe for
// concurrent use.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
	views  map[string]*View

	// version counts schema- and statistics-changing events (DDL, index
	// creation, ANALYZE). Compiled plans snapshot it as a cheap freshness
	// check: an equal version means nothing in the catalog changed.
	version atomic.Uint64

	// nameVers counts changes per table/view name. A plan that recorded
	// the versions of the names it depends on stays valid while those are
	// unchanged, even when unrelated DDL/ANALYZE bumped the global
	// version — the fix for eviction storms where one hot table's ANALYZE
	// used to invalidate every cached plan.
	nameVers map[string]uint64
}

// Version returns the current schema/statistics version.
func (c *Catalog) Version() uint64 { return c.version.Load() }

// BumpVersion invalidates every plan compiled against the current version.
// Prefer BumpName when the change is scoped to one table or view; this
// whole-catalog bump remains for events without a single name.
func (c *Catalog) BumpVersion() { c.version.Add(1) }

// NameVersion returns the change counter of one table or view name (0 if
// the name has never changed). Plan revalidation compares it per
// dependency.
func (c *Catalog) NameVersion(name string) uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.nameVers[norm(name)]
}

// BumpName records a change to one table or view (DDL, index creation,
// ANALYZE statistics refresh, storage switch): its per-name counter and
// the global version both advance, so plans depending on the name go
// stale while plans over other tables survive.
func (c *Catalog) BumpName(name string) {
	c.mu.Lock()
	c.nameVers[norm(name)]++
	c.mu.Unlock()
	c.version.Add(1)
}

// bumpNameLocked is BumpName for callers already holding mu.
func (c *Catalog) bumpNameLocked(name string) {
	c.nameVers[norm(name)]++
	c.version.Add(1)
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		tables:   make(map[string]*Table),
		views:    make(map[string]*View),
		nameVers: make(map[string]uint64),
	}
}

// norm gives the case-insensitive lookup key for SQL identifiers.
func norm(name string) string { return strings.ToUpper(name) }

// Reset drops every table and view in place, preserving the Catalog's
// identity — the engine and storage layers share it by reference — while
// advancing the global version so any plan compiled against the discarded
// schema goes stale. Recovery uses it to wipe the partial state a failed
// checkpoint load left behind before retrying with an older checkpoint.
func (c *Catalog) Reset() {
	c.mu.Lock()
	c.tables = make(map[string]*Table)
	c.views = make(map[string]*View)
	for name := range c.nameVers {
		c.nameVers[name]++
	}
	c.mu.Unlock()
	c.version.Add(1)
}

// CreateTable registers a table definition. Column names must be unique and
// primary-key columns must exist.
func (c *Catalog) CreateTable(t *Table) error {
	if t.Name == "" {
		return fmt.Errorf("catalog: table must have a name")
	}
	if len(t.Columns) == 0 {
		return fmt.Errorf("catalog: table %s must have at least one column", t.Name)
	}
	seen := make(map[string]bool, len(t.Columns))
	for _, col := range t.Columns {
		k := norm(col.Name)
		if seen[k] {
			return fmt.Errorf("catalog: duplicate column %s in table %s", col.Name, t.Name)
		}
		seen[k] = true
	}
	for _, pk := range t.PrimaryKey {
		if !seen[norm(pk)] {
			return fmt.Errorf("catalog: primary key column %s not in table %s", pk, t.Name)
		}
	}
	for _, fk := range t.ForeignKeys {
		for _, fc := range fk.Columns {
			if !seen[norm(fc)] {
				return fmt.Errorf("catalog: foreign key column %s not in table %s", fc, t.Name)
			}
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	k := norm(t.Name)
	if _, ok := c.tables[k]; ok {
		return fmt.Errorf("catalog: table %s already exists", t.Name)
	}
	if _, ok := c.views[k]; ok {
		return fmt.Errorf("catalog: a view named %s already exists", t.Name)
	}
	if t.Stats.ColCard == nil {
		t.Stats.ColCard = make(map[string]int64)
	}
	c.tables[k] = t
	c.bumpNameLocked(t.Name)
	return nil
}

// DropTable removes a table definition.
func (c *Catalog) DropTable(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := norm(name)
	if _, ok := c.tables[k]; !ok {
		return fmt.Errorf("catalog: table %s does not exist", name)
	}
	delete(c.tables, k)
	c.bumpNameLocked(name)
	return nil
}

// Table looks up a table definition by name (case-insensitive).
func (c *Catalog) Table(name string) (*Table, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[norm(name)]
	return t, ok
}

// Tables returns all table definitions sorted by name.
func (c *Catalog) Tables() []*Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CreateView registers a view; it shadows no table.
func (c *Catalog) CreateView(v *View) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := norm(v.Name)
	if _, ok := c.tables[k]; ok {
		return fmt.Errorf("catalog: a table named %s already exists", v.Name)
	}
	if _, ok := c.views[k]; ok {
		return fmt.Errorf("catalog: view %s already exists", v.Name)
	}
	c.views[k] = v
	c.bumpNameLocked(v.Name)
	return nil
}

// DropView removes a view.
func (c *Catalog) DropView(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := norm(name)
	if _, ok := c.views[k]; !ok {
		return fmt.Errorf("catalog: view %s does not exist", name)
	}
	delete(c.views, k)
	c.bumpNameLocked(name)
	return nil
}

// View looks up a view by name.
func (c *Catalog) View(name string) (*View, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := c.views[norm(name)]
	return v, ok
}

// Views returns all views sorted by name.
func (c *Catalog) Views() []*View {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*View, 0, len(c.views))
	for _, v := range c.views {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AddIndex attaches index metadata to its table.
func (c *Catalog) AddIndex(idx *Index) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[norm(idx.Table)]
	if !ok {
		return fmt.Errorf("catalog: table %s does not exist", idx.Table)
	}
	for _, existing := range t.Indexes {
		if norm(existing.Name) == norm(idx.Name) {
			return fmt.Errorf("catalog: index %s already exists", idx.Name)
		}
	}
	for _, col := range idx.Columns {
		if _, ok := t.ColumnIndex(col); !ok {
			return fmt.Errorf("catalog: index column %s not in table %s", col, idx.Table)
		}
	}
	t.Indexes = append(t.Indexes, idx)
	c.bumpNameLocked(idx.Table)
	return nil
}

// ColumnIndex returns the ordinal position of a column (case-insensitive).
func (t *Table) ColumnIndex(name string) (int, bool) {
	for i, col := range t.Columns {
		if strings.EqualFold(col.Name, name) {
			return i, true
		}
	}
	return 0, false
}

// ColumnNames returns the column names in table order.
func (t *Table) ColumnNames() []string {
	names := make([]string, len(t.Columns))
	for i, col := range t.Columns {
		names[i] = col.Name
	}
	return names
}

// PKOrdinals resolves the primary key to column ordinals.
func (t *Table) PKOrdinals() []int {
	out := make([]int, 0, len(t.PrimaryKey))
	for _, pk := range t.PrimaryKey {
		if i, ok := t.ColumnIndex(pk); ok {
			out = append(out, i)
		}
	}
	return out
}

// IndexOn returns an index whose leading columns cover exactly the given
// column list prefix, preferring unique then ordered indexes. A hash
// index qualifies only when cols names all of its columns: it hashes the
// whole key, so a prefix cannot probe it.
func (t *Table) IndexOn(cols []string) *Index {
	var best *Index
	for _, idx := range t.Indexes {
		if len(idx.Columns) < len(cols) || idx.Kind == HashIndex && len(idx.Columns) != len(cols) {
			continue
		}
		match := true
		for i, c := range cols {
			if !strings.EqualFold(idx.Columns[i], c) {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		if best == nil || (idx.Unique && !best.Unique) {
			best = idx
		}
	}
	return best
}

// Cardinality returns the distinct-value estimate for a column, defaulting
// to a tenth of the row count when no statistic is recorded.
func (t *Table) Cardinality(col string) int64 {
	t.statsMu.RLock()
	defer t.statsMu.RUnlock()
	if t.Stats.ColCard != nil {
		if card, ok := t.Stats.ColCard[norm(col)]; ok && card > 0 {
			return card
		}
	}
	if t.Stats.RowCount > 10 {
		return t.Stats.RowCount / 10
	}
	if t.Stats.RowCount > 0 {
		return t.Stats.RowCount
	}
	return 1
}

// SetColCard records a distinct-value statistic.
func (t *Table) SetColCard(col string, card int64) {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	if t.Stats.ColCard == nil {
		t.Stats.ColCard = make(map[string]int64)
	}
	t.Stats.ColCard[norm(col)] = card
}
