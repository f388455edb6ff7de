package catalog

import (
	"testing"

	"xnf/internal/types"
)

func deptTable() *Table {
	return &Table{
		Name: "DEPT",
		Columns: []Column{
			{Name: "dno", Type: types.IntType, NotNull: true},
			{Name: "dname", Type: types.StringType},
			{Name: "loc", Type: types.StringType},
		},
		PrimaryKey: []string{"dno"},
	}
}

func TestCreateLookupDrop(t *testing.T) {
	c := New()
	if err := c.CreateTable(deptTable()); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Table("dept"); !ok {
		t.Error("case-insensitive lookup failed")
	}
	if err := c.CreateTable(deptTable()); err == nil {
		t.Error("duplicate table should fail")
	}
	if err := c.DropTable("DEPT"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Table("DEPT"); ok {
		t.Error("dropped table still present")
	}
	if err := c.DropTable("DEPT"); err == nil {
		t.Error("double drop should fail")
	}
}

func TestTableValidation(t *testing.T) {
	c := New()
	if err := c.CreateTable(&Table{Name: "X"}); err == nil {
		t.Error("no columns should fail")
	}
	if err := c.CreateTable(&Table{}); err == nil {
		t.Error("no name should fail")
	}
	bad := deptTable()
	bad.Columns = append(bad.Columns, Column{Name: "DNO", Type: types.IntType})
	if err := c.CreateTable(bad); err == nil {
		t.Error("duplicate column (case-insensitive) should fail")
	}
	bad2 := deptTable()
	bad2.PrimaryKey = []string{"ghost"}
	if err := c.CreateTable(bad2); err == nil {
		t.Error("pk over missing column should fail")
	}
	bad3 := deptTable()
	bad3.ForeignKeys = []ForeignKey{{Columns: []string{"ghost"}, RefTable: "T", RefColumns: []string{"x"}}}
	if err := c.CreateTable(bad3); err == nil {
		t.Error("fk over missing column should fail")
	}
}

func TestViews(t *testing.T) {
	c := New()
	if err := c.CreateTable(deptTable()); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateView(&View{Name: "DEPT", Text: "x"}); err == nil {
		t.Error("view shadowing table should fail")
	}
	if err := c.CreateView(&View{Name: "v1", Text: "SELECT", IsXNF: true}); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateView(&View{Name: "V1"}); err == nil {
		t.Error("duplicate view should fail")
	}
	v, ok := c.View("v1")
	if !ok || !v.IsXNF {
		t.Error("view lookup failed")
	}
	if err := c.CreateTable(&Table{Name: "v1", Columns: []Column{{Name: "a", Type: types.IntType}}}); err == nil {
		t.Error("table shadowing view should fail")
	}
	if len(c.Views()) != 1 {
		t.Error("Views() wrong")
	}
	if err := c.DropView("v1"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropView("v1"); err == nil {
		t.Error("double view drop should fail")
	}
}

func TestIndexes(t *testing.T) {
	c := New()
	c.CreateTable(deptTable())
	if err := c.AddIndex(&Index{Name: "i1", Table: "DEPT", Columns: []string{"loc"}}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddIndex(&Index{Name: "I1", Table: "DEPT", Columns: []string{"dname"}}); err == nil {
		t.Error("duplicate index name should fail")
	}
	if err := c.AddIndex(&Index{Name: "i2", Table: "DEPT", Columns: []string{"ghost"}}); err == nil {
		t.Error("index over missing column should fail")
	}
	if err := c.AddIndex(&Index{Name: "i3", Table: "NOPE", Columns: []string{"x"}}); err == nil {
		t.Error("index over missing table should fail")
	}
	tbl, _ := c.Table("DEPT")
	if idx := tbl.IndexOn([]string{"LOC"}); idx == nil || idx.Name != "i1" {
		t.Error("IndexOn case-insensitive prefix failed")
	}
	if idx := tbl.IndexOn([]string{"dname"}); idx != nil {
		t.Error("no index on dname")
	}
	// Unique index preferred.
	c.AddIndex(&Index{Name: "u1", Table: "DEPT", Columns: []string{"loc"}, Unique: true})
	if idx := tbl.IndexOn([]string{"loc"}); !idx.Unique {
		t.Error("unique index should win")
	}
	// A hash index hashes its whole key, so a prefix cannot probe it; an
	// ordered index can.
	c.AddIndex(&Index{Name: "h2", Table: "DEPT", Columns: []string{"dname", "loc"}, Kind: HashIndex})
	if idx := tbl.IndexOn([]string{"dname"}); idx != nil {
		t.Errorf("hash index %s offered for a prefix of its key", idx.Name)
	}
	if idx := tbl.IndexOn([]string{"dname", "loc"}); idx == nil || idx.Name != "h2" {
		t.Error("hash index should serve its full key")
	}
	c.AddIndex(&Index{Name: "o2", Table: "DEPT", Columns: []string{"dname", "loc"}, Kind: OrderedIndex})
	if idx := tbl.IndexOn([]string{"dname"}); idx == nil || idx.Name != "o2" {
		t.Error("ordered index should serve a prefix of its key")
	}
}

func TestColumnHelpers(t *testing.T) {
	tbl := deptTable()
	if i, ok := tbl.ColumnIndex("LOC"); !ok || i != 2 {
		t.Error("ColumnIndex")
	}
	if _, ok := tbl.ColumnIndex("nope"); ok {
		t.Error("missing column found")
	}
	if len(tbl.ColumnNames()) != 3 {
		t.Error("ColumnNames")
	}
	if pk := tbl.PKOrdinals(); len(pk) != 1 || pk[0] != 0 {
		t.Error("PKOrdinals")
	}
}

func TestCardinality(t *testing.T) {
	tbl := deptTable()
	tbl.Stats.RowCount = 1000
	if tbl.Cardinality("loc") != 100 {
		t.Errorf("default cardinality = %d", tbl.Cardinality("loc"))
	}
	tbl.SetColCard("loc", 5)
	if tbl.Cardinality("LOC") != 5 {
		t.Errorf("set cardinality = %d", tbl.Cardinality("LOC"))
	}
	tbl.Stats.RowCount = 4
	if tbl.Cardinality("dname") != 4 {
		t.Errorf("small-table cardinality = %d", tbl.Cardinality("dname"))
	}
	tbl.Stats.RowCount = 0
	if tbl.Cardinality("dname") != 1 {
		t.Errorf("empty-table cardinality = %d", tbl.Cardinality("dname"))
	}
}

func TestTablesSorted(t *testing.T) {
	c := New()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		c.CreateTable(&Table{Name: n, Columns: []Column{{Name: "a", Type: types.IntType}}})
	}
	names := []string{}
	for _, tbl := range c.Tables() {
		names = append(names, tbl.Name)
	}
	if names[0] != "alpha" || names[2] != "zeta" {
		t.Errorf("tables not sorted: %v", names)
	}
}
