package storage

import (
	"fmt"
	"math/rand"
	"testing"

	"xnf/internal/catalog"
	"xnf/internal/colstore"
	"xnf/internal/types"
)

func testStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore(catalog.New())
	err := s.CreateTable(&catalog.Table{
		Name: "EMP",
		Columns: []catalog.Column{
			{Name: "ENO", Type: types.IntType, NotNull: true},
			{Name: "NAME", Type: types.StringType},
			{Name: "EDNO", Type: types.IntType},
			{Name: "SAL", Type: types.FloatType},
		},
		PrimaryKey: []string{"ENO"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func emp(eno int64, name string, dno int64, sal float64) types.Row {
	return types.Row{types.NewInt(eno), types.NewString(name), types.NewInt(dno), types.NewFloat(sal)}
}

func TestInsertGetScan(t *testing.T) {
	s := testStore(t)
	td, _ := s.Table("emp") // case-insensitive
	for i := int64(1); i <= 5; i++ {
		if _, err := td.Insert(emp(i, fmt.Sprintf("e%d", i), i%2, float64(i)*100)); err != nil {
			t.Fatal(err)
		}
	}
	if td.RowCount() != 5 {
		t.Fatalf("RowCount = %d", td.RowCount())
	}
	r, ok := td.Get(2)
	if !ok || r[0].I != 3 {
		t.Fatalf("Get(2) = %v, %v", r, ok)
	}
	var seen []int64
	td.Scan(func(rid RID, row types.Row) bool {
		seen = append(seen, row[0].I)
		return true
	})
	for i, v := range seen {
		if v != int64(i+1) {
			t.Fatalf("scan order broken: %v", seen)
		}
	}
}

func TestInsertValidation(t *testing.T) {
	s := testStore(t)
	td, _ := s.Table("EMP")
	if _, err := td.Insert(types.Row{types.NewInt(1)}); err == nil {
		t.Error("arity mismatch should fail")
	}
	if _, err := td.Insert(types.Row{types.Null, types.NewString("x"), types.NewInt(1), types.NewFloat(0)}); err == nil {
		t.Error("NOT NULL violation should fail")
	}
	if _, err := td.Insert(types.Row{types.NewString("x"), types.NewString("x"), types.NewInt(1), types.NewFloat(0)}); err == nil {
		t.Error("type mismatch should fail")
	}
	// int → float coercion on SAL
	rid, err := td.Insert(types.Row{types.NewInt(1), types.NewString("a"), types.NewInt(1), types.NewInt(500)})
	if err != nil {
		t.Fatal(err)
	}
	r, _ := td.Get(rid)
	if r[3].T != types.FloatType || r[3].F != 500 {
		t.Errorf("coercion failed: %v", r[3])
	}
	// duplicate PK
	if _, err := td.Insert(emp(1, "dup", 2, 1)); err == nil {
		t.Error("duplicate PK should fail")
	}
}

func TestUpdateDelete(t *testing.T) {
	s := testStore(t)
	td, _ := s.Table("EMP")
	rid, _ := td.Insert(emp(1, "a", 1, 100))
	rid2, _ := td.Insert(emp(2, "b", 1, 200))

	old, err := td.Update(rid, emp(1, "a2", 2, 150))
	if err != nil {
		t.Fatal(err)
	}
	if old[1].S != "a" {
		t.Errorf("old image = %v", old)
	}
	r, _ := td.Get(rid)
	if r[1].S != "a2" {
		t.Errorf("update not applied: %v", r)
	}
	// PK collision on update
	if _, err := td.Update(rid, emp(2, "x", 1, 1)); err == nil {
		t.Error("update to duplicate PK should fail")
	}
	// Update keeping same PK is fine.
	if _, err := td.Update(rid2, emp(2, "b2", 3, 250)); err != nil {
		t.Fatal(err)
	}

	if _, err := td.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if _, ok := td.Get(rid); ok {
		t.Error("deleted row still visible")
	}
	if td.RowCount() != 1 {
		t.Errorf("RowCount = %d", td.RowCount())
	}
	if _, err := td.Delete(rid); err == nil {
		t.Error("double delete should fail")
	}
	// PK slot is free again after delete.
	if _, err := td.Insert(emp(1, "anew", 1, 1)); err != nil {
		t.Errorf("reinsert after delete: %v", err)
	}
}

func TestPKIndexLookup(t *testing.T) {
	s := testStore(t)
	td, _ := s.Table("EMP")
	for i := int64(1); i <= 100; i++ {
		td.Insert(emp(i, "e", i%7, 0))
	}
	rids, err := td.IndexLookup("EMP_PK", types.Row{types.NewInt(42)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != 1 {
		t.Fatalf("lookup returned %d rids", len(rids))
	}
	r, _ := td.Get(rids[0])
	if r[0].I != 42 {
		t.Errorf("wrong row: %v", r)
	}
}

// TestHashIndexLookupDropsCollisions plants a row whose key differs in the
// bucket of another key, as a hash collision would, and requires the
// lookup to drop it on both storage kinds.
func TestHashIndexLookupDropsCollisions(t *testing.T) {
	for _, kind := range []catalog.StorageKind{catalog.RowStore, catalog.ColumnStore} {
		s := testStore(t)
		if err := s.SetTableStorage("EMP", kind); err != nil {
			t.Fatal(err)
		}
		td, _ := s.Table("EMP")
		for i := int64(1); i <= 3; i++ {
			if _, err := td.Insert(emp(i, "e", i, 0)); err != nil {
				t.Fatal(err)
			}
		}
		h := td.indexes[key("EMP_PK")].(*hashIndex)
		one := types.Row{types.NewInt(1)}
		bucket := h.keyHash(emp(1, "", 0, 0))
		h.buckets[bucket] = append(h.buckets[bucket], 2) // rid 2 holds ENO 3
		rids, err := td.IndexLookup("EMP_PK", one)
		if err != nil {
			t.Fatal(err)
		}
		if len(rids) != 1 || rids[0] != 0 {
			t.Errorf("storage %v: lookup of ENO 1 returned rids %v, want [0]", kind, rids)
		}
	}
}

func TestSecondaryIndexes(t *testing.T) {
	s := testStore(t)
	td, _ := s.Table("EMP")
	for i := int64(1); i <= 50; i++ {
		td.Insert(emp(i, fmt.Sprintf("e%d", i), i%5, float64(i)))
	}
	if err := s.CreateIndex(&catalog.Index{
		Name: "EMP_DNO", Table: "EMP", Columns: []string{"EDNO"}, Kind: catalog.HashIndex,
	}); err != nil {
		t.Fatal(err)
	}
	rids, err := td.IndexLookup("EMP_DNO", types.Row{types.NewInt(3)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != 10 {
		t.Fatalf("dno=3 should have 10 rows, got %d", len(rids))
	}

	if err := s.CreateIndex(&catalog.Index{
		Name: "EMP_SAL", Table: "EMP", Columns: []string{"SAL"}, Kind: catalog.OrderedIndex,
	}); err != nil {
		t.Fatal(err)
	}
	rids, err = td.IndexRange("EMP_SAL", types.NewFloat(10), types.NewFloat(12))
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != 3 {
		t.Fatalf("range [10,12] should have 3 rows, got %d", len(rids))
	}
	// Index maintenance across update/delete.
	ridsAll, _ := td.IndexLookup("EMP_DNO", types.Row{types.NewInt(0)})
	victim := ridsAll[0]
	td.Update(victim, emp(1000, "moved", 3, 999))
	rids, _ = td.IndexLookup("EMP_DNO", types.Row{types.NewInt(3)})
	if len(rids) != 11 {
		t.Fatalf("after move dno=3 should have 11 rows, got %d", len(rids))
	}
	td.Delete(victim)
	rids, _ = td.IndexLookup("EMP_DNO", types.Row{types.NewInt(3)})
	if len(rids) != 10 {
		t.Fatalf("after delete dno=3 should have 10 rows, got %d", len(rids))
	}
	// Range over ordered index sees the update.
	rids, _ = td.IndexRange("EMP_SAL", types.NewFloat(998), types.Null)
	if len(rids) != 0 {
		t.Fatalf("deleted row should not appear in range, got %d", len(rids))
	}
}

func TestIndexRangeUnbounded(t *testing.T) {
	s := testStore(t)
	td, _ := s.Table("EMP")
	for i := int64(1); i <= 10; i++ {
		td.Insert(emp(i, "e", 0, float64(i)))
	}
	s.CreateIndex(&catalog.Index{Name: "I", Table: "EMP", Columns: []string{"SAL"}, Kind: catalog.OrderedIndex})
	lo, _ := td.IndexRange("I", types.NewFloat(8), types.Null)
	if len(lo) != 3 {
		t.Errorf("sal >= 8: %d", len(lo))
	}
	hi, _ := td.IndexRange("I", types.Null, types.NewFloat(2))
	if len(hi) != 2 {
		t.Errorf("sal <= 2: %d", len(hi))
	}
	all, _ := td.IndexRange("I", types.Null, types.Null)
	if len(all) != 10 {
		t.Errorf("unbounded: %d", len(all))
	}
}

func TestTransactions(t *testing.T) {
	s := testStore(t)
	td, _ := s.Table("EMP")
	td.Insert(emp(1, "keep", 1, 100))

	tx := s.Begin()
	rid2, err := tx.Insert("EMP", emp(2, "new", 1, 200))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("EMP", 0, emp(1, "changed", 2, 111)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("EMP", rid2); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if td.RowCount() != 1 {
		t.Fatalf("RowCount after rollback = %d", td.RowCount())
	}
	r, _ := td.Get(0)
	if r[1].S != "keep" {
		t.Errorf("rollback did not restore: %v", r)
	}
	if err := tx.Commit(); err == nil {
		t.Error("finished tx should reject commit")
	}

	tx2 := s.Begin()
	tx2.Insert("EMP", emp(3, "c", 1, 1))
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if td.RowCount() != 2 {
		t.Errorf("commit lost rows: %d", td.RowCount())
	}
}

func TestTxRollbackRestoresPKIndex(t *testing.T) {
	s := testStore(t)
	tx := s.Begin()
	tx.Insert("EMP", emp(7, "x", 1, 1))
	tx.Rollback()
	td, _ := s.Table("EMP")
	// PK 7 must be insertable again and findable through the index.
	if _, err := td.Insert(emp(7, "y", 1, 1)); err != nil {
		t.Fatal(err)
	}
	rids, _ := td.IndexLookup("EMP_PK", types.Row{types.NewInt(7)})
	if len(rids) != 1 {
		t.Fatalf("PK index inconsistent after rollback: %d entries", len(rids))
	}
}

func TestAnalyze(t *testing.T) {
	s := testStore(t)
	td, _ := s.Table("EMP")
	for i := int64(1); i <= 20; i++ {
		td.Insert(emp(i, "same", i%4, 0))
	}
	if err := s.Analyze("EMP"); err != nil {
		t.Fatal(err)
	}
	def := td.Def()
	if def.Cardinality("ENO") != 20 {
		t.Errorf("ENO cardinality = %d", def.Cardinality("ENO"))
	}
	if def.Cardinality("EDNO") != 4 {
		t.Errorf("EDNO cardinality = %d", def.Cardinality("EDNO"))
	}
	if def.Cardinality("NAME") != 1 {
		t.Errorf("NAME cardinality = %d", def.Cardinality("NAME"))
	}
	if def.Stats.RowCount != 20 {
		t.Errorf("RowCount stat = %d", def.Stats.RowCount)
	}

	// The same rows — NULLs, duplicates, deleted slots, more than one full
	// segment so the column table dictionary-encodes NAME and packs the
	// ints at its first ANALYZE — must yield identical distinct counts from
	// a row heap and a column heap, over raw segments (first ANALYZE) and
	// over encoded ones (second ANALYZE).
	rowS, colS := testStore(t), testStore(t)
	rowTD, _ := rowS.Table("EMP")
	colTD, _ := colS.Table("EMP")
	colTD.SetStorage(catalog.ColumnStore)
	for _, td := range []*TableData{rowTD, colTD} {
		for i := int64(0); i < colstore.SegRows+500; i++ {
			row := emp(i, fmt.Sprintf("n%d", i%17), i%29, float64(i%101)/3)
			if i%11 == 0 {
				row[1] = types.Null
			}
			if i%7 == 0 {
				row[2] = types.Null
			}
			rid, err := td.Insert(row)
			if err != nil {
				t.Fatal(err)
			}
			if i%13 == 0 {
				if _, err := td.Delete(rid); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for pass := 1; pass <= 2; pass++ {
		if err := rowS.Analyze("EMP"); err != nil {
			t.Fatal(err)
		}
		if err := colS.Analyze("EMP"); err != nil {
			t.Fatal(err)
		}
		if d, p := colTD.EncodedColumns(); d == 0 || p == 0 {
			t.Fatalf("ANALYZE %d: column table not encoded (dict=%d pack=%d)", pass, d, p)
		}
		for _, col := range rowTD.Def().Columns {
			r, c := rowTD.Def().Cardinality(col.Name), colTD.Def().Cardinality(col.Name)
			if r != c {
				t.Errorf("ANALYZE %d: %s cardinality = %d on row storage, %d on column storage", pass, col.Name, r, c)
			}
		}
	}
}

func TestDropTable(t *testing.T) {
	s := testStore(t)
	if err := s.DropTable("EMP"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Table("EMP"); err == nil {
		t.Error("dropped table still accessible")
	}
	if err := s.DropTable("EMP"); err == nil {
		t.Error("double drop should fail")
	}
}

// Property: after a random sequence of inserts/updates/deletes, a full scan
// and the PK index agree exactly.
func TestScanIndexConsistencyRandomOps(t *testing.T) {
	s := testStore(t)
	td, _ := s.Table("EMP")
	r := rand.New(rand.NewSource(42))
	alive := make(map[int64]RID)
	nextPK := int64(1)
	for op := 0; op < 3000; op++ {
		switch r.Intn(3) {
		case 0:
			rid, err := td.Insert(emp(nextPK, "n", r.Int63n(10), 0))
			if err != nil {
				t.Fatal(err)
			}
			alive[nextPK] = rid
			nextPK++
		case 1:
			if len(alive) == 0 {
				continue
			}
			for pk, rid := range alive {
				if _, err := td.Update(rid, emp(pk, "u", r.Int63n(10), float64(op))); err != nil {
					t.Fatal(err)
				}
				break
			}
		case 2:
			if len(alive) == 0 {
				continue
			}
			for pk, rid := range alive {
				if _, err := td.Delete(rid); err != nil {
					t.Fatal(err)
				}
				delete(alive, pk)
				break
			}
		}
	}
	count := 0
	td.Scan(func(rid RID, row types.Row) bool {
		count++
		rids, err := td.IndexLookup("EMP_PK", types.Row{row[0]})
		if err != nil || len(rids) != 1 || rids[0] != rid {
			t.Fatalf("index disagrees for pk %v: %v %v", row[0], rids, err)
		}
		return true
	})
	if count != len(alive) {
		t.Fatalf("scan saw %d rows, expected %d", count, len(alive))
	}
	if td.RowCount() != int64(len(alive)) {
		t.Fatalf("RowCount %d != %d", td.RowCount(), len(alive))
	}
}

// TestKeyUpperCaseNoCopy pins that identifier keys fold case and that an
// already upper-case name is used as is, without an allocation.
func TestKeyUpperCaseNoCopy(t *testing.T) {
	for in, want := range map[string]string{"EMP": "EMP", "emp": "EMP", "Emp_PK": "EMP_PK", "": ""} {
		if got := key(in); got != want {
			t.Errorf("key(%q) = %q, want %q", in, got, want)
		}
	}
	name := "EMP_PK"
	if n := testing.AllocsPerRun(100, func() { _ = key(name) }); n != 0 {
		t.Errorf("key of an upper-case name allocates %v times, want 0", n)
	}
}

// TestIndexProbeAllocs pins that an equality probe of an ordered index
// allocates only its result slice, and a hash probe the same: neither
// builds an ordinal slice to compare or hash the key.
func TestIndexProbeAllocs(t *testing.T) {
	s := testStore(t)
	td, _ := s.Table("EMP")
	for i := int64(1); i <= 100; i++ {
		td.Insert(emp(i, "e", i%7, float64(i)))
	}
	for _, idx := range []*catalog.Index{
		{Name: "EMP_SAL", Table: "EMP", Columns: []string{"SAL"}, Kind: catalog.OrderedIndex},
		{Name: "EMP_SAL_H", Table: "EMP", Columns: []string{"SAL"}, Kind: catalog.HashIndex},
	} {
		if err := s.CreateIndex(idx); err != nil {
			t.Fatal(err)
		}
		key := types.Row{types.NewFloat(42)}
		probe := func() {
			rids, err := td.IndexLookup(idx.Name, key)
			if err != nil || len(rids) != 1 {
				t.Fatalf("%s: probe = %v, %v; want one row", idx.Name, rids, err)
			}
		}
		probe() // an ordered index sorts on its first read
		if n := testing.AllocsPerRun(100, probe); n != 1 {
			t.Errorf("%s: a one-row probe allocates %v times, want 1 (its result)", idx.Name, n)
		}
	}
}
