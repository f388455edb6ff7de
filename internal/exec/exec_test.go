package exec

import (
	"sort"
	"testing"

	"xnf/internal/catalog"
	"xnf/internal/storage"
	"xnf/internal/types"
)

func testStore(t testing.TB) *storage.Store {
	t.Helper()
	s := storage.NewStore(catalog.New())
	if err := s.CreateTable(&catalog.Table{
		Name: "T",
		Columns: []catalog.Column{
			{Name: "a", Type: types.IntType},
			{Name: "b", Type: types.StringType},
		},
	}); err != nil {
		t.Fatal(err)
	}
	td, _ := s.Table("T")
	for i := int64(1); i <= 5; i++ {
		name := "x"
		if i%2 == 0 {
			name = "y"
		}
		td.Insert(types.Row{types.NewInt(i), types.NewString(name)})
	}
	return s
}

func collect(t *testing.T, s *storage.Store, p Plan) []types.Row {
	t.Helper()
	rows, err := Collect(NewCtx(s), p)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func scanT() *ScanPlan {
	return &ScanPlan{Table: "T", Cols: []Column{{Name: "a", Type: types.IntType}, {Name: "b", Type: types.StringType}}}
}

func TestScanAndFilter(t *testing.T) {
	s := testStore(t)
	rows := collect(t, s, scanT())
	if len(rows) != 5 {
		t.Fatalf("scan = %d rows", len(rows))
	}
	f := &FilterPlan{Child: scanT(), Pred: &Bin{Op: ">", L: &Slot{Idx: 0}, R: &Const{V: types.NewInt(3)}}}
	rows = collect(t, s, f)
	if len(rows) != 2 {
		t.Fatalf("filter = %d rows", len(rows))
	}
}

func TestProjectAndExprs(t *testing.T) {
	s := testStore(t)
	p := &ProjectPlan{
		Child: scanT(),
		Exprs: []Expr{
			&Bin{Op: "*", L: &Slot{Idx: 0}, R: &Const{V: types.NewInt(10)}},
			&ScalarFunc{Name: "UPPER", Args: []Expr{&Slot{Idx: 1}}},
			&CaseExpr{Whens: []CaseWhen{{
				Cond:   &Bin{Op: "=", L: &Slot{Idx: 1}, R: &Const{V: types.NewString("x")}},
				Result: &Const{V: types.NewInt(1)},
			}}, Else: &Const{V: types.NewInt(0)}},
		},
		Cols: []Column{{Name: "a10"}, {Name: "ub"}, {Name: "isx"}},
	}
	rows := collect(t, s, p)
	if rows[0].String() != "10|X|1" || rows[1].String() != "20|Y|0" {
		t.Fatalf("project rows = %v", rows)
	}
}

func TestSortLimitDistinct(t *testing.T) {
	s := testStore(t)
	sorted := &SortPlan{Child: scanT(), Keys: []Expr{&Slot{Idx: 0}}, Desc: []bool{true}}
	rows := collect(t, s, sorted)
	if rows[0][0].I != 5 || rows[4][0].I != 1 {
		t.Fatalf("sort desc = %v", rows)
	}
	lim := &LimitPlan{Child: &SortPlan{Child: scanT(), Keys: []Expr{&Slot{Idx: 0}}}, N: 2}
	rows = collect(t, s, lim)
	if len(rows) != 2 || rows[0][0].I != 1 {
		t.Fatalf("limit = %v", rows)
	}
	dist := &DistinctPlan{Child: &ProjectPlan{
		Child: scanT(),
		Exprs: []Expr{&Slot{Idx: 1}},
		Cols:  []Column{{Name: "b"}},
	}}
	rows = collect(t, s, dist)
	if len(rows) != 2 {
		t.Fatalf("distinct = %v", rows)
	}
}

func TestNLJoinAndHashJoin(t *testing.T) {
	s := testStore(t)
	pred := &Bin{Op: "=", L: &Slot{Idx: 1}, R: &Slot{Idx: 3}} // t1.b = t2.b
	nl := &NLJoinPlan{Left: scanT(), Right: scanT(), Pred: pred}
	nlRows := collect(t, s, nl)
	hj := &HashJoinPlan{
		Left: scanT(), Right: scanT(),
		LeftKeys: []Expr{&Slot{Idx: 1}}, RightKeys: []Expr{&Slot{Idx: 1}},
	}
	hjRows := collect(t, s, hj)
	// 3 x's and 2 y's → 9 + 4 = 13 pairs.
	if len(nlRows) != 13 || len(hjRows) != 13 {
		t.Fatalf("nl = %d, hash = %d, want 13", len(nlRows), len(hjRows))
	}
	a := rowsToStrings(nlRows)
	b := rowsToStrings(hjRows)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("join strategies disagree at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func rowsToStrings(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

func TestHashJoinNullKeys(t *testing.T) {
	s := testStore(t)
	td, _ := s.Table("T")
	td.Insert(types.Row{types.NewInt(99), types.Null})
	hj := &HashJoinPlan{
		Left: scanT(), Right: scanT(),
		LeftKeys: []Expr{&Slot{Idx: 1}}, RightKeys: []Expr{&Slot{Idx: 1}},
	}
	rows := collect(t, s, hj)
	for _, r := range rows {
		if r[1].IsNull() || r[3].IsNull() {
			t.Fatal("NULL keys must not join")
		}
	}
}

func TestAggPlan(t *testing.T) {
	s := testStore(t)
	agg := &AggPlan{
		Child:  scanT(),
		Groups: []Expr{&Slot{Idx: 1}},
		Aggs: []AggSpec{
			{Name: "COUNT", Star: true},
			{Name: "SUM", Arg: &Slot{Idx: 0}},
			{Name: "MIN", Arg: &Slot{Idx: 0}},
			{Name: "MAX", Arg: &Slot{Idx: 0}},
			{Name: "AVG", Arg: &Slot{Idx: 0}},
		},
		Cols: []Column{{Name: "b"}, {Name: "n"}, {Name: "s"}, {Name: "mn"}, {Name: "mx"}, {Name: "av"}},
	}
	rows := collect(t, s, agg)
	got := rowsToStrings(rows)
	want := []string{"x|3|9|1|5|3", "y|2|6|2|4|3"}
	sort.Strings(want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("agg rows = %v", got)
		}
	}
	// Global aggregate over empty input: one row.
	empty := &AggPlan{
		Child: &FilterPlan{Child: scanT(), Pred: &Const{V: types.NewBool(false)}},
		Aggs:  []AggSpec{{Name: "COUNT", Star: true}, {Name: "SUM", Arg: &Slot{Idx: 0}}},
		Cols:  []Column{{Name: "n"}, {Name: "s"}},
	}
	rows = collect(t, s, empty)
	if len(rows) != 1 || rows[0].String() != "0|NULL" {
		t.Fatalf("empty agg = %v", rows)
	}
}

func TestAggDistinct(t *testing.T) {
	s := testStore(t)
	agg := &AggPlan{
		Child: scanT(),
		Aggs:  []AggSpec{{Name: "COUNT", Distinct: true, Arg: &Slot{Idx: 1}}},
		Cols:  []Column{{Name: "n"}},
	}
	rows := collect(t, s, agg)
	if rows[0][0].I != 2 {
		t.Fatalf("count distinct = %v", rows[0])
	}
}

// MIN over strings folds by comparison alone: no running string "+" (which
// concatenates, making MIN/MAX/COUNT quadratic in the group size).
func TestAggMinStringAllocFree(t *testing.T) {
	s := NewAggState("MIN", false, false)
	a, b := types.NewString("pear"), types.NewString("apple")
	s.Add(a)
	if n := testing.AllocsPerRun(100, func() { s.Add(b) }); n != 0 {
		t.Fatalf("Add on a MIN state allocated %.1f times per call, want 0", n)
	}
	if got := s.Result(); got.S != "apple" {
		t.Fatalf("MIN = %v, want apple", got)
	}
}

func TestUnionPlan(t *testing.T) {
	s := testStore(t)
	proj := func() Plan {
		return &ProjectPlan{Child: scanT(), Exprs: []Expr{&Slot{Idx: 1}}, Cols: []Column{{Name: "b"}}}
	}
	all := &UnionPlan{Children: []Plan{proj(), proj()}}
	if rows := collect(t, s, all); len(rows) != 10 {
		t.Fatalf("union all = %d", len(rows))
	}
	dist := &UnionPlan{Children: []Plan{proj(), proj()}, Distinct: true}
	if rows := collect(t, s, dist); len(rows) != 2 {
		t.Fatalf("union distinct = %d", len(rows))
	}
}

func TestSpoolSharing(t *testing.T) {
	s := testStore(t)
	ctx := NewCtx(s)
	mk := func() Plan { return &SpoolPlan{ID: 7, Child: scanT()} }
	p1, p2 := mk(), mk()
	r1, err := Collect(ctx, p1)
	if err != nil {
		t.Fatal(err)
	}
	scans := ctx.Counters.RowsScanned
	r2, err := Collect(ctx, p2)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Counters.RowsScanned != scans {
		t.Error("second spool consumer re-scanned the table")
	}
	if ctx.Counters.SpoolMaterial != 1 {
		t.Errorf("spool materialized %d times", ctx.Counters.SpoolMaterial)
	}
	if len(r1) != len(r2) {
		t.Error("spool replay mismatch")
	}
}

func TestSubplanRerunVsHashed(t *testing.T) {
	s := testStore(t)
	// EXISTS (SELECT … FROM T t2 WHERE t2.a = outer.a): via rerun and via
	// hashed, both as a filter predicate over a scan.
	mkSub := func(hashed bool) *Subplan {
		sub := &Subplan{
			ID:   41,
			Mode: ModeExists,
			Plan: &FilterPlan{Child: scanT(), Pred: &Bin{Op: "<", L: &Slot{Idx: 0}, R: &Const{V: types.NewInt(3)}}},
		}
		if hashed {
			sub.ID = 42
			sub.Hashed = true
			sub.Probe = []Expr{&Slot{Idx: 0}}
			sub.Build = []Expr{&Slot{Idx: 0}}
		} else {
			sub.Probe = []Expr{&Slot{Idx: 0}}
			sub.Build = []Expr{&Slot{Idx: 0}}
		}
		return sub
	}
	for _, hashed := range []bool{false, true} {
		f := &FilterPlan{Child: scanT(), Pred: mkSub(hashed)}
		rows := collect(t, s, f)
		if len(rows) != 2 { // a ∈ {1,2}
			t.Fatalf("hashed=%v rows=%d", hashed, len(rows))
		}
	}
}

func TestSubplanScalar(t *testing.T) {
	s := testStore(t)
	// Scalar subquery returning MAX(a) — uncorrelated, hashed (cached).
	scalar := &Subplan{
		ID:   50,
		Mode: ModeScalar,
		Plan: &AggPlan{Child: scanT(), Aggs: []AggSpec{{Name: "MAX", Arg: &Slot{Idx: 0}}}, Cols: []Column{{Name: "m"}}},
	}
	f := &FilterPlan{Child: scanT(), Pred: &Bin{Op: "=", L: &Slot{Idx: 0}, R: scalar}}
	rows := collect(t, s, f)
	if len(rows) != 1 || rows[0][0].I != 5 {
		t.Fatalf("scalar subplan rows = %v", rows)
	}
}

func TestThreeValuedLogicInPreds(t *testing.T) {
	s := testStore(t)
	td, _ := s.Table("T")
	td.Insert(types.Row{types.Null, types.NewString("z")})
	// a > 3 is UNKNOWN for NULL → excluded.
	f := &FilterPlan{Child: scanT(), Pred: &Bin{Op: ">", L: &Slot{Idx: 0}, R: &Const{V: types.NewInt(0)}}}
	rows := collect(t, s, f)
	if len(rows) != 5 {
		t.Fatalf("NULL row leaked through predicate: %d", len(rows))
	}
	// IS NULL finds it.
	f2 := &FilterPlan{Child: scanT(), Pred: &Un{Op: "ISNULL", X: &Slot{Idx: 0}}}
	rows = collect(t, s, f2)
	if len(rows) != 1 {
		t.Fatalf("IS NULL = %d", len(rows))
	}
}

func TestIndexLookupPlan(t *testing.T) {
	s := testStore(t)
	if err := s.CreateIndex(&catalog.Index{Name: "ta", Table: "T", Columns: []string{"a"}, Kind: catalog.HashIndex}); err != nil {
		t.Fatal(err)
	}
	p := &IndexLookupPlan{
		Table: "T", Index: "ta",
		Keys: []Expr{&Const{V: types.NewInt(3)}},
		Cols: []Column{{Name: "a"}, {Name: "b"}},
	}
	rows := collect(t, s, p)
	if len(rows) != 1 || rows[0][0].I != 3 {
		t.Fatalf("index lookup = %v", rows)
	}
}

func TestExplainNonEmpty(t *testing.T) {
	plans := []Plan{
		scanT(),
		&FilterPlan{Child: scanT(), Pred: &Const{V: types.NewBool(true)}},
		&NLJoinPlan{Left: scanT(), Right: scanT()},
		&HashJoinPlan{Left: scanT(), Right: scanT(), LeftKeys: []Expr{&Slot{Idx: 0}}, RightKeys: []Expr{&Slot{Idx: 0}}},
		&AggPlan{Child: scanT(), Aggs: []AggSpec{{Name: "COUNT", Star: true}}},
		&SortPlan{Child: scanT(), Keys: []Expr{&Slot{Idx: 0}}},
		&UnionPlan{Children: []Plan{scanT(), scanT()}},
		&SpoolPlan{ID: 1, Child: scanT()},
		&LimitPlan{Child: scanT(), N: 1},
		&DistinctPlan{Child: scanT()},
	}
	for _, p := range plans {
		if p.Explain(0) == "" {
			t.Errorf("%T has empty explain", p)
		}
	}
}
