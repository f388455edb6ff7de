package vexec

import (
	"testing"

	"xnf/internal/catalog"
	"xnf/internal/exec"
	"xnf/internal/storage"
	"xnf/internal/types"
)

// testStore builds a table T(id INT, v INT, s VARCHAR) with 2500 rows so
// scans cross multiple batch boundaries; every 10th v is NULL.
func testStore(t *testing.T) *storage.Store {
	t.Helper()
	cat := catalog.New()
	s := storage.NewStore(cat)
	err := s.CreateTable(&catalog.Table{
		Name: "T",
		Columns: []catalog.Column{
			{Name: "id", Type: types.IntType, NotNull: true},
			{Name: "v", Type: types.IntType},
			{Name: "s", Type: types.StringType},
		},
		PrimaryKey: []string{"id"},
	})
	if err != nil {
		t.Fatal(err)
	}
	td, _ := s.Table("T")
	for i := 0; i < 2500; i++ {
		v := types.NewInt(int64(i % 100))
		if i%10 == 9 {
			v = types.Null
		}
		tag := "even"
		if i%2 == 1 {
			tag = "odd"
		}
		if _, err := td.Insert(types.Row{types.NewInt(int64(i)), v, types.NewString(tag)}); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func tCols() []exec.Column {
	return []exec.Column{
		{Name: "id", Type: types.IntType},
		{Name: "v", Type: types.IntType},
		{Name: "s", Type: types.StringType},
	}
}

func mustCompile(t *testing.T, e exec.Expr) VExpr {
	t.Helper()
	v, ok := CompileExpr(e)
	if !ok {
		t.Fatalf("CompileExpr(%s) not vectorizable", e.String())
	}
	return v
}

func TestScanBatchFilterSelection(t *testing.T) {
	s := testStore(t)
	// v < 50 (NULL v never qualifies): ids with i%100 in [0,50) and i%10 != 9.
	pred := mustCompile(t, &exec.Bin{Op: "<", L: &exec.Slot{Idx: 1}, R: &exec.Const{V: types.NewInt(50)}})
	scan := &ScanBatch{Table: "T", Pred: pred, Cols: tCols()}
	rows, err := Collect(exec.NewCtx(s), scan, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < 2500; i++ {
		if i%10 != 9 && i%100 < 50 {
			want++
		}
	}
	if len(rows) != want {
		t.Fatalf("filtered scan returned %d rows, want %d", len(rows), want)
	}
	for _, r := range rows {
		if r[1].IsNull() || r[1].I >= 50 {
			t.Fatalf("row %v violates the filter", r)
		}
	}
}

func TestScanBatchEmptyAndFullSelection(t *testing.T) {
	s := testStore(t)
	none := mustCompile(t, &exec.Bin{Op: ">", L: &exec.Slot{Idx: 0}, R: &exec.Const{V: types.NewInt(1 << 30)}})
	rows, err := Collect(exec.NewCtx(s), &ScanBatch{Table: "T", Pred: none, Cols: tCols()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("always-false filter returned %d rows", len(rows))
	}
	all := mustCompile(t, &exec.Bin{Op: ">=", L: &exec.Slot{Idx: 0}, R: &exec.Const{V: types.NewInt(0)}})
	rows, err = Collect(exec.NewCtx(s), &ScanBatch{Table: "T", Pred: all, Cols: tCols()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2500 {
		t.Fatalf("always-true filter returned %d rows, want 2500", len(rows))
	}
}

func TestProjectBatchCompactsSelection(t *testing.T) {
	s := testStore(t)
	pred := mustCompile(t, &exec.Bin{Op: "=", L: &exec.Slot{Idx: 2}, R: &exec.Const{V: types.NewString("odd")}})
	proj := &ProjectBatch{
		Child: &ScanBatch{Table: "T", Pred: pred, Cols: tCols()},
		Exprs: []VExpr{
			mustCompile(t, &exec.Bin{Op: "*", L: &exec.Slot{Idx: 0}, R: &exec.Const{V: types.NewInt(2)}}),
			mustCompile(t, &exec.Slot{Idx: 1}),
		},
		Cols: []exec.Column{{Name: "x", Type: types.IntType}, {Name: "v", Type: types.IntType}},
	}
	rows, err := Collect(exec.NewCtx(s), proj, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1250 {
		t.Fatalf("project returned %d rows, want 1250", len(rows))
	}
	if rows[0][0].I != 2 { // first odd id is 1 → 1*2
		t.Fatalf("first projected value = %v, want 2", rows[0][0])
	}
}

func TestLimitBatchAcrossBoundaries(t *testing.T) {
	s := testStore(t)
	for _, n := range []int{0, 1, BatchSize - 1, BatchSize, BatchSize + 5, 2500, 4000} {
		lim := &LimitBatch{Child: &ScanBatch{Table: "T", Cols: tCols()}, N: n}
		rows, err := Collect(exec.NewCtx(s), lim, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := n
		if want > 2500 {
			want = 2500
		}
		if len(rows) != want {
			t.Fatalf("limit %d returned %d rows, want %d", n, len(rows), want)
		}
	}
}

func TestHashAggBatchMatchesRowAgg(t *testing.T) {
	s := testStore(t)
	mkRow := func() exec.Node {
		return &exec.AggPlan{
			Child:  &exec.ScanPlan{Table: "T", Cols: tCols()},
			Groups: []exec.Expr{&exec.Slot{Idx: 2}},
			Aggs: []exec.AggSpec{
				{Name: "COUNT", Star: true},
				{Name: "COUNT", Arg: &exec.Slot{Idx: 1}},
				{Name: "SUM", Arg: &exec.Slot{Idx: 1}},
				{Name: "MIN", Arg: &exec.Slot{Idx: 1}},
				{Name: "MAX", Arg: &exec.Slot{Idx: 1}},
				{Name: "AVG", Arg: &exec.Slot{Idx: 1}},
				{Name: "COUNT", Distinct: true, Arg: &exec.Slot{Idx: 1}},
			},
			Cols: make([]exec.Column, 8),
		}
	}
	rowRes, err := exec.Collect(exec.NewCtx(s), mkRow())
	if err != nil {
		t.Fatal(err)
	}
	agg := &HashAggBatch{
		Child:  &ScanBatch{Table: "T", Cols: tCols()},
		Groups: []VExpr{mustCompile(t, &exec.Slot{Idx: 2})},
		Aggs: []AggSpec{
			{Name: "COUNT", Star: true},
			{Name: "COUNT", Arg: mustCompile(t, &exec.Slot{Idx: 1})},
			{Name: "SUM", Arg: mustCompile(t, &exec.Slot{Idx: 1})},
			{Name: "MIN", Arg: mustCompile(t, &exec.Slot{Idx: 1})},
			{Name: "MAX", Arg: mustCompile(t, &exec.Slot{Idx: 1})},
			{Name: "AVG", Arg: mustCompile(t, &exec.Slot{Idx: 1})},
			{Name: "COUNT", Distinct: true, Arg: mustCompile(t, &exec.Slot{Idx: 1})},
		},
		Cols: make([]exec.Column, 8),
	}
	batchRes, err := Collect(exec.NewCtx(s), agg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rowRes) != len(batchRes) {
		t.Fatalf("row agg %d groups, batch agg %d", len(rowRes), len(batchRes))
	}
	for i := range rowRes {
		if !types.EqualRows(rowRes[i], batchRes[i]) {
			t.Fatalf("group %d: row %v, batch %v", i, rowRes[i], batchRes[i])
		}
	}
}

func TestGlobalAggEmptyInput(t *testing.T) {
	s := testStore(t)
	none := mustCompile(t, &exec.Bin{Op: "<", L: &exec.Slot{Idx: 0}, R: &exec.Const{V: types.NewInt(0)}})
	agg := &HashAggBatch{
		Child: &ScanBatch{Table: "T", Pred: none, Cols: tCols()},
		Aggs: []AggSpec{
			{Name: "COUNT", Star: true},
			{Name: "SUM", Arg: mustCompile(t, &exec.Slot{Idx: 1})},
		},
		Cols: make([]exec.Column, 2),
	}
	rows, err := Collect(exec.NewCtx(s), agg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("global aggregate over empty input returned %d rows, want 1", len(rows))
	}
	if rows[0][0].I != 0 || !rows[0][1].IsNull() {
		t.Fatalf("empty-input aggregate = %v, want 0|NULL", rows[0])
	}
}

func TestRowSourceBridge(t *testing.T) {
	s := testStore(t)
	src := &RowSource{Plan: &exec.ScanPlan{Table: "T", Cols: tCols()}}
	agg := &HashAggBatch{
		Child: src,
		Aggs:  []AggSpec{{Name: "COUNT", Star: true}},
		Cols:  make([]exec.Column, 1),
	}
	rows, err := Collect(exec.NewCtx(s), agg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].I != 2500 {
		t.Fatalf("RowSource count = %v, want 2500", rows)
	}
}

func TestBatchToRowBridgeAndClone(t *testing.T) {
	s := testStore(t)
	pred := mustCompile(t, &exec.Bin{Op: ">=", L: &exec.Slot{Idx: 0}, R: &exec.Const{V: types.NewInt(2400)}})
	bridge := &BatchToRow{Child: &FilterBatch{
		Child: &ScanBatch{Table: "T", Cols: tCols()},
		Pred:  pred,
	}}
	// Two handles over the one compiled bridge, open at the same time and
	// pulled in turn: each execution keeps its own iterators, so both must
	// produce the full result.
	orig := exec.NewPlan(bridge)
	clone := exec.ClonePlan(orig)
	if clone == orig || clone.Root() != orig.Root() {
		t.Fatal("ClonePlan must return a new handle over the same root")
	}
	ctx := exec.NewCtx(s)
	for _, p := range []exec.Plan{orig, clone} {
		if err := p.Open(ctx, nil); err != nil {
			t.Fatal(err)
		}
	}
	counts := map[exec.Plan]int{}
	for done := 0; done < 2; {
		done = 0
		for _, p := range []exec.Plan{orig, clone} {
			row, err := p.Next(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if row == nil {
				done++
				continue
			}
			counts[p]++
		}
	}
	for _, p := range []exec.Plan{orig, clone} {
		if err := p.Close(ctx); err != nil {
			t.Fatal(err)
		}
		if counts[p] != 100 {
			t.Fatalf("interleaved execution returned %d rows, want 100", counts[p])
		}
	}
}

// TestValHashAgreesWithEqual guards the allocation-free valHash against
// drifting from the value equality the agg hash table probes with: values
// that compare Equal must hash identically (notably integral floats vs
// ints, the cross-type group-key case).
func TestValHashAgreesWithEqual(t *testing.T) {
	vals := []types.Value{
		types.Null,
		types.NewInt(0), types.NewInt(5), types.NewInt(-7),
		types.NewFloat(0), types.NewFloat(5), types.NewFloat(5.5), types.NewFloat(-7),
		types.NewString(""), types.NewString("abc"),
		types.NewBool(true), types.NewBool(false),
	}
	for _, a := range vals {
		for _, b := range vals {
			if a.IsNull() != b.IsNull() {
				continue // Equal treats NULL==NULL; cross-null never groups
			}
			if types.Equal(a, b) && valHash(a) != valHash(b) {
				t.Errorf("Equal(%v, %v) but valHash differs: %x vs %x", a, b, valHash(a), valHash(b))
			}
		}
	}
}

func TestIndexLookupBatch(t *testing.T) {
	s := testStore(t)
	look := &IndexLookupBatch{
		Table: "T", Index: "T_PK",
		Keys: []exec.Expr{&exec.Const{V: types.NewInt(42)}},
		Cols: tCols(),
	}
	rows, err := Collect(exec.NewCtx(s), look, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].I != 42 {
		t.Fatalf("index lookup = %v, want id 42", rows)
	}
}

func TestThreeValuedLogicVectors(t *testing.T) {
	s := testStore(t)
	// NOT (v >= 0): NULL v yields UNKNOWN, NOT UNKNOWN is UNKNOWN → dropped.
	pred := mustCompile(t, &exec.Un{Op: "NOT", X: &exec.Bin{Op: ">=", L: &exec.Slot{Idx: 1}, R: &exec.Const{V: types.NewInt(0)}}})
	rows, err := Collect(exec.NewCtx(s), &ScanBatch{Table: "T", Pred: pred, Cols: tCols()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("NOT over NULL leaked %d rows", len(rows))
	}
	// v IS NULL selects exactly the every-10th rows.
	isNull := mustCompile(t, &exec.Un{Op: "ISNULL", X: &exec.Slot{Idx: 1}})
	rows, err = Collect(exec.NewCtx(s), &ScanBatch{Table: "T", Pred: isNull, Cols: tCols()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 250 {
		t.Fatalf("IS NULL returned %d rows, want 250", len(rows))
	}
	// OR short-circuit: the right side (1/0 style guard) must not run where
	// the left already decides. s = 'even' OR v/0 > 1 errors on the row
	// path per odd row; here division by zero must surface as an error only
	// if an odd row is reached — so the guarded AND form must succeed.
	guarded := mustCompile(t, &exec.Bin{
		Op: "AND",
		L:  &exec.Bin{Op: ">", L: &exec.Slot{Idx: 1}, R: &exec.Const{V: types.NewInt(0)}},
		R:  &exec.Bin{Op: ">", L: &exec.Bin{Op: "/", L: &exec.Const{V: types.NewInt(100)}, R: &exec.Slot{Idx: 1}}, R: &exec.Const{V: types.NewInt(1)}},
	})
	if _, err := Collect(exec.NewCtx(s), &ScanBatch{Table: "T", Pred: guarded, Cols: tCols()}, nil); err != nil {
		t.Fatalf("guarded division evaluated unguarded rows: %v", err)
	}
}
