package types

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestTypeString(t *testing.T) {
	cases := map[Type]string{
		NullType:   "NULL",
		IntType:    "INTEGER",
		FloatType:  "FLOAT",
		StringType: "VARCHAR",
		BoolType:   "BOOLEAN",
	}
	for typ, want := range cases {
		if got := typ.String(); got != want {
			t.Errorf("Type(%d).String() = %q, want %q", typ, got, want)
		}
	}
}

func TestParseType(t *testing.T) {
	cases := map[string]Type{
		"INT": IntType, "integer": IntType, "BIGINT": IntType,
		"FLOAT": FloatType, "double": FloatType, "DECIMAL": FloatType,
		"VARCHAR": StringType, "text": StringType, "CHAR": StringType,
		"BOOLEAN": BoolType, "bool": BoolType,
	}
	for name, want := range cases {
		got, err := ParseType(name)
		if err != nil {
			t.Fatalf("ParseType(%q): %v", name, err)
		}
		if got != want {
			t.Errorf("ParseType(%q) = %v, want %v", name, got, want)
		}
	}
	if _, err := ParseType("BLOB"); err == nil {
		t.Error("ParseType(BLOB) should fail")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "NULL"},
		{NewInt(42), "42"},
		{NewInt(-7), "-7"},
		{NewFloat(2.5), "2.5"},
		{NewString("hi"), "hi"},
		{NewBool(true), "TRUE"},
		{NewBool(false), "FALSE"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestSQLLiteral(t *testing.T) {
	if got := NewString("o'brien").SQLLiteral(); got != "'o''brien'" {
		t.Errorf("SQLLiteral escaping = %q", got)
	}
	if got := NewInt(3).SQLLiteral(); got != "3" {
		t.Errorf("int literal = %q", got)
	}
	if got := Null.SQLLiteral(); got != "NULL" {
		t.Errorf("null literal = %q", got)
	}
}

func TestCompareBasics(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewFloat(1.5), NewInt(2), -1},
		{NewInt(2), NewFloat(2.0), 0},
		{NewString("a"), NewString("b"), -1},
		{Null, NewInt(0), -1},
		{NewInt(0), Null, 1},
		{Null, Null, 0},
		{NewBool(false), NewBool(true), -1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func randValue(r *rand.Rand) Value {
	switch r.Intn(5) {
	case 0:
		return Null
	case 1:
		return NewInt(int64(r.Intn(20) - 10))
	case 2:
		return NewFloat(float64(r.Intn(40)-20) / 2)
	case 3:
		letters := []string{"", "a", "ab", "abc", "z", "hello"}
		return NewString(letters[r.Intn(len(letters))])
	default:
		return NewBool(r.Intn(2) == 0)
	}
}

// Property: Compare is antisymmetric and transitive-ish (checked via
// consistency of sign under swap, and Equal ⇒ equal hashes).
func TestCompareAntisymmetric(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a, b := randValue(r), randValue(r)
		if Compare(a, b) != -Compare(b, a) {
			t.Fatalf("Compare(%v,%v) not antisymmetric", a, b)
		}
	}
}

func TestCompareTransitive(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		a, b, c := randValue(r), randValue(r), randValue(r)
		if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
			t.Fatalf("transitivity violated: %v <= %v <= %v but %v > %v", a, b, b, a, c)
		}
	}
}

func TestHashConsistentWithEqual(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		a, b := randValue(r), randValue(r)
		if Equal(a, b) && a.Hash() != b.Hash() {
			t.Fatalf("Equal(%v,%v) but hashes differ", a, b)
		}
	}
	// Cross-type numeric equality must hash identically.
	if NewInt(7).Hash() != NewFloat(7).Hash() {
		t.Error("int 7 and float 7.0 must hash the same")
	}
}

func TestTriBoolTables(t *testing.T) {
	// Kleene logic truth tables.
	and := [3][3]TriBool{
		{False, False, False},
		{False, True, Unknown},
		{False, Unknown, Unknown},
	}
	or := [3][3]TriBool{
		{False, True, Unknown},
		{True, True, True},
		{Unknown, True, Unknown},
	}
	vals := []TriBool{False, True, Unknown}
	for i, a := range vals {
		for j, b := range vals {
			if got := a.And(b); got != and[i][j] {
				t.Errorf("%v AND %v = %v, want %v", a, b, got, and[i][j])
			}
			if got := a.Or(b); got != or[i][j] {
				t.Errorf("%v OR %v = %v, want %v", a, b, got, or[i][j])
			}
		}
	}
	if True.Not() != False || False.Not() != True || Unknown.Not() != Unknown {
		t.Error("three-valued NOT wrong")
	}
}

func TestCompareTri(t *testing.T) {
	got, err := CompareTri("<", NewInt(1), NewInt(2))
	if err != nil || got != True {
		t.Fatalf("1 < 2 = %v, %v", got, err)
	}
	got, err = CompareTri("=", Null, NewInt(2))
	if err != nil || got != Unknown {
		t.Fatalf("NULL = 2 should be Unknown, got %v, %v", got, err)
	}
	if _, err := CompareTri("=", NewString("a"), NewInt(1)); err == nil {
		t.Error("string = int should be a type error")
	}
	got, err = CompareTri(">=", NewFloat(2.0), NewInt(2))
	if err != nil || got != True {
		t.Fatalf("2.0 >= 2 = %v, %v", got, err)
	}
}

func TestArith(t *testing.T) {
	cases := []struct {
		op   string
		a, b Value
		want Value
	}{
		{"+", NewInt(2), NewInt(3), NewInt(5)},
		{"-", NewInt(2), NewInt(3), NewInt(-1)},
		{"*", NewInt(4), NewInt(3), NewInt(12)},
		{"/", NewInt(7), NewInt(2), NewInt(3)},
		{"%", NewInt(7), NewInt(2), NewInt(1)},
		{"+", NewFloat(1.5), NewInt(1), NewFloat(2.5)},
		{"/", NewFloat(1), NewFloat(4), NewFloat(0.25)},
		{"+", Null, NewInt(1), Null},
		{"||", NewString("a"), NewString("b"), NewString("ab")},
		{"+", NewString("a"), NewString("b"), NewString("ab")},
	}
	for _, c := range cases {
		got, err := Arith(c.op, c.a, c.b)
		if err != nil {
			t.Fatalf("Arith(%q,%v,%v): %v", c.op, c.a, c.b, err)
		}
		if !Equal(got, c.want) || got.T != c.want.T {
			t.Errorf("Arith(%q,%v,%v) = %v, want %v", c.op, c.a, c.b, got, c.want)
		}
	}
	if _, err := Arith("/", NewInt(1), NewInt(0)); err == nil {
		t.Error("integer division by zero should error")
	}
	if _, err := Arith("/", NewFloat(1), NewFloat(0)); err == nil {
		t.Error("float division by zero should error")
	}
	if _, err := Arith("+", NewInt(1), NewString("x")); err == nil {
		t.Error("int + string should error")
	}
}

func TestNeg(t *testing.T) {
	v, err := Neg(NewInt(5))
	if err != nil || v.I != -5 {
		t.Fatalf("Neg(5) = %v, %v", v, err)
	}
	v, err = Neg(NewFloat(2.5))
	if err != nil || v.F != -2.5 {
		t.Fatalf("Neg(2.5) = %v, %v", v, err)
	}
	if v, err := Neg(Null); err != nil || !v.IsNull() {
		t.Fatalf("Neg(NULL) = %v, %v", v, err)
	}
	if _, err := Neg(NewString("x")); err == nil {
		t.Error("Neg(string) should error")
	}
}

func TestLike(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h_lo", false},
		{"hello", "", false},
		{"", "%", true},
		{"abc", "%%", true},
		{"abc", "a%c", true},
		{"abc", "a%b", false},
		{"aXbXc", "a%b%c", true},
		{"mississippi", "%iss%ppi", true},
		{"mississippi", "%iss%ippi%", true},
	}
	for _, c := range cases {
		got, err := Like(NewString(c.s), NewString(c.p))
		if err != nil {
			t.Fatalf("Like(%q,%q): %v", c.s, c.p, err)
		}
		if got != Tri(c.want) {
			t.Errorf("Like(%q,%q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
	if got, _ := Like(Null, NewString("%")); got != Unknown {
		t.Error("LIKE with NULL should be Unknown")
	}
}

func TestCoerce(t *testing.T) {
	v, err := Coerce(NewInt(3), FloatType)
	if err != nil || v.T != FloatType || v.F != 3 {
		t.Fatalf("Coerce int→float = %v, %v", v, err)
	}
	v, err = Coerce(NewFloat(4), IntType)
	if err != nil || v.T != IntType || v.I != 4 {
		t.Fatalf("Coerce 4.0→int = %v, %v", v, err)
	}
	if _, err := Coerce(NewFloat(4.5), IntType); err == nil {
		t.Error("Coerce 4.5→int should fail")
	}
	if _, err := Coerce(NewInt(1), StringType); err == nil {
		t.Error("Coerce int→string should fail")
	}
	if v, err := Coerce(Null, IntType); err != nil || !v.IsNull() {
		t.Error("Coerce NULL should pass through")
	}
}

func TestStringFuncs(t *testing.T) {
	if v, _ := Upper(NewString("abc")); v.S != "ABC" {
		t.Error("UPPER")
	}
	if v, _ := Lower(NewString("ABC")); v.S != "abc" {
		t.Error("LOWER")
	}
	if v, _ := Length(NewString("abcd")); v.I != 4 {
		t.Error("LENGTH")
	}
	if v, _ := Abs(NewInt(-4)); v.I != 4 {
		t.Error("ABS int")
	}
	if v, _ := Abs(NewFloat(-2.5)); v.F != 2.5 {
		t.Error("ABS float")
	}
	for _, f := range []func(Value) (Value, error){Upper, Lower, Length} {
		if v, err := f(Null); err != nil || !v.IsNull() {
			t.Error("string func on NULL should be NULL")
		}
		if _, err := f(NewInt(1)); err == nil {
			t.Error("string func on int should error")
		}
	}
}

func TestTruthOf(t *testing.T) {
	if TruthOf(Null) != Unknown {
		t.Error("NULL truth")
	}
	if TruthOf(NewBool(true)) != True || TruthOf(NewBool(false)) != False {
		t.Error("bool truth")
	}
	if TruthOf(NewInt(2)) != True || TruthOf(NewInt(0)) != False {
		t.Error("int truth")
	}
	if TruthOf(NewString("x")) != Unknown {
		t.Error("string truth should be Unknown")
	}
}

// quick-check: LIKE with a pattern equal to the string (no wildcards
// present) always matches, and concatenating "%" keeps it matching.
func TestLikeQuick(t *testing.T) {
	f := func(s string) bool {
		// strip wildcard characters to make the property hold
		clean := ""
		for _, r := range s {
			if r != '%' && r != '_' && r < 128 {
				clean += string(r)
			}
		}
		a, _ := Like(NewString(clean), NewString(clean))
		b, _ := Like(NewString(clean), NewString(clean+"%"))
		c, _ := Like(NewString(clean), NewString("%"+clean))
		return a == True && b == True && c == True
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRowBasics(t *testing.T) {
	r := Row{NewInt(1), NewString("a")}
	c := r.Clone()
	c[0] = NewInt(2)
	if r[0].I != 1 {
		t.Error("Clone must not alias")
	}
	j := r.Concat(Row{NewBool(true)})
	if len(j) != 3 || !j[2].Bool() {
		t.Error("Concat wrong")
	}
	if r.String() != "1|a" {
		t.Errorf("Row.String = %q", r.String())
	}
}

// TestHashPinned pins Value.Hash and Row.Hash to the FNV-1a values the
// hash/fnv implementation produced, so hash indexes, joins and grouping keep
// their bucket layout, and requires both to allocate nothing.
func TestHashPinned(t *testing.T) {
	cases := []struct {
		v    Value
		want uint64
	}{
		{Null, 0xaf63bd4c8601b7df},
		{NewInt(0), 0x529a2cdc8ff533ac},
		{NewInt(1), 0x7194f3e59ae47dcd},
		{NewInt(-1), 0x685cd83ad34b3424},
		{NewInt(math.MaxInt64), 0x685d583ad34c0da4},
		{NewInt(math.MinInt64), 0x5299acdc8ff45a2c},
		{NewBool(true), 0x7194f3e59ae47dcd},
		{NewBool(false), 0x529a2cdc8ff533ac},
		{NewFloat(1), 0x7194f3e59ae47dcd},
		{NewFloat(1.5), 0x5095a3dc8e3e5f39},
		{NewFloat(-0.25), 0x5043a3dc8df85511},
		{NewFloat(math.Inf(1)), 0x50b063dc8e54ba31},
		{NewString(""), 0xaf63bf4c8601bb45},
		{NewString("a"), 0x8393307b4f0fe2c},
		{NewString("ARC"), 0x5975fe8f0acca3db},
		{NewString("héllo"), 0x7d72ab275ed191c0},
	}
	for _, c := range cases {
		if got := c.v.Hash(); got != c.want {
			t.Errorf("%#v.Hash() = %#x, want %#x", c.v, got, c.want)
		}
	}
	r := Row{NewInt(7), NewString("x"), Null, NewFloat(2.5)}
	for _, c := range []struct {
		cols []int
		want uint64
	}{{[]int{0}, 0x29f7af931068af99}, {[]int{0, 1, 2, 3}, 0x5672afbc5479bfc5}, {nil, 0xcbf29ce484222325}} {
		if got := r.Hash(c.cols); got != c.want {
			t.Errorf("Row.Hash(%v) = %#x, want %#x", c.cols, got, c.want)
		}
	}
	cols := []int{0, 1, 2, 3}
	if got, want := r.HashAll(), r.Hash(cols); got != want {
		t.Errorf("Row.HashAll() = %#x, want Row.Hash(all columns) = %#x", got, want)
	}
	if n := testing.AllocsPerRun(100, func() { r.Hash(cols); r.HashAll(); r[1].Hash() }); n != 0 {
		t.Errorf("hashing allocates %v times per run, want 0", n)
	}
}

func TestRowHashEqualOn(t *testing.T) {
	a := Row{NewInt(1), NewString("x"), NewFloat(1)}
	b := Row{NewFloat(1), NewString("x"), NewInt(2)}
	cols := []int{0, 1}
	if !a.EqualOn(b, cols) {
		t.Error("rows should be equal on cols 0,1 (cross-type numeric)")
	}
	if a.Hash(cols) != b.Hash(cols) {
		t.Error("equal rows must hash equal")
	}
	if a.EqualOn(b, []int{2}) {
		t.Error("rows differ on col 2")
	}
}

func TestCompareRows(t *testing.T) {
	a := Row{NewInt(1), NewString("b")}
	b := Row{NewInt(1), NewString("a")}
	if CompareRows(a, b, []int{0, 1}, []bool{false, false}) <= 0 {
		t.Error("a should sort after b on (0 asc, 1 asc)")
	}
	if CompareRows(a, b, []int{1}, []bool{true}) >= 0 {
		t.Error("descending should flip")
	}
	if CompareRows(a, b, []int{0}, nil) != 0 {
		t.Error("equal on col 0")
	}
}

func TestRowKey(t *testing.T) {
	a := Row{NewString("a,b"), NewString("c")}
	b := Row{NewString("a"), NewString("b,c")}
	if a.Key([]int{0, 1}) == b.Key([]int{0, 1}) {
		t.Error("Key must be collision-free for quoted strings")
	}
}

func TestEqualRows(t *testing.T) {
	if !EqualRows(Row{NewInt(1)}, Row{NewFloat(1)}) {
		t.Error("numeric cross-type row equality")
	}
	if EqualRows(Row{NewInt(1)}, Row{NewInt(1), Null}) {
		t.Error("length mismatch")
	}
}

var _ = reflect.DeepEqual // keep reflect imported for quick
