package engine

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"xnf/internal/catalog"
	"xnf/internal/colstore"
	"xnf/internal/opt"
	"xnf/internal/types"
	"xnf/internal/vexec"
)

// This file is the engine's one equivalence runner. Every corpus below runs
// over storage {row, column before ANALYZE, column after ANALYZE} × options
// {NaiveOptions, Vectorize=false, DefaultOptions, DefaultOptions with
// ParallelScan=false}, and every result is compared with the oracle: the row
// executor (Vectorize=false) over row storage. The standalone tests after
// the runner cover what a result comparison cannot see — error parity,
// laziness, DML interleaving, counters, lowering, and -race hammering.

// equivCorpus is the golden row-vs-batch query corpus: every query runs
// through both executors and the results must agree exactly. It leans on
// the shapes the lowering pass touches — scans, filters (including NULL
// three-valued logic and selection-vector edge cases), projections,
// aggregates, limits, joins, sorts, unions — plus shapes that must fall
// back (correlated subqueries, spools) so bridge boundaries are exercised
// too. joinEquivCorpus extends this with the join/sort/distinct shapes.
var equivCorpus = []string{
	// Plain scans and projections.
	"SELECT * FROM EMP",
	"SELECT ename, sal FROM EMP",
	"SELECT eno * 10 + 1, sal / 2 FROM EMP",
	"SELECT eno, -eno, eno - sal FROM EMP",
	// Filters: comparisons, boolean connectives, NULL semantics.
	"SELECT ename FROM EMP WHERE sal > 250",
	"SELECT ename FROM EMP WHERE sal >= 300 AND eno < 5",
	"SELECT ename FROM EMP WHERE edno = 1 OR edno = 3",
	"SELECT ename FROM EMP WHERE NOT (sal > 250)",
	"SELECT ename FROM EMP WHERE edno IS NULL",
	"SELECT ename FROM EMP WHERE edno IS NOT NULL AND sal < 450",
	"SELECT ename FROM EMP WHERE ename LIKE 'e%'",
	"SELECT ename FROM EMP WHERE ename LIKE '%3'",
	"SELECT ename FROM EMP WHERE sal BETWEEN 200 AND 400",
	// Selection-vector edge cases: nothing passes, everything passes.
	"SELECT ename FROM EMP WHERE sal > 10000",
	"SELECT ename FROM EMP WHERE sal > 0",
	"SELECT ename FROM EMP WHERE eno <> eno",
	// NULL propagation through expressions and predicates.
	"SELECT edno + 1 FROM EMP",
	"SELECT ename FROM EMP WHERE edno + 1 > 1",
	"SELECT ename FROM EMP WHERE edno > 0 OR sal > 450",
	// Index lookups (PK) with residual filters.
	"SELECT ename FROM EMP WHERE eno = 3",
	"SELECT ename FROM EMP WHERE eno = 3 AND sal > 1000",
	"SELECT ename FROM EMP WHERE eno = 99",
	// Aggregates: global, grouped, empty input, DISTINCT, NULL skipping.
	"SELECT COUNT(*) FROM EMP",
	"SELECT COUNT(edno) FROM EMP",
	"SELECT COUNT(*), SUM(sal), MIN(sal), MAX(sal), AVG(sal) FROM EMP",
	"SELECT COUNT(*) FROM EMP WHERE sal > 10000",
	"SELECT SUM(sal) FROM EMP WHERE sal > 10000",
	"SELECT edno, COUNT(*), SUM(sal) FROM EMP GROUP BY edno",
	"SELECT edno, AVG(sal) FROM EMP WHERE eno < 5 GROUP BY edno",
	"SELECT COUNT(DISTINCT edno) FROM EMP",
	"SELECT edno, COUNT(DISTINCT ename) FROM EMP GROUP BY edno",
	"SELECT edno, COUNT(*) FROM EMP GROUP BY edno HAVING COUNT(*) > 1",
	// LIMIT with and without ORDER BY (both paths preserve scan order).
	"SELECT ename FROM EMP LIMIT 2",
	"SELECT ename FROM EMP WHERE sal > 150 LIMIT 2",
	"SELECT ename FROM EMP ORDER BY sal DESC LIMIT 3",
	"SELECT ename FROM EMP LIMIT 0",
	// DISTINCT, ORDER BY (batch operators since the join/sort lowering).
	"SELECT DISTINCT edno FROM EMP",
	"SELECT ename FROM EMP ORDER BY ename DESC",
	// Joins and derived tables.
	"SELECT e.ename, d.dname FROM EMP e, DEPT d WHERE e.edno = d.dno",
	"SELECT e.ename FROM EMP e, DEPT d WHERE e.edno = d.dno AND d.loc = 'ARC'",
	"SELECT d.dname, COUNT(*) FROM EMP e, DEPT d WHERE e.edno = d.dno GROUP BY d.dname",
	"SELECT a.dno FROM (SELECT dno FROM DEPT WHERE loc = 'ARC') a, (SELECT dno FROM DEPT WHERE loc = 'ARC') b WHERE a.dno = b.dno",
	// Subqueries (row path with batched inner fragments).
	"SELECT ename FROM EMP WHERE EXISTS (SELECT 1 FROM DEPT d WHERE d.dno = EMP.edno AND d.loc = 'ARC')",
	"SELECT ename FROM EMP WHERE edno IN (SELECT dno FROM DEPT WHERE loc = 'ARC')",
	"SELECT ename FROM EMP WHERE edno NOT IN (SELECT dno FROM DEPT WHERE loc = 'HQ')",
	"SELECT ename FROM EMP WHERE sal > (SELECT AVG(sal) FROM EMP)",
	// Unions.
	"SELECT ename FROM EMP WHERE sal < 200 UNION SELECT ename FROM EMP WHERE sal > 400",
	"SELECT edno FROM EMP UNION ALL SELECT dno FROM DEPT",
	// Scalar functions and CASE lower to per-element batch kernels
	// (vFunc/vCase); these queries exercise them against the row path.
	"SELECT UPPER(ename), LENGTH(ename) FROM EMP WHERE sal > 100",
	"SELECT LOWER(ename), ABS(-sal) FROM EMP",
	"SELECT CASE WHEN sal > 300 THEN 'hi' ELSE 'lo' END FROM EMP",
	"SELECT CASE WHEN edno IS NULL THEN 0 WHEN edno > 1 THEN edno ELSE -1 END FROM EMP",
	// CASE arms must stay lazy per mask: the division runs only where its
	// guard matched, exactly like the row executor.
	"SELECT CASE WHEN sal - sal <> 0 THEN sal / (sal - sal) ELSE -1 END FROM EMP",
}

// joinEquivCorpus is the row-vs-batch corpus for the operators that lower
// natively since the batch join/sort/distinct work: hash joins (NULL keys,
// duplicate keys, empty build sides, mixed int/float and string keys,
// residual predicates), ORDER BY asc/desc over NULLs with LIMIT, DISTINCT,
// UNION / UNION ALL, and joins feeding grouped aggregates.
var joinEquivCorpus = []string{
	// Basic equi-joins; EMP e5 has a NULL edno that must never join.
	"SELECT e.ename, d.dname FROM EMP e, DEPT d WHERE e.edno = d.dno",
	"SELECT e.ename FROM EMP e, DEPT d WHERE e.edno = d.dno AND d.loc = 'ARC'",
	"SELECT e.eno, p.pno FROM EMP e, PROJ p WHERE e.edno = p.pdno",
	// Duplicate keys on both sides (dept 1 employs two, locs repeat).
	"SELECT d1.dname, d2.dname FROM DEPT d1, DEPT d2 WHERE d1.loc = d2.loc",
	"SELECT e1.ename, e2.ename FROM EMP e1, EMP e2 WHERE e1.edno = e2.edno",
	// Empty build side: the pushed-down filter kills every build row.
	"SELECT e.ename FROM EMP e, DEPT d WHERE e.edno = d.dno AND d.loc = 'NOWHERE'",
	// Float keys, and int-vs-float key comparisons (2 joins 2.0).
	"SELECT e.ename, p.pname FROM EMP e, PROJ p WHERE e.sal = p.budget * 10",
	"SELECT e.ename, p.pname FROM EMP e, PROJ p WHERE e.eno = p.budget / 10",
	// Residual predicates evaluated over the joined row.
	"SELECT e.ename, d.dname FROM EMP e, DEPT d WHERE e.edno = d.dno AND e.sal > d.dno * 100",
	"SELECT e.ename, p.pname FROM EMP e, PROJ p WHERE e.edno = p.pdno AND e.sal + p.budget > 120",
	// Multi-way joins (string and int keys through link tables).
	"SELECT e.ename, s.sname FROM EMP e, EMPSKILLS es, SKILLS s WHERE e.eno = es.eseno AND es.essno = s.sno",
	"SELECT s.sname, p.pname FROM SKILLS s, PROJSKILLS ps, PROJ p WHERE s.sno = ps.pssno AND ps.pspno = p.pno",
	// Sorts: asc and desc over a NULL-bearing key, compound keys, LIMIT.
	"SELECT ename, edno FROM EMP ORDER BY edno",
	"SELECT ename, edno FROM EMP ORDER BY edno DESC",
	"SELECT ename FROM EMP ORDER BY edno DESC, sal",
	"SELECT ename FROM EMP ORDER BY sal DESC LIMIT 2",
	"SELECT ename, sal FROM EMP WHERE sal > 150 ORDER BY sal",
	"SELECT e.ename, d.dname FROM EMP e, DEPT d WHERE e.edno = d.dno ORDER BY e.sal DESC",
	"SELECT e.ename FROM EMP e, DEPT d WHERE e.edno = d.dno ORDER BY d.dname, e.ename LIMIT 3",
	// DISTINCT over scans and join outputs.
	"SELECT DISTINCT edno FROM EMP",
	"SELECT DISTINCT d.loc FROM DEPT d, EMP e WHERE e.edno = d.dno",
	"SELECT DISTINCT sal > 250 FROM EMP",
	// UNION dedups across children, UNION ALL concatenates.
	"SELECT ename FROM EMP WHERE sal < 200 UNION SELECT ename FROM EMP WHERE sal > 400",
	"SELECT edno FROM EMP UNION SELECT dno FROM DEPT",
	"SELECT edno FROM EMP UNION ALL SELECT dno FROM DEPT",
	"SELECT dno FROM DEPT UNION ALL SELECT dno FROM DEPT",
	// Joins feeding grouped aggregates end-to-end in batch form.
	"SELECT d.dname, COUNT(*), SUM(e.sal) FROM EMP e, DEPT d WHERE e.edno = d.dno GROUP BY d.dname",
	"SELECT d.loc, COUNT(DISTINCT e.eno) FROM EMP e, DEPT d WHERE e.edno = d.dno GROUP BY d.loc",
	"SELECT p.pname, MIN(e.sal), MAX(e.sal) FROM EMP e, PROJ p WHERE e.edno = p.pdno GROUP BY p.pname HAVING COUNT(*) >= 1",
}

// typedCorpus extends the golden corpus with shapes the typed kernels
// specialize: NULL-heavy columns, int64 overflow (wrapping must match the
// row executor bit for bit), mixed int/float comparisons and arithmetic,
// string and boolean columns, and null-bitmap-driven IS [NOT] NULL.
var typedCorpus = []string{
	"SELECT COUNT(*), SUM(v), MIN(v), MAX(v), AVG(v) FROM TT",
	"SELECT g, COUNT(*), SUM(f), MIN(f), MAX(f) FROM TT GROUP BY g",
	"SELECT COUNT(*) FROM TT WHERE v > 500",
	"SELECT COUNT(*) FROM TT WHERE f > 25.5",
	"SELECT COUNT(*) FROM TT WHERE v > f",              // int column vs float column
	"SELECT COUNT(*) FROM TT WHERE v >= 10 AND f < 80", // two prunable conjuncts
	"SELECT COUNT(*) FROM TT WHERE v > 3.5",            // int column vs float literal
	"SELECT COUNT(*) FROM TT WHERE f = 10",             // float column vs int literal
	"SELECT ok, COUNT(g) FROM TT GROUP BY ok",          // NULL-skipping COUNT(col)
	"SELECT COUNT(*) FROM TT WHERE g IS NULL",
	"SELECT COUNT(*) FROM TT WHERE g IS NOT NULL AND v < 300",
	"SELECT SUM(v + big), SUM(big * 3) FROM TT",        // int64 overflow wraps identically
	"SELECT SUM(v * 2 + 1), SUM(f / 2) FROM TT",        // typed arithmetic chains
	"SELECT MIN(s), MAX(s), COUNT(DISTINCT s) FROM TT", // string column aggregates
	"SELECT COUNT(*) FROM TT WHERE s >= 'tag3'",
	"SELECT ok, COUNT(*) FROM TT GROUP BY ok", // boolean group keys
	"SELECT COUNT(*) FROM TT WHERE ok = TRUE",
	"SELECT -v, -f FROM TT WHERE v < 5",
	"SELECT v - big FROM TT WHERE v > 995",
	"SELECT g + 1 FROM TT WHERE v < 10",       // NULL propagation through typed arith
	"SELECT COUNT(*) FROM TT WHERE v % 7 = 0", // typed modulo
	"SELECT COUNT(*) FROM TT WHERE 100 > v",   // scalar on the left
}

// encCorpus stresses the shapes segment encodings specialize: equality and
// ranges on a low-cardinality dictionary column (probe keys present and
// absent from the dictionary), a high-cardinality column that must stay
// raw, narrow / negative / wide int ranges (bit-packing and its refusal),
// NULL-bearing dict columns, grouping and joining on encoded keys.
var encCorpus = []string{
	// Dictionary strings: equality, both sides of a range, absent keys.
	"SELECT COUNT(*) FROM ET WHERE lc = 'val3'",
	"SELECT COUNT(*) FROM ET WHERE lc <> 'val3'",
	"SELECT COUNT(*) FROM ET WHERE lc >= 'val2' AND lc < 'val7'",
	"SELECT COUNT(*) FROM ET WHERE lc = 'absent'",
	"SELECT COUNT(*) FROM ET WHERE lc > 'val'",  // between dictionary entries
	"SELECT COUNT(*) FROM ET WHERE lc < 'val0'", // below every entry
	"SELECT COUNT(*) FROM ET WHERE lc >= 'zzz'", // above every entry
	"SELECT lc, COUNT(*) FROM ET GROUP BY lc",
	"SELECT COUNT(DISTINCT lc), MIN(lc), MAX(lc) FROM ET",
	// High cardinality: stays raw, results must agree regardless.
	"SELECT COUNT(*) FROM ET WHERE hc = 'u123'",
	"SELECT COUNT(DISTINCT hc) FROM ET",
	// Packed ints: narrow, negative, and a range too wide to pack.
	"SELECT COUNT(*) FROM ET WHERE nar = 3",
	"SELECT SUM(nar), MIN(nar), MAX(nar), AVG(nar) FROM ET",
	"SELECT COUNT(*) FROM ET WHERE nar > 2.5", // packed int vs float literal
	"SELECT COUNT(*) FROM ET WHERE neg < -10",
	"SELECT SUM(neg) FROM ET WHERE neg >= -50 AND neg < 0",
	"SELECT MIN(wide), MAX(wide), SUM(wide) FROM ET",
	"SELECT COUNT(*) FROM ET WHERE wide > 0",
	"SELECT nar, COUNT(*), SUM(neg) FROM ET GROUP BY nar",
	// NULLs ride the dictionary's null bitmap, never a sentinel value.
	"SELECT COUNT(*) FROM ET WHERE lcn IS NULL",
	"SELECT COUNT(*) FROM ET WHERE lcn IS NOT NULL AND lcn <= 'n2'",
	"SELECT COUNT(*) FROM ET WHERE lcn = 'n1'",
	"SELECT lcn, COUNT(*) FROM ET GROUP BY lcn",
	// Hash join keyed on encoded columns (dict string, packed int).
	"SELECT a.lc, COUNT(*) FROM ET a, ET b WHERE a.lc = b.lc AND a.id = b.id GROUP BY a.lc",
	"SELECT COUNT(*) FROM ET a, ET b WHERE a.nar = b.nar AND a.id < 100 AND b.id < 100",
	// Mixed predicates across encodings.
	"SELECT lc, SUM(nar) FROM ET WHERE neg < -5 AND lc >= 'val1' GROUP BY lc",
	"SELECT COUNT(*) FROM ET WHERE lc = 'val5' AND nar = 5",
}

// bigCorpus pushes both executors past several batch boundaries (multiple
// 1024-row chunks, partially selected tail batch): a grouped aggregate with
// NULL group keys, selective filters and limit suffixes.
var bigCorpus = []string{
	"SELECT g, COUNT(*), SUM(v), MIN(v), MAX(v) FROM BIG GROUP BY g",
	"SELECT COUNT(*) FROM BIG WHERE v > 50",
	"SELECT id FROM BIG WHERE v = 99 AND g = 3",
	"SELECT id FROM BIG WHERE v > 97 LIMIT 2000",
	"SELECT id FROM BIG LIMIT 1500",
}

// stringAggCorpus folds MIN/MAX/COUNT over a 16k-row VARCHAR column, in one
// group and in a handful: string aggregates must stay linear in the group
// size (no running string "+", which would concatenate).
var stringAggCorpus = []string{
	"SELECT MIN(s), MAX(s), COUNT(s) FROM ST",
	"SELECT g, MIN(s), MAX(s), COUNT(s) FROM ST GROUP BY g",
}

// bigJoinCorpus joins past several batch boundaries on both sides, with
// skew (one hot key), NULL keys scattered through the build input and a
// build side large enough for the morsel-parallel hash build.
var bigJoinCorpus = []string{
	"SELECT f.id, d.name FROM FACT f, DIM d WHERE f.k = d.k AND d.grp = 2",
	"SELECT d.grp, COUNT(*), SUM(f.v) FROM FACT f, DIM d WHERE f.k = d.k GROUP BY d.grp",
	"SELECT COUNT(*) FROM FACT f, DIM d WHERE f.k = d.k AND f.v > d.grp * 10",
}

// --- fixtures ---

// parallelRows is a table size just above the sequential threshold of the
// parallel operators (four and a half segments): the smallest load at which
// DefaultOptions runs the morsel-parallel aggregate scan, join build and
// sort.
const parallelRows = vexec.DefaultParallelMinRows + colstore.SegRows/2

// setPoolWorkers bounds the shared worker pool — and with it the worker
// count of every parallel operator — for the duration of the test.
func setPoolWorkers(t testing.TB, n int) {
	t.Helper()
	vexec.SetWorkers(n)
	t.Cleanup(func() { vexec.SetWorkers(0) })
}

// loadRows appends n generated rows straight into a table's heap.
func loadRows(t testing.TB, db *Database, table string, n int, row func(i int) types.Row) {
	t.Helper()
	td, err := db.Store().Table(table)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := td.Insert(row(i)); err != nil {
			t.Fatal(err)
		}
	}
}

// openWith opens a database and runs the DDL script.
func openWith(t testing.TB, ddl string) *Database {
	t.Helper()
	db := Open()
	if err := db.ExecScript(ddl); err != nil {
		t.Fatal(err)
	}
	return db
}

// columnar switches the tables to column storage.
func columnar(t testing.TB, db *Database, tables ...string) {
	t.Helper()
	for _, tbl := range tables {
		if _, err := db.Exec("ALTER TABLE " + tbl + " SET STORAGE COLUMN"); err != nil {
			t.Fatalf("ALTER %s: %v", tbl, err)
		}
		td, err := db.Store().Table(tbl)
		if err != nil {
			t.Fatal(err)
		}
		if td.StorageKind() != catalog.ColumnStore {
			t.Fatalf("%s not column-stored after ALTER", tbl)
		}
	}
}

// orgTables is every base table of the Fig. 1 schema.
var orgTables = []string{"DEPT", "EMP", "PROJ", "SKILLS", "EMPSKILLS", "PROJSKILLS"}

// toColumnStorage flips every base table of the org schema to columnar.
func toColumnStorage(t testing.TB, db *Database) { columnar(t, db, orgTables...) }

// typedRows builds a row-stored table covering every kernel type: int key,
// nullable int group, float measure, string tag, boolean flag, and an int
// column near the int64 limits for overflow parity.
func typedRows(t testing.TB, n int) *Database {
	t.Helper()
	db := openWith(t, "CREATE TABLE TT (v INT NOT NULL, g INT, f FLOAT, s VARCHAR, ok BOOLEAN, big INT, PRIMARY KEY (v))")
	loadRows(t, db, "TT", n, func(i int) types.Row {
		g := types.NewInt(int64(i % 11))
		if i%7 == 0 {
			g = types.Null
		}
		return types.Row{
			types.NewInt(int64(i)),
			g,
			types.NewFloat(float64(i%97) / 1.7),
			types.NewString(fmt.Sprintf("tag%d", i%13)),
			types.NewBool(i%3 == 0),
			types.NewInt((int64(1) << 62) + int64(i)), // SUM wraps
		}
	})
	return db
}

// typedDB is typedRows on column storage (raw segments: no ANALYZE yet).
func typedDB(t testing.TB, n int) *Database {
	t.Helper()
	db := typedRows(t, n)
	columnar(t, db, "TT")
	return db
}

// encRows builds a row-stored table covering every encoding decision: a
// low-cardinality string (dictionary), a high-cardinality string (raw), a
// narrow int (packed), a negative range (frame-of-reference packing), a
// range wider than MaxPackBits (raw), and a NULL-bearing low-card string.
func encRows(t testing.TB, n int) *Database {
	t.Helper()
	db := openWith(t, "CREATE TABLE ET (id INT NOT NULL, lc VARCHAR, hc VARCHAR, nar INT, neg INT, wide INT, lcn VARCHAR, PRIMARY KEY (id))")
	loadRows(t, db, "ET", n, func(i int) types.Row {
		lcn := types.NewString(fmt.Sprintf("n%d", i%5))
		if i%3 == 0 {
			lcn = types.Null
		}
		wide := int64(1) << 60 // spread > 2^48: packing must refuse
		if i%2 == 0 {
			wide = -wide + int64(i)
		}
		return types.Row{
			types.NewInt(int64(i)),
			types.NewString(fmt.Sprintf("val%d", i%9)),
			types.NewString(fmt.Sprintf("u%d", i)),
			types.NewInt(int64(i % 10)),
			types.NewInt(-int64(i%100) - 1),
			types.NewInt(wide),
			lcn,
		}
	})
	return db
}

// pruneDB builds a multi-segment column table whose id column is sorted by
// insertion order — the shape zone maps exploit.
func pruneDB(t testing.TB, n int) *Database {
	t.Helper()
	db := openWith(t, "CREATE TABLE P (id INT NOT NULL, grp INT, val FLOAT, PRIMARY KEY (id))")
	loadRows(t, db, "P", n, func(i int) types.Row {
		return types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 13)), types.NewFloat(float64(i) / 3)}
	})
	columnar(t, db, "P")
	return db
}

// factDimDB builds the FACT/DIM join pair, row-stored: FACT is the larger
// (build) side with a hot key, keys that miss DIM and scattered NULL keys.
func factDimDB(t testing.TB, factN, dimN int) *Database {
	t.Helper()
	db := openWith(t, `
CREATE TABLE FACT (id INT NOT NULL, k INT, v INT, PRIMARY KEY (id));
CREATE TABLE DIM (k INT NOT NULL, name VARCHAR, grp INT, PRIMARY KEY (k));
`)
	loadRows(t, db, "DIM", dimN, func(i int) types.Row {
		return types.Row{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("d%d", i)), types.NewInt(int64(i % 5))}
	})
	loadRows(t, db, "FACT", factN, func(i int) types.Row {
		k := types.NewInt(int64(i % (dimN * 3 / 2))) // ~1/3 of FACT keys miss
		if i%10 == 0 {
			k = types.NewInt(7) // hot key
		}
		if i%37 == 0 {
			k = types.Null
		}
		return types.Row{types.NewInt(int64(i)), k, types.NewInt(int64(i % 100))}
	})
	return db
}

// --- the runner ---

// storageModes are the three physical shapes a table's rows can take.
var storageModes = []struct {
	name              string
	columnar, analyze bool
}{
	{"row", false, false},
	{"column-raw", true, false},     // column storage before its first ANALYZE
	{"column-analyzed", true, true}, // zone maps exact, full segments encoded
}

// equivConfigs are the optimizer configurations compared with the oracle.
var equivConfigs = []struct {
	name string
	opts opt.Options
}{
	{"naive", opt.NaiveOptions()},
	{"row-executor", withOpts(func(o *opt.Options) { o.Vectorize = false })},
	{"default", opt.DefaultOptions()},
	{"sequential", withOpts(func(o *opt.Options) { o.ParallelScan = false })},
}

func withOpts(edit func(*opt.Options)) opt.Options {
	o := opt.DefaultOptions()
	edit(&o)
	return o
}

// equivCase is one query of a fixture, with its bound arguments.
type equivCase struct {
	q    string
	args []types.Value
}

func cases(corpora ...[]string) []equivCase {
	var out []equivCase
	for _, c := range corpora {
		for _, q := range c {
			out = append(out, equivCase{q: q})
		}
	}
	return out
}

// equivFixture is one schema + data set and the queries that run over it.
type equivFixture struct {
	name   string
	build  func(t testing.TB) *Database // row-stored
	tables []string                     // tables the storage mode switches
	cases  []equivCase
	// noNaive skips NaiveOptions: the Sect. 3.2 strawman joins by nested
	// loops, which is quadratic in fixtures with thousands of rows per side
	// (and on a single-table corpus it only repeats the row-executor run).
	noNaive bool
	// parallel marks a fixture loaded above the sequential threshold: the
	// pool is widened to four workers, and float aggregates may differ from
	// the oracle by a rounding error (parallel reduction reorders additions).
	parallel bool
	// verify, when set, checks the physical state a storage mode produced.
	verify func(t *testing.T, db *Database, analyzed bool)
}

var equivFixtures = []equivFixture{
	{
		name:   "org",
		build:  func(t testing.TB) *Database { return orgDB(t) },
		tables: orgTables,
		cases: append(cases(equivCorpus, joinEquivCorpus),
			// Parameterized shapes: parameter frames and cloned cached
			// plans, with parameters in scan filters, index keys, join
			// keys, pushed-down build filters and residuals.
			equivCase{"SELECT ename FROM EMP WHERE sal > ?", []types.Value{types.NewFloat(250)}},
			equivCase{"SELECT ename FROM EMP WHERE sal > ?", []types.Value{types.NewFloat(0)}},
			equivCase{"SELECT ename FROM EMP WHERE sal > ?", []types.Value{types.NewFloat(1e6)}},
			equivCase{"SELECT edno, COUNT(*) FROM EMP WHERE sal >= ? GROUP BY edno", []types.Value{types.NewFloat(100)}},
			equivCase{"SELECT edno, COUNT(*) FROM EMP WHERE sal >= ? GROUP BY edno", []types.Value{types.NewFloat(400)}},
			equivCase{"SELECT ename FROM EMP WHERE eno = ?", []types.Value{types.NewInt(3)}},
			equivCase{"SELECT ename FROM EMP WHERE eno = ?", []types.Value{types.NewInt(42)}},
			equivCase{"SELECT e.ename, d.dname FROM EMP e, DEPT d WHERE e.edno = d.dno AND d.loc = ?", []types.Value{types.NewString("ARC")}},
			equivCase{"SELECT e.ename, d.dname FROM EMP e, DEPT d WHERE e.edno = d.dno AND d.loc = ?", []types.Value{types.NewString("HQ")}},
			equivCase{"SELECT e.ename, d.dname FROM EMP e, DEPT d WHERE e.edno = d.dno AND d.loc = ?", []types.Value{types.NewString("NOWHERE")}},
			equivCase{"SELECT e.ename FROM EMP e, DEPT d WHERE e.edno = d.dno AND e.sal > ?", []types.Value{types.NewFloat(150)}},
			equivCase{"SELECT e.ename FROM EMP e, DEPT d WHERE e.edno = d.dno AND e.sal > ?", []types.Value{types.NewFloat(1e6)}},
			equivCase{"SELECT ename FROM EMP WHERE sal > ? ORDER BY sal DESC", []types.Value{types.NewFloat(0)}},
			equivCase{"SELECT ename FROM EMP WHERE sal > ? ORDER BY sal DESC", []types.Value{types.NewFloat(250)}},
		),
	},
	{
		name:   "typed",
		build:  func(t testing.TB) *Database { return typedRows(t, 2000) },
		tables: []string{"TT"},
		cases:  cases(typedCorpus),
	},
	{
		name:     "typed-parallel",
		build:    func(t testing.TB) *Database { return typedRows(t, parallelRows) },
		tables:   []string{"TT"},
		cases:    cases(typedCorpus),
		noNaive:  true,
		parallel: true,
	},
	{
		name:    "encoded",
		build:   func(t testing.TB) *Database { return encRows(t, colstore.SegRows+1500) },
		tables:  []string{"ET"},
		cases:   cases(encCorpus),
		noNaive: true,
		// "Raw" is a column table before its first ANALYZE, "encoded" the
		// same table after: both encodings must be in play.
		verify: func(t *testing.T, db *Database, analyzed bool) {
			td, err := db.Store().Table("ET")
			if err != nil {
				t.Fatal(err)
			}
			d, p := td.EncodedColumns()
			if !analyzed && (d != 0 || p != 0) {
				t.Fatalf("dict=%d pack=%d columns encoded before ANALYZE", d, p)
			}
			if analyzed && (d == 0 || p == 0) {
				t.Fatalf("expected both encodings in play after ANALYZE, dict=%d pack=%d", d, p)
			}
		},
	},
	{
		name: "big",
		build: func(t testing.TB) *Database {
			db := openWith(t, "CREATE TABLE BIG (id INT NOT NULL, g INT, v FLOAT, PRIMARY KEY (id))")
			loadRows(t, db, "BIG", 5000, func(i int) types.Row {
				g := types.NewInt(int64(i % 7))
				if i%31 == 0 {
					g = types.Null // NULL group keys must aggregate identically
				}
				return types.Row{types.NewInt(int64(i)), g, types.NewFloat(float64(i % 100))}
			})
			return db
		},
		tables: []string{"BIG"},
		cases:  cases(bigCorpus),
	},
	{
		name: "string-agg",
		build: func(t testing.TB) *Database {
			db := openWith(t, "CREATE TABLE ST (id INT NOT NULL, g INT, s VARCHAR, PRIMARY KEY (id))")
			loadRows(t, db, "ST", 16384, func(i int) types.Row {
				s := types.NewString(fmt.Sprintf("s%05d", (i*7919)%16384))
				if i%29 == 0 {
					s = types.Null
				}
				return types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 5)), s}
			})
			return db
		},
		tables:   []string{"ST"},
		cases:    cases(stringAggCorpus),
		noNaive:  true,
		parallel: true,
	},
	{
		name:     "big-join",
		build:    func(t testing.TB) *Database { return factDimDB(t, parallelRows, 600) },
		tables:   []string{"FACT", "DIM"},
		cases:    cases(bigJoinCorpus),
		noNaive:  true,
		parallel: true,
	},
}

// isOrdered reports whether a query's row order is part of its contract.
// ORDER BY / LIMIT results compare position by position; the rest compare
// as multisets (join and hash orders are not part of the contract).
func isOrdered(q string) bool {
	up := strings.ToUpper(q)
	return strings.Contains(up, "ORDER BY") || strings.Contains(up, "LIMIT")
}

// sameValue compares two result cells; with tol, floats may differ by a
// relative rounding error.
func sameValue(a, b types.Value, tol bool) bool {
	if tol && a.T == types.FloatType && b.T == types.FloatType {
		return math.Abs(a.F-b.F) <= 1e-9*math.Max(math.Abs(a.F), math.Abs(b.F))
	}
	return a.String() == b.String()
}

// diffRows returns a description of the first difference between two result
// sets, or "" when they agree.
func diffRows(got, want []types.Row, ordered, tol bool) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	if !ordered {
		byString := func(rows []types.Row) []types.Row {
			out := append([]types.Row(nil), rows...)
			sort.SliceStable(out, func(i, j int) bool { return out[i].String() < out[j].String() })
			return out
		}
		got, want = byString(got), byString(want)
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Sprintf("row %d: %q, want %q", i, got[i], want[i])
		}
		for c := range want[i] {
			if !sameValue(got[i][c], want[i][c], tol) {
				return fmt.Sprintf("row %d: %q, want %q", i, got[i], want[i])
			}
		}
	}
	return ""
}

// TestRowBatchEquivalence is the matrix: fixture × storage mode × optimizer
// configuration, every result compared with the row executor over row
// storage.
func TestRowBatchEquivalence(t *testing.T) {
	for _, f := range equivFixtures {
		t.Run(f.name, func(t *testing.T) {
			if f.parallel {
				setPoolWorkers(t, 4)
			}
			oracle := f.build(t)
			oracle.OptOptions.Vectorize = false
			want := make([][]types.Row, len(f.cases))
			for i, c := range f.cases {
				res, err := oracle.Query(c.q, c.args...)
				if err != nil {
					t.Fatalf("oracle %q %v: %v", c.q, c.args, err)
				}
				want[i] = res.Rows
			}
			for _, mode := range storageModes {
				t.Run(mode.name, func(t *testing.T) {
					db := f.build(t)
					if mode.columnar {
						columnar(t, db, f.tables...)
					}
					if mode.analyze {
						if err := db.Analyze(); err != nil {
							t.Fatal(err)
						}
					}
					if f.verify != nil && mode.columnar {
						f.verify(t, db, mode.analyze)
					}
					for _, cfg := range equivConfigs {
						if f.noNaive && cfg.opts == opt.NaiveOptions() {
							continue
						}
						db.OptOptions = cfg.opts
						for i, c := range f.cases {
							res, err := db.Query(c.q, c.args...)
							if err != nil {
								t.Errorf("%s %q %v: %v", cfg.name, c.q, c.args, err)
								continue
							}
							tol := f.parallel && cfg.opts.ParallelScan
							if d := diffRows(res.Rows, want[i], isOrdered(c.q), tol); d != "" {
								t.Errorf("%s %q %v: %s", cfg.name, c.q, c.args, d)
							}
						}
					}
				})
			}
		})
	}
}

// runBoth executes one query on the row executor — the oracle: no batch
// engine, no zone-map pruning — and on the batch engine under the
// database's other options, and requires identical rows.
func runBoth(t *testing.T, db *Database, q string, args ...types.Value) (oracle, batch *Result) {
	t.Helper()
	prev := db.OptOptions
	defer func() { db.OptOptions = prev }()

	db.OptOptions.Vectorize = false
	oracle, err := db.Query(q, args...)
	if err != nil {
		t.Fatalf("row executor %q: %v", q, err)
	}
	db.OptOptions.Vectorize = true
	batch, err = db.Query(q, args...)
	if err != nil {
		t.Fatalf("batch executor %q: %v", q, err)
	}
	if d := diffRows(batch.Rows, oracle.Rows, isOrdered(q), false); d != "" {
		t.Errorf("%q %v: batch executor: %s", q, args, d)
	}
	return oracle, batch
}

// --- error parity and laziness ---

// TestRowBatchErrorParity pins down evaluation-order parity for errors:
// AND evaluates its right side wherever the left is not false — including
// NULL (unknown) left operands — so a query whose right side errors on
// such a row must fail identically on both executors.
func TestRowBatchErrorParity(t *testing.T) {
	db := orgDB(t) // EMP row e5 has edno NULL
	const q = "SELECT ename FROM EMP WHERE edno > 99 AND sal / (sal - sal) > 0"
	prev := db.OptOptions
	defer func() { db.OptOptions = prev }()
	db.OptOptions.Vectorize = false
	_, rowErr := db.Query(q)
	db.OptOptions.Vectorize = true
	_, batchErr := db.Query(q)
	if rowErr == nil || batchErr == nil {
		t.Fatalf("expected division-by-zero on both paths: row=%v batch=%v", rowErr, batchErr)
	}
	// And the guarded form must succeed on both.
	const guarded = "SELECT ename FROM EMP WHERE sal - sal <> 0 AND sal / (sal - sal) > 0"
	db.OptOptions.Vectorize = false
	if _, err := db.Query(guarded); err != nil {
		t.Fatalf("row executor evaluated a guarded division: %v", err)
	}
	db.OptOptions.Vectorize = true
	if _, err := db.Query(guarded); err != nil {
		t.Fatalf("batch executor evaluated a guarded division: %v", err)
	}
}

// TestTypedKernelErrorParity pins typed-vs-row error behavior on column
// storage: division by zero inside typed arithmetic must surface (or stay
// guarded) exactly like the row path, and comparing incompatible types
// must error identically instead of being silently mis-pruned or
// mis-compared.
func TestTypedKernelErrorParity(t *testing.T) {
	db := typedDB(t, 100)
	prev := db.OptOptions
	defer func() { db.OptOptions = prev }()
	cases := []struct {
		q       string
		wantErr bool
	}{
		{"SELECT COUNT(*) FROM TT WHERE v / (v - v) > 0", true},
		{"SELECT COUNT(*) FROM TT WHERE v - v <> 0 AND v / (v - v) > 0", false},
		{"SELECT COUNT(*) FROM TT WHERE s > 5", true},  // VARCHAR vs INTEGER comparison
		{"SELECT COUNT(*) FROM TT WHERE ok > 1", true}, // BOOLEAN vs INTEGER comparison
		{"SELECT SUM(s + 1) FROM TT", true},            // arithmetic on strings
		{"SELECT COUNT(*) FROM TT WHERE f % 2 = 0", true},
	}
	for _, c := range cases {
		for _, vec := range []bool{false, true} {
			db.OptOptions.Vectorize = vec
			_, err := db.Query(c.q)
			if c.wantErr && err == nil {
				t.Errorf("vectorize=%v %q: expected an error", vec, c.q)
			}
			if !c.wantErr && err != nil {
				t.Errorf("vectorize=%v %q: unexpected error %v", vec, c.q, err)
			}
		}
	}
}

// TestRowBatchLimitLaziness pins down that LIMIT keeps projection
// expressions lazy on the batch path: an error in a projected expression
// of a row beyond the limit must not surface (the limit is pushed beneath
// the projection during lowering).
func TestRowBatchLimitLaziness(t *testing.T) {
	db := openWith(t, "CREATE TABLE LZ (x INT); INSERT INTO LZ VALUES (5), (0);")
	const q = "SELECT 10 / x FROM LZ LIMIT 1"
	prev := db.OptOptions
	defer func() { db.OptOptions = prev }()
	for _, vec := range []bool{false, true} {
		db.OptOptions.Vectorize = vec
		res, err := db.Query(q)
		if err != nil {
			t.Fatalf("vectorize=%v: %v (limit did not stay lazy)", vec, err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].I != 2 {
			t.Fatalf("vectorize=%v: rows = %v, want [2]", vec, res.Rows)
		}
	}
}

// --- DML interleaving ---

// TestColumnStorageDML interleaves INSERT/UPDATE/DELETE with scans on a
// column-stored database, mirroring every statement on a row-stored twin:
// after each mutation both databases must agree on a set of probe queries
// under both executors. A multi-row INSERT with a duplicate key checks that
// transaction rollback restores column segments exactly.
func TestColumnStorageDML(t *testing.T) {
	rowDB := orgDB(t)
	colDB := orgDB(t)
	toColumnStorage(t, colDB)

	probes := []string{
		"SELECT * FROM EMP",
		"SELECT ename FROM EMP WHERE sal > 250",
		"SELECT edno, COUNT(*), SUM(sal) FROM EMP GROUP BY edno",
		"SELECT ename FROM EMP WHERE eno = 3",
		"SELECT ename FROM EMP WHERE edno IS NULL",
		"SELECT e.ename, d.dname FROM EMP e, DEPT d WHERE e.edno = d.dno",
	}
	check := func(step string) {
		t.Helper()
		for _, q := range probes {
			want, err := rowDB.Query(q)
			if err != nil {
				t.Fatalf("row db %q: %v", q, err)
			}
			got, _ := runBoth(t, colDB, q)
			if d := diffRows(got.Rows, want.Rows, false, false); d != "" {
				t.Errorf("after %s, %q: column storage %s", step, q, d)
			}
		}
	}

	dml := []string{
		"INSERT INTO EMP VALUES (6, 'e6', 2, 150)",
		"UPDATE EMP SET sal = sal + 50 WHERE edno = 1",
		"DELETE FROM EMP WHERE eno = 2",
		"INSERT INTO EMP VALUES (7, 'e7', NULL, 700), (8, 'e8', 3, 80)",
		"UPDATE EMP SET edno = 3 WHERE edno IS NULL",
		"DELETE FROM EMP WHERE sal > 600",
		"INSERT INTO EMP VALUES (9, 'e9', 1, 90)",
	}
	check("initial")
	for _, stmt := range dml {
		nRow, err := rowDB.Exec(stmt)
		if err != nil {
			t.Fatalf("row db %q: %v", stmt, err)
		}
		nCol, err := colDB.Exec(stmt)
		if err != nil {
			t.Fatalf("col db %q: %v", stmt, err)
		}
		if nRow != nCol {
			t.Fatalf("%q affected %d rows on row storage, %d on column storage", stmt, nRow, nCol)
		}
		check(stmt)
	}
	// A failing multi-row INSERT (duplicate PK in the second row) must roll
	// back the first row on both storage kinds.
	const bad = "INSERT INTO EMP VALUES (50, 'x', 1, 1), (9, 'dup', 1, 1)"
	if _, err := rowDB.Exec(bad); err == nil {
		t.Fatal("row db accepted duplicate key")
	}
	if _, err := colDB.Exec(bad); err == nil {
		t.Fatal("col db accepted duplicate key")
	}
	check("after rollback")
}

// TestEncodedDMLReencode interleaves DML with Maintain re-encoding: updates
// and deletes force encoded segments back to raw in place, fresh inserts
// land in the unencoded tail, ANALYZE re-encodes what refilled — and after
// every step the typed path over whatever mix of encoded/raw segments
// exists must agree with the row engine.
func TestEncodedDMLReencode(t *testing.T) {
	db := encRows(t, 2*colstore.SegRows+300)
	columnar(t, db, "ET")
	if _, err := db.Exec("ANALYZE ET"); err != nil {
		t.Fatal(err)
	}
	td, _ := db.Store().Table("ET")
	if d, _ := td.EncodedColumns(); d == 0 {
		t.Fatal("fixture did not encode")
	}
	probes := []string{
		"SELECT lc, COUNT(*) FROM ET GROUP BY lc",
		"SELECT COUNT(*), SUM(nar) FROM ET WHERE lc >= 'val4'",
		"SELECT COUNT(*) FROM ET WHERE lcn IS NULL",
		"SELECT MIN(neg), MAX(wide) FROM ET",
		"SELECT COUNT(*) FROM ET WHERE lc = 'patched'",
	}
	check := func(step string) {
		t.Helper()
		for _, q := range probes {
			oracle, batch := runBoth(t, db, q)
			if fmt.Sprint(batch.Rows) != fmt.Sprint(oracle.Rows) {
				t.Errorf("after %s, %q: typed %v, row %v", step, q, batch.Rows, oracle.Rows)
			}
		}
	}
	check("initial encode")

	// In-place update inside an encoded segment: the column reverts to raw
	// (a value outside the dictionary must be storable) without disturbing
	// its neighbors.
	if _, err := db.Exec("UPDATE ET SET lc = 'patched' WHERE id >= 100 AND id < 160"); err != nil {
		t.Fatal(err)
	}
	check("update inside encoded segment")

	// Deletes mark rows dead; surviving encoded rows must still decode.
	if _, err := db.Exec("DELETE FROM ET WHERE id >= 4000 AND id < 4200"); err != nil {
		t.Fatal(err)
	}
	check("delete straddling a segment boundary")

	// Fresh inserts go to the unencoded tail.
	if _, err := db.Exec(fmt.Sprintf("INSERT INTO ET VALUES (%d, 'val1', 'ux', 4, -7, 12, 'n2')", 10_000_000)); err != nil {
		t.Fatal(err)
	}
	check("tail insert")

	// Maintain re-encodes whatever is full and intact again.
	if _, err := db.Exec("ANALYZE ET"); err != nil {
		t.Fatal(err)
	}
	if d, p := td.EncodedColumns(); d == 0 || p == 0 {
		t.Fatalf("re-encode after DML left dict=%d pack=%d", d, p)
	}
	check("re-analyze")

	// Second wave: mutate a re-encoded segment again, then re-encode again.
	if _, err := db.Exec("UPDATE ET SET nar = 77 WHERE id >= 5000 AND id < 5050"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("ANALYZE ET"); err != nil {
		t.Fatal(err)
	}
	check("second mutate and re-analyze")
}

// --- zone maps ---

// TestZoneMapPruning checks that selective range and equality filters on a
// sorted-ish column skip whole segments — and that pruned results agree
// exactly with the row executor, which never prunes, including through
// prepared statements with parameters and NULL parameters.
func TestZoneMapPruning(t *testing.T) {
	const n = 20000 // 5 segments of 4096
	db := pruneDB(t, n)
	segs, _ := db.Store().Table("P")
	total := segs.Segments()
	if total < 4 {
		t.Fatalf("expected a multi-segment table, got %d segments", total)
	}
	cases := []struct {
		q         string
		minPruned int64
	}{
		{"SELECT COUNT(*), SUM(val) FROM P WHERE id >= 18000", int64(total) - 1},
		{"SELECT COUNT(*) FROM P WHERE id < 3000", int64(total) - 1},
		{"SELECT grp, COUNT(*) FROM P WHERE id > 4096 AND id <= 8192 GROUP BY grp", int64(total) - 2},
		// Equality pruning on a non-indexed column (the PK takes the index
		// path and never reaches the scan): val grows with id, so one
		// segment covers any given value.
		{"SELECT COUNT(*) FROM P WHERE val = 1000", int64(total) - 1},
		{"SELECT COUNT(*) FROM P WHERE id >= 999999", int64(total)}, // nothing qualifies anywhere
	}
	for _, c := range cases {
		_, got := runBoth(t, db, c.q)
		if pruned := got.Counters.SegmentsPruned; pruned < c.minPruned {
			t.Errorf("%q: pruned %d segments, want >= %d (of %d)", c.q, pruned, c.minPruned, total)
		}
	}

	// Prepared statements resolve bounds from the parameter frame at Open.
	stmt, err := db.Prepare("SELECT COUNT(*) FROM P WHERE id >= ?")
	if err != nil {
		t.Fatal(err)
	}
	res, err := stmt.Query(types.NewInt(18000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.SegmentsPruned < int64(total)-1 {
		t.Errorf("prepared: pruned %d segments, want >= %d", res.Counters.SegmentsPruned, total-1)
	}
	if res.Rows[0][0].I != 2000 {
		t.Errorf("prepared: COUNT = %v, want 2000", res.Rows[0][0])
	}
	// A NULL parameter makes the comparison Unknown everywhere: every
	// segment prunes and the result is an empty aggregate input.
	res, err = stmt.Query(types.Null)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.SegmentsPruned != int64(total) {
		t.Errorf("NULL param: pruned %d segments, want all %d", res.Counters.SegmentsPruned, total)
	}
	if res.Rows[0][0].I != 0 {
		t.Errorf("NULL param: COUNT = %v, want 0", res.Rows[0][0])
	}
}

// TestZoneMapPruningUnderDML drives pruning correctness while the table
// mutates: updates widen zones incrementally, deletes stay conservative,
// rolled-back statements must leave zones that never prune live rows, and
// ANALYZE re-tightens. Every probe compares the pruned scan with the row
// executor.
func TestZoneMapPruningUnderDML(t *testing.T) {
	db := pruneDB(t, 13000) // 4 segments
	probes := []string{
		"SELECT COUNT(*), SUM(val) FROM P WHERE id >= 12000",
		"SELECT COUNT(*) FROM P WHERE id < 100",
		"SELECT grp, COUNT(*) FROM P WHERE id > 999900 GROUP BY grp",
		"SELECT COUNT(*) FROM P WHERE id = 1000000",
	}
	check := func(step string) {
		t.Helper()
		for _, q := range probes {
			want, got := runBoth(t, db, q)
			if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
				t.Errorf("after %s, %q: pruned %v, unpruned %v", step, q, got.Rows, want.Rows)
			}
		}
	}
	check("initial")

	// Move a row from the first segment out past every zone: the first
	// segment's zone widens (no stale pruning), and id = 1000000 must be
	// found even though it lives in a segment whose original range was
	// [0, 4095].
	if _, err := db.Exec("UPDATE P SET id = 1000000 WHERE id = 50"); err != nil {
		t.Fatal(err)
	}
	check("update widening first segment")
	if got := queryStrings(t, db, "SELECT COUNT(*) FROM P WHERE id = 1000000"); got[0] != "1" {
		t.Fatalf("widened row not found under pruning: %v", got)
	}

	// Delete the tail range; conservative zones may stop pruning but must
	// never drop rows. ANALYZE then recomputes exact zones.
	if _, err := db.Exec("DELETE FROM P WHERE id >= 12000 AND id < 13000"); err != nil {
		t.Fatal(err)
	}
	check("tail delete")
	if _, err := db.Exec("ANALYZE P"); err != nil {
		t.Fatal(err)
	}
	check("analyze after delete")

	// A failing multi-row INSERT (duplicate PK in the second row) rolls
	// back the first row; the revive/undo path widens zones, so the
	// transient row must neither survive nor corrupt pruning.
	if _, err := db.Exec("INSERT INTO P VALUES (2000000, 1, 1.0), (100, 1, 1.0)"); err == nil {
		t.Fatal("duplicate key insert unexpectedly succeeded")
	}
	check("rolled-back insert")
	if got := queryStrings(t, db, "SELECT COUNT(*) FROM P WHERE id = 2000000"); got[0] != "0" {
		t.Fatalf("rolled-back row visible under pruning: %v", got)
	}

	// Fresh inserts into the tail keep qualifying.
	if _, err := db.Exec("INSERT INTO P VALUES (3000000, 2, 9.5)"); err != nil {
		t.Fatal(err)
	}
	probes = append(probes, "SELECT COUNT(*) FROM P WHERE id >= 3000000")
	check("fresh tail insert")
}

// TestDeletedSegmentSkipAndCompact covers the delete-heavy satellite: scans
// skip fully-deleted segments without decoding them, ANALYZE hollows their
// payload (slot space preserved), and the table keeps answering correctly —
// including fresh inserts that land in a hollowed tail segment.
func TestDeletedSegmentSkipAndCompact(t *testing.T) {
	db := pruneDB(t, 13000) // 4 segments: [0,4096) [4096,8192) [8192,12288) [12288,13000)
	td, _ := db.Store().Table("P")

	// Wipe out the second segment entirely, plus the partial tail.
	if _, err := db.Exec("DELETE FROM P WHERE id >= 4096 AND id < 8192"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("DELETE FROM P WHERE id >= 12288"); err != nil {
		t.Fatal(err)
	}
	want := queryStrings(t, db, "SELECT COUNT(*), MIN(id), MAX(id) FROM P")
	if want[0] != fmt.Sprintf("%d|%d|%d", 2*4096, 0, 12287) {
		t.Fatalf("unexpected baseline after deletes: %v", want)
	}

	if _, err := db.Exec("ANALYZE P"); err != nil {
		t.Fatal(err)
	}
	if h := td.HollowSegments(); h != 2 {
		t.Fatalf("ANALYZE hollowed %d segments, want 2", h)
	}
	sortedEqual(t, queryStrings(t, db, "SELECT COUNT(*), MIN(id), MAX(id) FROM P"), want)

	// Appends land in the hollowed tail segment: storage is rebuilt on
	// demand and the rows are immediately visible.
	if _, err := db.Exec("INSERT INTO P VALUES (12500, 5, 1.5), (12501, 5, 2.5)"); err != nil {
		t.Fatal(err)
	}
	sortedEqual(t, queryStrings(t, db, "SELECT id FROM P WHERE id >= 12288"),
		[]string{"12500", "12501"})
	// The reused tail is live again; the fully-deleted middle segment stays hollow.
	if h := td.HollowSegments(); h != 1 {
		t.Fatalf("expected 1 hollow segment after tail reuse, got %d", h)
	}
	sortedEqual(t, queryStrings(t, db, "SELECT COUNT(*) FROM P WHERE id >= 4096 AND id < 8192"), []string{"0"})
}

// --- lowering and counters ---

// TestJoinLowering pins that representative shapes actually lower to the
// batch operators (rather than silently riding the row fallback, which the
// equivalence test would not notice).
func TestJoinLowering(t *testing.T) {
	db := orgDB(t)
	cases := []struct{ q, op string }{
		{"SELECT e.ename, d.dname FROM EMP e, DEPT d WHERE e.edno = d.dno", "BatchHashJoin"},
		{"SELECT ename FROM EMP ORDER BY sal DESC", "BatchSort"},
		{"SELECT DISTINCT edno FROM EMP", "BatchDistinct"},
		{"SELECT edno FROM EMP UNION SELECT dno FROM DEPT", "BatchUnion"},
		{"SELECT d.dname, COUNT(*) FROM EMP e, DEPT d WHERE e.edno = d.dno GROUP BY d.dname", "BatchHashJoin"},
	}
	for _, c := range cases {
		plan, err := db.Explain(c.q)
		if err != nil {
			t.Fatalf("Explain(%q): %v", c.q, err)
		}
		if !strings.Contains(plan, c.op) {
			t.Errorf("%q did not lower to %s:\n%s", c.q, c.op, plan)
		}
	}
}

// TestJoinParallelMinRows pins the admission threshold from both sides
// under default options: a hash-join build side one row short of
// vexec.DefaultParallelMinRows never touches the worker pool, one exactly
// at it builds on pool workers.
func TestJoinParallelMinRows(t *testing.T) {
	setPoolWorkers(t, 2)
	for _, n := range []int{vexec.DefaultParallelMinRows - 1, vexec.DefaultParallelMinRows} {
		// Join on non-indexed keys so the planner picks a hash join (a PK
		// key would compile to an index nested-loop instead). Both sides
		// have n rows, so whichever the planner builds on has n.
		db := openWith(t, `
CREATE TABLE F (id INT NOT NULL, k INT, PRIMARY KEY (id));
CREATE TABLE D (id INT NOT NULL, k INT, PRIMARY KEY (id));
`)
		for _, tbl := range []string{"F", "D"} {
			loadRows(t, db, tbl, n, func(i int) types.Row {
				return types.Row{types.NewInt(int64(i)), types.NewInt(int64(i))}
			})
		}
		columnar(t, db, "F", "D")
		res, err := db.Query("SELECT COUNT(*) FROM F f, D d WHERE f.k = d.k")
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0].I != int64(n) {
			t.Fatalf("n=%d: COUNT = %v", n, res.Rows[0][0])
		}
		if got := res.Counters.JoinBuildRows + res.Counters.JoinProbeRows; got != int64(2*n) {
			t.Fatalf("n=%d: join_build+join_probe=%d, want %d (counters: %+v)", n, got, 2*n, res.Counters)
		}
		if n < vexec.DefaultParallelMinRows {
			if res.Counters.PoolWorkers != 0 || res.Counters.PoolFallbacks != 0 {
				t.Fatalf("n=%d: build below the threshold touched the worker pool: %+v", n, res.Counters)
			}
		} else if res.Counters.PoolWorkers == 0 {
			t.Fatalf("n=%d: build at the threshold ran without pool workers: %+v", n, res.Counters)
		}
	}
}

// TestJoinCountersRowBatchParity checks that both executors account the
// same build/probe row counts (NULL keys excluded on both sides).
func TestJoinCountersRowBatchParity(t *testing.T) {
	db := orgDB(t)
	rowRes, batchRes := runBoth(t, db, "SELECT e.ename, d.dname FROM EMP e, DEPT d WHERE e.edno = d.dno")
	// The planner picked EMP (5 rows, one NULL edno → 4 keyed) as build and
	// DEPT (3 rows) as probe; both executors must account identically.
	for _, res := range []*Result{rowRes, batchRes} {
		if res.Counters.JoinBuildRows != 4 {
			t.Fatalf("join_build=%d, want 4 (counters: %+v)", res.Counters.JoinBuildRows, res.Counters)
		}
		if res.Counters.JoinProbeRows != 3 {
			t.Fatalf("join_probe=%d, want 3 (counters: %+v)", res.Counters.JoinProbeRows, res.Counters)
		}
	}
}

// --- determinism and races ---

// TestMorselParallelDeterminism pins the parallel aggregate's output
// against the sequential fold on a multi-segment table: integer aggregates
// are exact, so the results (including group order) must match bit for bit
// at every worker count.
func TestMorselParallelDeterminism(t *testing.T) {
	db := openWith(t, "CREATE TABLE T (id INT NOT NULL, g INT, v INT, PRIMARY KEY (id))")
	loadRows(t, db, "T", parallelRows, func(i int) types.Row {
		g := types.NewInt(int64(i % 23))
		if i%41 == 0 {
			g = types.Null
		}
		return types.Row{types.NewInt(int64(i)), g, types.NewInt(int64(i % 100))}
	})
	columnar(t, db, "T")
	const q = "SELECT g, COUNT(*), SUM(v), MIN(v), MAX(v), COUNT(DISTINCT v) FROM T WHERE v > 3 GROUP BY g"

	db.OptOptions.ParallelScan = false
	seq, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	db.OptOptions.ParallelScan = true
	if plan, err := db.Explain(q); err != nil || !strings.Contains(plan, "BatchParallelAggScan") {
		t.Fatalf("query did not lower to the parallel operator (err=%v):\n%s", err, plan)
	}
	for _, workers := range []int{2, 4, 8} {
		setPoolWorkers(t, workers)
		par, err := db.Query(q)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if par.Counters.PoolWorkers == 0 {
			t.Fatalf("workers=%d: aggregate ran without pool workers: %+v", workers, par.Counters)
		}
		if len(par.Rows) != len(seq.Rows) {
			t.Fatalf("workers=%d: %d groups vs %d sequential", workers, len(par.Rows), len(seq.Rows))
		}
		for i := range seq.Rows {
			if par.Rows[i].String() != seq.Rows[i].String() {
				t.Fatalf("workers=%d: row %d = %q, sequential %q", workers, i, par.Rows[i], seq.Rows[i])
			}
		}
	}
	// Float aggregates: parallel FP reduction reorders additions, so the
	// result may differ from the sequential fold by an ulp — but the static
	// morsel striding makes it bit-reproducible for a fixed worker count.
	const fq = "SELECT g, SUM(v * 0.1), AVG(v * 0.1) FROM T GROUP BY g"
	setPoolWorkers(t, 4)
	first, err := db.Query(fq)
	if err != nil {
		t.Fatal(err)
	}
	second, err := db.Query(fq)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first.Rows {
		if first.Rows[i].String() != second.Rows[i].String() {
			t.Fatalf("float aggregate not reproducible: run 1 row %d = %q, run 2 = %q", i, first.Rows[i], second.Rows[i])
		}
	}
}

// hammer runs fn from `goroutines` goroutines, `iters` times each, while an
// optional writer loops until the readers are done; the first error from
// either side fails the test.
func hammer(t *testing.T, goroutines, iters int, writer func(i int) error, fn func(g int) error) {
	t.Helper()
	errs := make(chan error, goroutines+1)
	stop := make(chan struct{})
	var w sync.WaitGroup
	if writer != nil {
		w.Add(1)
		go func() {
			defer w.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := writer(i); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	var readers sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; i < iters; i++ {
				if err := fn(g); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	readers.Wait()
	close(stop)
	w.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestMorselParallelScanRace hammers one cached parallel-aggregate plan
// from many goroutines while a writer mutates the column-stored table —
// the race detector proves segment views, per-worker states and the merge
// are properly isolated. Results are only sanity-checked (the table is a
// moving target); exactness is TestMorselParallelDeterminism's job.
func TestMorselParallelScanRace(t *testing.T) {
	setPoolWorkers(t, 4)
	const n = parallelRows
	db := openWith(t, "CREATE TABLE T (id INT NOT NULL, g INT, v INT, PRIMARY KEY (id))")
	loadRows(t, db, "T", n, func(i int) types.Row {
		return types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 7)), types.NewInt(int64(i % 100))}
	})
	columnar(t, db, "T")
	stmt, err := db.Prepare("SELECT g, COUNT(*), SUM(v) FROM T WHERE v >= ? GROUP BY g")
	if err != nil {
		t.Fatal(err)
	}
	writer := func(i int) error { // updates, deletes and inserts against live scans
		var err error
		switch i % 3 {
		case 0:
			_, err = db.Exec("UPDATE T SET v = v + 1 WHERE id = ?", types.NewInt(int64(i%n)))
		case 1:
			_, err = db.Exec("DELETE FROM T WHERE id = ?", types.NewInt(int64(n+i)))
		default:
			_, err = db.Exec("INSERT INTO T VALUES (?, 1, 1)", types.NewInt(int64(n+i)))
		}
		return err
	}
	hammer(t, 6, 30, writer, func(g int) error {
		res, err := stmt.Query(types.NewInt(int64(g % 3)))
		if err != nil {
			return err
		}
		if len(res.Rows) == 0 {
			return fmt.Errorf("goroutine %d: empty aggregate result", g)
		}
		return nil
	})
}

// TestVexecRaceConcurrentExecutions runs many concurrent executions of one
// cached batched plan to prove the clone-per-execution story under the race
// detector: templates are shared, iterator state is private.
func TestVexecRaceConcurrentExecutions(t *testing.T) {
	db := orgDB(t)
	stmt, err := db.Prepare("SELECT edno, COUNT(*), SUM(sal) FROM EMP WHERE sal > ? GROUP BY edno")
	if err != nil {
		t.Fatal(err)
	}
	hammer(t, 8, 50, nil, func(g int) error {
		res, err := stmt.Query(types.NewFloat(float64(50 * (g % 4))))
		if err != nil {
			return err
		}
		if len(res.Rows) == 0 {
			return fmt.Errorf("goroutine %d: empty aggregate result", g)
		}
		return nil
	})
}

// TestVexecPoolRace hammers cached typed scan and parallel-aggregate plans
// from many goroutines against concurrent DML: the shared slice pools must
// never leak one execution's data into another (reset-on-put), which the
// race detector and the result sanity checks verify together.
func TestVexecPoolRace(t *testing.T) {
	setPoolWorkers(t, 4)
	const n = parallelRows
	db := typedDB(t, n)
	stmtTyped, err := db.Prepare("SELECT g, COUNT(*), SUM(v), SUM(f) FROM TT WHERE v >= ? GROUP BY g")
	if err != nil {
		t.Fatal(err)
	}
	stmtProj, err := db.Prepare("SELECT v * 2, s, v + f FROM TT WHERE v < ?")
	if err != nil {
		t.Fatal(err)
	}
	writer := func(i int) error {
		_, err := db.Exec("UPDATE TT SET f = f + 1 WHERE v = ?", types.NewInt(int64(i%n)))
		return err
	}
	hammer(t, 8, 40, writer, func(g int) error {
		res, err := stmtTyped.Query(types.NewInt(int64(100 * (g % 4))))
		if err != nil {
			return err
		}
		if len(res.Rows) == 0 {
			return fmt.Errorf("goroutine %d: empty aggregate", g)
		}
		pres, err := stmtProj.Query(types.NewInt(50))
		if err != nil {
			return err
		}
		if len(pres.Rows) != 50 {
			return fmt.Errorf("goroutine %d: projection returned %d rows, want 50", g, len(pres.Rows))
		}
		for _, r := range pres.Rows {
			if !strings.HasPrefix(r[1].S, "tag") {
				return fmt.Errorf("goroutine %d: corrupted string column %q", g, r[1].S)
			}
		}
		return nil
	})
}

// TestBatchJoinConcurrentRace hammers one cached batch-join plan from many
// goroutines against a bounded shared pool, with a build side above the
// admission threshold, so parallel builds, pool admission and sequential
// fallbacks all interleave under the race detector — and the pool's
// high-water mark never exceeds its bound.
func TestBatchJoinConcurrentRace(t *testing.T) {
	const bound = 4
	setPoolWorkers(t, bound)
	db := factDimDB(t, parallelRows, 400)
	columnar(t, db, "FACT", "DIM")
	stmt, err := db.Prepare("SELECT d.grp, COUNT(*), SUM(f.v) FROM FACT f, DIM d WHERE f.k = d.k AND f.v >= ? GROUP BY d.grp")
	if err != nil {
		t.Fatal(err)
	}
	want, err := stmt.Query(types.NewInt(0))
	if err != nil {
		t.Fatal(err)
	}
	vexec.Shared.ResetStats()
	hammer(t, 8, 25, nil, func(g int) error {
		res, err := stmt.Query(types.NewInt(0))
		if err != nil {
			return err
		}
		if d := diffRows(res.Rows, want.Rows, false, false); d != "" {
			return fmt.Errorf("goroutine %d: %s", g, d)
		}
		return nil
	})
	st := vexec.Shared.Stats()
	if st.Peak > bound {
		t.Fatalf("pool peak %d exceeded configured bound %d", st.Peak, bound)
	}
	if st.Admits+st.Fallbacks == 0 {
		t.Fatal("concurrent joins never touched the pool — the bound was not exercised")
	}
}
