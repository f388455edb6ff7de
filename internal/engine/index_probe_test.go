package engine_test

import (
	"sort"
	"strings"
	"testing"

	"xnf/internal/engine"
	"xnf/internal/opt"
	"xnf/internal/types"
)

// probeDDL holds the shapes where an index probe can disagree with a scan:
// a composite hash index probed by a prefix of its columns, and nullable
// indexed columns holding NULL.
const probeDDL = `
CREATE TABLE t (a INT, b INT, c INT);
CREATE INDEX tab ON t (a, b);
INSERT INTO t VALUES (1, 1, 0), (1, 2, 0), (2, 1, 0), (NULL, 1, 0);
CREATE TABLE u (id INT NOT NULL, x INT, PRIMARY KEY (id));
CREATE INDEX ux ON u (x);
INSERT INTO u VALUES (1, NULL), (2, 5), (3, 5);
CREATE TABLE l (id INT, x INT);
CREATE TABLE r (id INT, y INT);
CREATE INDEX ry ON r (y);
INSERT INTO l VALUES (1, NULL), (2, 3);
INSERT INTO r VALUES (10, NULL), (20, 3);
`

// probeStorages are the physical layouts every probe test runs on.
var probeStorages = []struct {
	name     string
	columnar bool
}{{"row", false}, {"column-analyzed", true}}

// openProbeDB builds a database from ddl on the given storage; a columnar
// database is switched to column storage and analyzed, so its segments
// are encoded.
func openProbeDB(t *testing.T, ddl string, columnar bool, o opt.Options) *engine.Database {
	t.Helper()
	db := engine.Open()
	db.OptOptions = o
	if err := db.ExecScript(ddl); err != nil {
		t.Fatal(err)
	}
	if columnar {
		for _, tbl := range db.Catalog().Tables() {
			if _, err := db.Exec("ALTER TABLE " + tbl.Name + " SET STORAGE COLUMN"); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Analyze(); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// sortedRows renders a result as sorted row strings, for order-free
// comparison.
func sortedRows(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

// TestIndexProbeMatchesScan pins the index-equality access path to the
// scan: every query runs under DefaultOptions, whose plan must probe an
// index, and under NaiveOptions, which scans and is the oracle.
func TestIndexProbeMatchesScan(t *testing.T) {
	cases := []struct {
		name  string
		q     string
		args  []types.Value
		index string // index the default plan must probe
		want  int
	}{
		{"composite hash prefix", "SELECT * FROM t WHERE a = 1", nil, "", 2},
		{"composite hash full key", "SELECT * FROM t WHERE a = 1 AND b = 2", nil, "", 1},
		{"null parameter key", "SELECT * FROM u WHERE x = ?", []types.Value{types.Null}, "u.ux", 0},
		{"non-null parameter key", "SELECT * FROM u WHERE x = ?", []types.Value{types.NewInt(5)}, "u.ux", 2},
		{"null join key", "SELECT l.id, r.id FROM l, r WHERE l.x = r.y", nil, "r.ry", 1},
	}
	for _, st := range probeStorages {
		t.Run(st.name, func(t *testing.T) {
			naive := openProbeDB(t, probeDDL, st.columnar, opt.NaiveOptions())
			def := openProbeDB(t, probeDDL, st.columnar, opt.DefaultOptions())
			for _, c := range cases {
				want, err := naive.Query(c.q, c.args...)
				if err != nil {
					t.Fatalf("%s: naive: %v", c.name, err)
				}
				if len(want.Rows) != c.want {
					t.Fatalf("%s: naive returned %d rows, want %d", c.name, len(want.Rows), c.want)
				}
				got, err := def.Query(c.q, c.args...)
				if err != nil {
					t.Fatalf("%s: default: %v", c.name, err)
				}
				if g, w := sortedRows(got.Rows), sortedRows(want.Rows); strings.Join(g, ";") != strings.Join(w, ";") {
					t.Errorf("%s: default returned %v, scan oracle %v", c.name, g, w)
				}
				if c.index == "" {
					continue
				}
				plan, err := def.Explain(c.q)
				if err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(plan, "IndexLookup "+c.index) {
					t.Errorf("%s: default plan does not probe %s:\n%s", c.name, c.index, plan)
				}
			}
		})
	}
}
