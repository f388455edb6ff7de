package engine

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xnf/internal/opt"
)

var update = flag.Bool("update", false, "rewrite the golden plan files under testdata/")

// CheckGolden compares got with testdata/<file>, or rewrites the file when
// the test runs with -update. An intended plan change is then a reviewable
// diff of the golden file; an accidental one fails here.
func CheckGolden(t *testing.T, file, got string) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with go test -run Golden -update)", err)
	}
	if string(want) == got {
		return
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			t.Fatalf("%s differs at line %d:\n got: %q\nwant: %q\n(regenerate with go test -run Golden -update)", path, i+1, g, w)
		}
	}
}

// TestGoldenSelectPlans pins the EXPLAIN text of every SELECT of the
// equivalence corpus, at DefaultOptions on column-analyzed storage.
func TestGoldenSelectPlans(t *testing.T) {
	for _, f := range equivFixtures {
		t.Run(f.name, func(t *testing.T) {
			db := f.build(t)
			columnar(t, db, f.tables...)
			if err := db.Analyze(); err != nil {
				t.Fatal(err)
			}
			db.OptOptions = opt.DefaultOptions()
			var b strings.Builder
			seen := make(map[string]bool)
			for _, c := range f.cases {
				if seen[c.q] {
					continue
				}
				seen[c.q] = true
				plan, err := db.Explain(c.q)
				if err != nil {
					t.Fatalf("%q: %v", c.q, err)
				}
				fmt.Fprintf(&b, "-- %s\n%s\n", c.q, plan)
			}
			CheckGolden(t, "select_"+f.name+".golden", b.String())
		})
	}
}
