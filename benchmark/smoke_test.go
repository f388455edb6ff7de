package main

import (
	"maps"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func declaredNames(specs []metricSpec) []string {
	out := make([]string, 0, len(specs))
	for _, m := range specs {
		out = append(out, m.Name)
	}
	slices.Sort(out)
	return out
}

// TestSmoke runs every workload at a tiny scale, both passes, and checks
// that what is emitted is what BENCHMARK.json declares, that every workload
// measures every end-to-end metric and none is zero, that every per-layer
// metric is measured by at least one workload, and that every oracle and
// leak gate holds.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads; skipped with -short")
	}
	root, err := findRoot("")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(sp.Workloads), len(workloads))
	}
	for _, m := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q", m.Name)
		}
	}
	// Per-layer names some workload measured; every declared one must be
	// reached by at least one of the four traced runs.
	layerMeasured := map[string]bool{}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name || !nameRE.MatchString(w.name) {
			t.Errorf("workload %d is %q in the program and %q in BENCHMARK.json", i, w.name, sp.Workloads[i].Name)
		}
		for _, trace := range []bool{false, true} {
			cfg := &config{
				seed: 1, seconds: 0.6, trace: trace, scale: 0.05, clients: 2,
				outDir: filepath.Join(t.TempDir(), "out"), tmpDir: filepath.Join(t.TempDir(), "tmp"),
			}
			if !trace {
				// With this seed both co_checkout clients open with a check-in,
				// which is what `go test -race` has to see.
				cfg.seed = 15
			}
			o, err := runWorkload(sp, w, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !o.Correct || o.Failed != 0 || o.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d notes=%v", w.name, trace, o.Correct, o.Attempted, o.Failed, o.Notes)
			}
			declared := sp.EndToEnd
			if trace {
				declared = sp.PerLayer
			}
			if got, want := slices.Sorted(maps.Keys(o.Metrics)), declaredNames(declared); !slices.Equal(got, want) {
				t.Errorf("%s trace=%v emits %v, BENCHMARK.json declares %v", w.name, trace, got, want)
			}
			if trace {
				maps.Copy(layerMeasured, o.measured)
				for _, c := range w.classes {
					if o.Metrics["client."+c+"_p50_us"].Value <= 0 {
						t.Errorf("%s: class %s has no latency in the traced pass", w.name, c)
					}
				}
				continue
			}
			for _, m := range sp.EndToEnd {
				if !o.measured[m.Name] {
					t.Errorf("%s: end-to-end metric %s was never measured", w.name, m.Name)
				}
				if o.Metrics[m.Name].Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.name, m.Name, o.Metrics[m.Name].Value)
				}
			}
			if len(o.Meta.Rows) == 0 || o.Meta.Flush == "" || o.Meta.Clients != cfg.clients || o.Meta.Scale != cfg.scale {
				t.Errorf("%s: run metadata is incomplete: %+v", w.name, o.Meta)
			}
		}
	}
	for _, m := range sp.PerLayer {
		if !layerMeasured[m.Name] {
			t.Errorf("per-layer metric %s is declared but no workload measures it", m.Name)
		}
	}
}
