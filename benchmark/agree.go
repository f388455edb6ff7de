package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// agree compares two result files (sets of runs written with -out) against
// the bounds of BENCHMARK.json: one row per end-to-end metric × workload.
//
//	ok          the medians differ by no more than the bound
//	worse       B's median is worse than A's by more than the bound
//	unresolved  the runs of either set spread (interquartile range over
//	            median) wider than the bound, or B is better than A by more
//	            than the bound: a difference this comparison cannot tell from
//	            noise. A gain is claimed with paired runs, not with this tool.
//	            Also every row of a workload whose runs were not all taken
//	            with the same settings (window, host shape, Go version,
//	            clients, data sizes, flush policy): only the commit may differ.
//
// It exits non-zero on anything but ok.
func agreeMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark agree A.json B.json")
		return 2
	}
	ok, err := agreeFiles(args[0], args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark agree:", err)
		return 2
	}
	if !ok {
		return 1
	}
	return 0
}

func agreeFiles(pathA, pathB string) (bool, error) {
	root, err := findRoot("")
	if err != nil {
		return false, err
	}
	sp, err := loadSpec(root)
	if err != nil {
		return false, err
	}
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	return agree(os.Stdout, sp, a, b), nil
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// values gathers one metric of one workload over a set's untraced runs.
func (rf *resultFile) values(workload, name string) []float64 {
	var out []float64
	for _, r := range rf.Runs {
		if r.Workload == workload && !r.Trace {
			if m, ok := r.Metrics[name]; ok {
				out = append(out, m.Value)
			}
		}
	}
	sort.Float64s(out)
	return out
}

// setting is what every run of a workload must share, in both sets, for
// their numbers to be comparable: everything recorded but the commit, the
// seed and the results.
func setting(r *outcome) string {
	m := r.Meta
	m.Commit = ""
	data, _ := json.Marshal(m) // map keys are sorted, so equal settings give equal text
	return fmt.Sprintf("seconds=%g %s", r.Seconds, data)
}

// mixedSettings returns two differing settings found among the untraced
// runs of one workload in a and b, or empty strings when all agree.
func mixedSettings(workload string, a, b *resultFile) (string, string) {
	first := ""
	for _, rf := range []*resultFile{a, b} {
		for _, r := range rf.Runs {
			if r.Workload != workload || r.Trace {
				continue
			}
			switch s := setting(r); {
			case first == "":
				first = s
			case s != first:
				return first, s
			}
		}
	}
	return "", ""
}

// spread is the interquartile range as a share of the median; 0 for fewer
// than four runs, which have no quartiles to speak of.
func spread(sorted []float64) float64 {
	n := len(sorted)
	if n < 4 || sorted[n/2] == 0 {
		return 0
	}
	return (sorted[(3*n)/4] - sorted[n/4]) / sorted[n/2]
}

// verdict judges one metric × workload pair.
func verdict(m metricSpec, a, b []float64) (status string, delta float64) {
	if len(a) == 0 || len(b) == 0 {
		return "unresolved", 0
	}
	ma, mb := medianFloat(a), medianFloat(b)
	if ma == 0 {
		return "unresolved", 0
	}
	// delta > 0 means B is worse than A, whichever way the metric points.
	delta = (mb - ma) / ma
	if m.Better == "higher" {
		delta = -delta
	}
	switch {
	case spread(a) > m.Bound || spread(b) > m.Bound:
		return "unresolved", delta
	case delta > m.Bound:
		return "worse", delta
	case delta < -m.Bound:
		return "unresolved", delta
	}
	return "ok", delta
}

// agree prints the table and reports whether every row is ok.
func agree(out io.Writer, sp *spec, a, b *resultFile) bool {
	all := true
	fmt.Fprintf(out, "%-16s %-20s %14s %14s %8s %6s  %s\n", "workload", "metric", "A median", "B median", "delta", "bound", "verdict")
	for _, w := range sp.Workloads {
		s1, s2 := mixedSettings(w.Name, a, b)
		if s1 != "" {
			fmt.Fprintf(out, "!! %s: runs taken with different settings are not comparable:\n!!   %s\n!!   %s\n", w.Name, s1, s2)
		}
		for _, m := range sp.EndToEnd {
			va, vb := a.values(w.Name, m.Name), b.values(w.Name, m.Name)
			status, delta := verdict(m, va, vb)
			if s1 != "" {
				status = "unresolved"
			}
			if status != "ok" {
				all = false
			}
			fmt.Fprintf(out, "%-16s %-20s %14.4f %14.4f %+7.1f%% %5.0f%%  %s\n",
				w.Name, m.Name, medianFloat(va), medianFloat(vb), 100*delta, 100*m.Bound, status)
		}
	}
	return all
}
