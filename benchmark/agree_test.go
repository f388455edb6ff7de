package main

import (
	"bytes"
	"strings"
	"testing"
)

// synthetic builds a result set with one run per value of one metric.
func synthetic(workload, name string, values ...float64) *resultFile {
	rf := &resultFile{}
	for _, v := range values {
		rf.Runs = append(rf.Runs, &outcome{Workload: workload, Metrics: map[string]metric{name: {Value: v}}})
	}
	return rf
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "op_p50_us", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"same", lower, []float64{100}, []float64{100}, "ok"},
		{"within the bound", lower, []float64{100}, []float64{109}, "ok"},
		{"slower by more than the bound", lower, []float64{100}, []float64{111}, "worse"},
		{"faster by more than the bound", lower, []float64{100}, []float64{80}, "unresolved"},
		{"rate fell", higher, []float64{1000}, []float64{880}, "worse"},
		{"rate rose within the bound", higher, []float64{1000}, []float64{1050}, "ok"},
		{"rate rose beyond the bound", higher, []float64{1000}, []float64{1200}, "unresolved"},
		{"a set's own spread exceeds the bound", lower, []float64{80, 90, 100, 110, 120, 130, 140, 150}, []float64{100, 101, 102, 103}, "unresolved"},
		{"median of several runs decides", lower, []float64{98, 99, 100, 101, 102}, []float64{99, 100, 104, 105, 300}, "ok"},
		{"missing from one set", lower, []float64{100}, nil, "unresolved"},
	} {
		if got, _ := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestAgreeTable(t *testing.T) {
	sp := &spec{EndToEnd: []metricSpec{{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.10}}}
	sp.Workloads = append(sp.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "oltp_point"})

	var out bytes.Buffer
	if !agree(&out, sp, synthetic("oltp_point", "op_p50_us", 20, 21, 22), synthetic("oltp_point", "op_p50_us", 22, 21, 20)) {
		t.Errorf("equal sets did not agree:\n%s", out.String())
	}
	out.Reset()
	if agree(&out, sp, synthetic("oltp_point", "op_p50_us", 20), synthetic("oltp_point", "op_p50_us", 30)) {
		t.Error("a 50% slowdown agreed")
	}
	if !strings.Contains(out.String(), "worse") {
		t.Errorf("table does not name the verdict:\n%s", out.String())
	}
	// Sets taken with different settings are not comparable, however close
	// the numbers; a different commit is what the tool is for.
	other := synthetic("oltp_point", "op_p50_us", 20)
	other.Runs[0].Meta.Commit = "abc"
	if !agree(&out, sp, synthetic("oltp_point", "op_p50_us", 20), other) {
		t.Error("a different commit alone made the sets disagree")
	}
	for name, change := range map[string]func(*outcome){
		"scale":   func(o *outcome) { o.Meta.Scale = 0.5 },
		"rows":    func(o *outcome) { o.Meta.Rows = map[string]int64{"EMP": 2000} },
		"nproc":   func(o *outcome) { o.Meta.NProc = 8 },
		"window":  func(o *outcome) { o.Seconds = 5 },
		"clients": func(o *outcome) { o.Meta.Clients = 1 },
	} {
		other := synthetic("oltp_point", "op_p50_us", 20)
		change(other.Runs[0])
		out.Reset()
		if agree(&out, sp, synthetic("oltp_point", "op_p50_us", 20), other) || !strings.Contains(out.String(), "unresolved") {
			t.Errorf("sets that differ in %s agreed:\n%s", name, out.String())
		}
	}
	// Traced runs carry no end-to-end metrics and must not be mixed in.
	traced := synthetic("oltp_point", "op_p50_us", 500)
	traced.Runs[0].Trace = true
	traced.Runs = append(traced.Runs, synthetic("oltp_point", "op_p50_us", 20).Runs...)
	if !agree(&out, sp, synthetic("oltp_point", "op_p50_us", 20), traced) {
		t.Error("a traced run was compared as if it were an end-to-end run")
	}
}
