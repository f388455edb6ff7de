package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricSpec is one declared metric of BENCHMARK.json. Bound is the share
// of the parent's median by which an end-to-end metric may get worse.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec is BENCHMARK.json: the single declaration of workload and metric
// names, units and bounds. The program emits exactly what it declares.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// findRoot returns the directory holding BENCHMARK.json: dir itself when
// given, else the nearest ancestor of the working directory that has one.
func findRoot(dir string) (string, error) {
	if dir != "" {
		return filepath.Abs(dir)
	}
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("BENCHMARK.json not found in the working directory or above it")
		}
		dir = parent
	}
}

func loadSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// metric is one measured value as printed and stored.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// report collects the metrics of one run. Only declared names are accepted:
// a typo fails the run instead of silently adding a metric nobody declared.
type report struct {
	declared []metricSpec
	values   map[string]metric
	measured map[string]bool // names a set call reached, as opposed to the initial zeros
	unknown  []string
}

// newReport starts every declared metric at zero: a layer a workload never
// enters reports 0, it is not left out.
func newReport(declared []metricSpec) *report {
	r := &report{declared: declared, values: make(map[string]metric, len(declared)), measured: make(map[string]bool, len(declared))}
	for _, m := range declared {
		r.values[m.Name] = metric{Unit: m.Unit}
	}
	return r
}

func (r *report) set(name string, value float64, samples int) {
	m, ok := r.values[name]
	if !ok {
		r.unknown = append(r.unknown, name)
		return
	}
	m.Value, m.Samples = value, samples
	r.values[name] = m
	r.measured[name] = true
}

func (r *report) get(name string) float64 { return r.values[name].Value }
