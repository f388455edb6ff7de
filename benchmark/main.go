// Command benchmark is the one benchmark of the XNF engine: four workloads
// driven over the wire protocol on TCP loopback, absolute end-to-end
// numbers, and a second, traced pass that replays sampled operations layer
// by layer. BENCHMARK.json at the repository root declares every workload
// and metric it emits; README.md explains them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
)

var workloads = []*workloadDef{coCheckout, oltpPoint, analyticScan, durableCommit}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "agree" {
		os.Exit(agreeMain(os.Args[2:]))
	}
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed of the generated data, keys and schedules")
	seconds := flag.Float64("seconds", 0, "length of the measured window (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass")
	root := flag.String("root", "", "directory holding BENCHMARK.json (default: found from the working directory)")
	out := flag.String("out", "", "append this invocation's runs to a result file, for `agree`")
	flag.Parse()

	code, err := run(*root, *name, *seed, *seconds, *trace != 0, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(rootFlag, name string, seed int64, seconds float64, trace bool, outFile string) (int, error) {
	root, err := findRoot(rootFlag)
	if err != nil {
		return 0, err
	}
	sp, err := loadSpec(root)
	if err != nil {
		return 0, err
	}
	if seconds <= 0 {
		seconds = float64(sp.RunSeconds)
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	cfg := &config{
		seed: seed, seconds: seconds, trace: trace, scale: 1,
		clients: min(nproc, 2),
		outDir:  filepath.Join(root, sp.Paths[0], "out"),
		tmpDir:  filepath.Join(root, ".bench_build", "tmp"),
		meta:    runMeta{NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: commit(root)},
	}
	var selected []*workloadDef
	for _, w := range workloads {
		if name == "all" || name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return 0, fmt.Errorf("unknown workload %q", name)
	}
	fmt.Printf("# nproc=%d GOMAXPROCS=%d clients=%d go=%s commit=%s seed=%d seconds=%g trace=%v\n",
		nproc, cfg.meta.GOMAXPROCS, cfg.clients, cfg.meta.Go, cfg.meta.Commit, seed, seconds, trace)
	fmt.Printf("# load shape: closed loop, one goroutine and one TCP loopback connection per client\n")

	code := 0
	var outs []*outcome
	for _, w := range selected {
		o, err := runWorkload(sp, w, cfg)
		if err != nil {
			return 0, err
		}
		outs = append(outs, o)
		printOutcome(o)
		if !o.Correct {
			code = 1
		}
	}
	if outFile != "" {
		if err := appendRuns(outFile, outs); err != nil {
			return 0, err
		}
	}
	// The driver reads the last line: one JSON object for the workload run.
	last := outs[len(outs)-1]
	line := struct {
		Correct   bool                    `json:"correct"`
		Attempted int                     `json:"attempted"`
		Failed    int                     `json:"failed"`
		Metrics   map[string]driverMetric `json:"metrics"`
	}{last.Correct, last.Attempted, last.Failed, make(map[string]driverMetric)}
	for k, m := range last.Metrics {
		line.Metrics[k] = driverMetric{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return 0, err
	}
	fmt.Println(string(data))
	return code, nil
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printOutcome(o *outcome) {
	fmt.Printf("## %s  correct=%v attempted=%d failed=%d\n", o.Workload, o.Correct, o.Attempted, o.Failed)
	fmt.Printf("# flush policy: %s; rows:", o.Meta.Flush)
	for _, t := range slices.Sorted(maps.Keys(o.Meta.Rows)) {
		fmt.Printf(" %s=%d", t, o.Meta.Rows[t])
	}
	fmt.Println()
	for _, k := range slices.Sorted(maps.Keys(o.Metrics)) {
		m := o.Metrics[k]
		fmt.Printf("%-36s %16.4f %-6s n=%d\n", k, m.Value, m.Unit, m.Samples)
	}
	for _, n := range o.Notes {
		fmt.Printf("!! %s\n", n)
	}
}

// commit names the source revision when the checkout is a git repository.
func commit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	s := string(head)
	if len(s) > 5 && s[:5] == "ref: " {
		ref, err := os.ReadFile(filepath.Join(root, ".git", s[5:len(s)-1]))
		if err != nil {
			return "unknown"
		}
		s = string(ref)
	}
	if len(s) > 12 {
		s = s[:12]
	}
	return s
}

// resultFile is what -out accumulates and `agree` compares: every run of a
// set, several per workload when the set was repeated.
type resultFile struct {
	Runs []*outcome `json:"runs"`
}

func appendRuns(path string, outs []*outcome) error {
	var rf resultFile
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &rf); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	rf.Runs = append(rf.Runs, outs...)
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
