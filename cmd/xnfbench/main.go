// xnfbench regenerates every table, figure and quantitative claim of the
// paper and prints them in the paper's layout. benchmark/README.md records
// the expected shapes (Table 1's summary row is 23 / 16 / 7 exactly).
//
//	xnfbench                  — run everything
//	xnfbench -exp table1      — Table 1 (derivation-cost comparison)
//	xnfbench -exp fig3        — Fig. 3: subquery→join rewrite
//	xnfbench -exp extraction  — Sect. 1: set-oriented vs fragmented
//	xnfbench -exp traversal   — Sect. 5.2: cache traversal rate
//	xnfbench -exp shipping    — Sect. 5.1/5.3: shipping strategies
//	xnfbench -exp concurrency — mixed wire workload, server-side latency quantiles
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"xnf"
	"xnf/internal/bench"
	"xnf/internal/workload"
	"xnf/internal/workload/loadgen"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1, fig3, extraction, traversal, shipping, concurrency, all")
	latency := flag.Duration("latency", 100*time.Microsecond, "simulated per-round-trip latency")
	clients := flag.Int("clients", 64, "concurrency: concurrent wire sessions")
	flag.Parse()

	run := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Printf("=== %s ===\n", name)
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	run("table1", func() error {
		t, err := bench.Table1()
		if err != nil {
			return err
		}
		fmt.Println("Comparison of SQL Derivation and XNF Derivation w.r.t. Common Subexpressions")
		fmt.Println("(paper Table 1; summary row there: 23 / 16 / 7)")
		fmt.Print(t.Format())
		return nil
	})

	run("fig3", func() error {
		fmt.Println("Existential-subquery to join rewrite (paper Fig. 3, rule set of [39])")
		fmt.Printf("%8s %8s %14s %14s %10s %12s\n", "emps", "depts", "naive", "rewritten", "speedup", "subq runs")
		for _, scale := range []struct{ d, e int }{{20, 10}, {50, 20}, {100, 40}, {200, 50}} {
			r, err := bench.Fig3(scale.d, scale.e)
			if err != nil {
				return err
			}
			fmt.Printf("%8d %8d %14v %14v %9.1fx %12d\n",
				r.Emps, r.Depts, r.NaiveTime.Round(time.Microsecond),
				r.RewireTime.Round(time.Microsecond), r.Speedup, r.NaiveRuns)
		}
		fmt.Println("(the paper reports orders-of-magnitude improvements; the gap grows with scale)")
		return nil
	})

	run("extraction", func() error {
		fmt.Println("Set-oriented CO extraction vs fragmented per-parent navigation (Sect. 1)")
		fmt.Printf("%7s %8s | %12s %7s | %12s %7s %8s | %9s %9s\n",
			"depts", "tuples", "one-query", "rtrips", "fragmented", "rtrips", "queries", "speedup", "@1ms rpc")
		for _, depts := range []int{10, 50, 200, 500} {
			p := workload.OrgParams{
				Depts: depts, EmpsPerDept: 10, ProjsPerDept: 3,
				Skills: 100, SkillsPerEmp: 3, SkillsPerProj: 2,
				ArcFraction: 0.5, Seed: 4,
			}
			r, err := bench.Extraction(p, *latency)
			if err != nil {
				return err
			}
			fmt.Printf("%7d %8d | %12v %7d | %12v %7d %8d | %8.1fx %8.1fx\n",
				r.Depts, r.Tuples,
				r.SetOriented.Round(time.Microsecond), r.SetRoundTrips,
				r.Fragmented.Round(time.Microsecond), r.FragRoundTrips, r.FragQueries,
				r.Speedup, r.ModeledSpeedup)
		}
		fmt.Println("(fragment count grows with parent instances; the paper predicts orders of magnitude)")
		return nil
	})

	run("traversal", func() error {
		fmt.Println("Pre-loaded cache traversal, OO1/Cattell shape (Sect. 5.2; paper: >100,000 tuples/s)")
		fmt.Printf("%8s %12s %12s %10s %14s\n", "parts", "conns", "load", "visited", "tuples/s")
		for _, parts := range []int{2000, 20000} {
			r, err := bench.Traversal(workload.OO1Params{Parts: parts, Conns: 3, Seed: 7}, 100, 7)
			if err != nil {
				return err
			}
			fmt.Printf("%8d %12d %12v %10d %14.0f\n", r.Parts, r.Connections,
				r.LoadTime.Round(time.Millisecond), r.Visited, r.TuplesPerSecond)
		}
		return nil
	})

	run("concurrency", func() error {
		fmt.Printf("Mixed wire workload: %d concurrent sessions (OLTP lookups / analytics cursors / DDL churn / vanish mid-fetch)\n", *clients)
		db := xnf.Open()
		p := workload.DefaultOrg()
		p.Depts = 64
		p.EmpsPerDept = 16
		if err := workload.LoadOrg(db.Engine(), p); err != nil {
			return err
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		defer l.Close()
		go db.NewServer().Serve(l)
		rep, err := loadgen.Run(loadgen.Params{
			Addr:    l.Addr().String(),
			Clients: *clients,
			Ops:     15,
			MaxEno:  p.Depts * p.EmpsPerDept,
			Seed:    1,
		})
		if err != nil {
			return err
		}
		fmt.Print(rep.Format())
		fmt.Println("(latency quantiles and rows/s are the server's own metrics, read over the wire)")
		return nil
	})

	run("shipping", func() error {
		fmt.Printf("Shipping strategies at %v simulated round-trip latency (Sect. 5.1/5.3)\n", *latency)
		p := workload.OrgParams{
			Depts: 30, EmpsPerDept: 10, ProjsPerDept: 3,
			Skills: 100, SkillsPerEmp: 3, SkillsPerProj: 2,
			ArcFraction: 0.5, Seed: 4,
		}
		rows, err := bench.Shipping(p, *latency)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatShipping(rows))
		fmt.Println("(one call per tuple crosses the process boundary per tuple — the paper's RDBMS-interface critique)")
		return nil
	})
}
