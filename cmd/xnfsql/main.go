// xnfsql is an interactive SQL/XNF shell over an in-memory database.
//
//	xnfsql            — empty database
//	xnfsql -load org  — pre-loaded Fig. 1 organization workload
//	xnfsql -data DIR  — durable database rooted at DIR (recovered on start,
//	                    every commit write-ahead-logged and fsync'd)
//
// Besides SQL and XNF statements it understands:
//
//	\d               list tables and views
//	\storage         per-table storage kind, segments and session scan/prune stats
//	\co VIEW         extract a CO view and summarize the cache
//	\explain SELECT  show the physical plan
//	\explain ANALYZE SELECT  run it and show the plan with runtime counters
//	\fetchsize N     rows per output flush of the streaming printer
//	\table1 VIEW     derivation-cost analysis (paper Table 1)
//	\prepare N SQL   prepare a statement (use ? placeholders) under name N
//	\run N ARG…      execute prepared statement N with bound arguments
//	\cache           plan-cache and compile statistics
//	\metrics [ADDR]  metrics snapshot — of this shell's database, or of a
//	                 remote xnfserver at ADDR (over the wire protocol)
//	\slow            the slow-query log (see xnf.DB.SetSlowQueryThreshold)
//	\q               quit
//
// SELECT results stream through the pull-based cursor API (xnf.DB.QueryRows):
// rows print incrementally as the plan produces them, so a huge result never
// materializes in the shell.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"xnf"
	"xnf/internal/workload"
)

func main() {
	load := flag.String("load", "", "preload a workload: org, parts, oo1")
	data := flag.String("data", "", "durable data directory (empty = in-memory)")
	flag.Parse()

	var db *xnf.DB
	if *data != "" {
		d, err := xnf.OpenDir(*data)
		check(err)
		defer d.Close()
		db = d
		if st := d.WALStats(); st.RecoveredRecords > 0 {
			fmt.Printf("recovered %d record(s) from %s in %dms\n", st.RecoveredRecords, *data, st.RecoveryMillis)
		}
	} else {
		db = xnf.Open()
	}
	switch *load {
	case "":
	case "org":
		check(workload.LoadOrg(db.Engine(), workload.DefaultOrg()))
		fmt.Println("loaded organization workload (deps_ARC view defined)")
	case "parts":
		check(workload.LoadParts(db.Engine(), workload.PartsParams{Parts: 200, FanOut: 2, Roots: 3, Seed: 1}))
		fmt.Println("loaded parts workload (parts_explosion view defined)")
	case "oo1":
		check(workload.LoadOO1(db.Engine(), workload.OO1Params{Parts: 2000, Conns: 3, Seed: 7}))
		fmt.Println("loaded OO1 workload (part_graph view defined)")
	default:
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *load)
		os.Exit(1)
	}

	prepared := make(map[string]*xnf.Stmt)

	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	fmt.Print("xnf> ")
	for in.Scan() {
		line := in.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, `\`) {
			if !command(db, prepared, trimmed) {
				return
			}
			fmt.Print("xnf> ")
			continue
		}
		buf.WriteString(line)
		buf.WriteString("\n")
		if !strings.HasSuffix(trimmed, ";") {
			fmt.Print("...> ")
			continue
		}
		stmt := strings.TrimSuffix(strings.TrimSpace(buf.String()), ";")
		buf.Reset()
		run(db, stmt)
		fmt.Print("xnf> ")
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// fetchSize is the row count between output flushes of the streaming
// printer (\fetchsize).
var fetchSize = 1000

// sessionCounters accumulates the execution counters of every statement the
// shell ran; \storage reports them so zone-map effectiveness is visible.
var sessionCounters xnf.Counters

func addCounters(c xnf.Counters) {
	sessionCounters.RowsScanned += c.RowsScanned
	sessionCounters.RowsProduced += c.RowsProduced
	sessionCounters.IndexLookups += c.IndexLookups
	sessionCounters.SegmentsScanned += c.SegmentsScanned
	sessionCounters.SegmentsPruned += c.SegmentsPruned
	sessionCounters.SubplanRuns += c.SubplanRuns
	sessionCounters.SpoolMaterial += c.SpoolMaterial
	sessionCounters.HashBuilds += c.HashBuilds
	sessionCounters.JoinBuildRows += c.JoinBuildRows
	sessionCounters.JoinProbeRows += c.JoinProbeRows
	sessionCounters.PoolWorkers += c.PoolWorkers
	sessionCounters.PoolFallbacks += c.PoolFallbacks
	sessionCounters.EncodedCmpRows += c.EncodedCmpRows
	sessionCounters.EncodedHashRows += c.EncodedHashRows
}

func run(db *xnf.DB, stmt string) {
	upper := strings.ToUpper(strings.TrimSpace(stmt))
	switch {
	case strings.HasPrefix(upper, "SELECT"):
		rows, err := db.QueryRows(stmt)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		printRows(rows)
	case strings.HasPrefix(upper, "OUT"):
		summarizeCO(db, stmt)
	default:
		n, err := db.Exec(stmt)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("ok (%d rows affected)\n", n)
	}
}

func command(db *xnf.DB, prepared map[string]*xnf.Stmt, cmd string) bool {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case `\q`:
		return false
	case `\prepare`:
		if len(fields) < 3 {
			fmt.Println("usage: \\prepare NAME SQL…")
			return true
		}
		name := fields[1]
		rest := strings.TrimSpace(strings.TrimPrefix(cmd, `\prepare`))
		sql := strings.TrimSpace(strings.TrimPrefix(rest, name))
		stmt, err := db.Prepare(strings.TrimSuffix(sql, ";"))
		if err != nil {
			fmt.Println("error:", err)
			return true
		}
		prepared[name] = stmt
		fmt.Printf("prepared %s (%d parameter(s))\n", name, stmt.NumParams())
	case `\run`:
		if len(fields) < 2 {
			fmt.Println("usage: \\run NAME ARG…")
			return true
		}
		stmt, ok := prepared[fields[1]]
		if !ok {
			fmt.Printf("no prepared statement %q (use \\prepare)\n", fields[1])
			return true
		}
		runPrepared(stmt, parseArgs(fields[2:]))
	case `\cache`:
		m := &db.Engine().Metrics
		fmt.Printf("plan cache: %d cached, %d hits, %d misses, %d compiles\n",
			db.Engine().PlanCacheLen(), m.CacheHits.Load(), m.CacheMisses.Load(), m.Compiles.Load())
		fmt.Printf("CO views:   %d compiles, %d hits\n",
			m.COPlanCompiles.Load(), m.COPlanCacheHits.Load())
		for i, e := range db.Engine().CacheStats() {
			if i >= 10 {
				fmt.Println("  …")
				break
			}
			sql := e.SQL
			if len(sql) > 64 {
				sql = sql[:61] + "..."
			}
			fmt.Printf("  %6d hit(s)  %s\n", e.Hits, sql)
		}
	case `\storage`:
		for _, t := range db.Engine().Catalog().Tables() {
			td, err := db.Engine().Store().Table(t.Name)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			kind := td.StorageKind().String()
			if kind == "COLUMN" {
				extra := ""
				if h := td.HollowSegments(); h > 0 {
					extra = fmt.Sprintf(" (%d hollow)", h)
				}
				if d, p := td.EncodedColumns(); d > 0 || p > 0 {
					extra += fmt.Sprintf("  encoded: %d dict, %d packed col(s)", d, p)
				}
				fmt.Printf("%-16s %-6s %8d rows  %d segment(s)%s\n", t.Name, kind, t.RowCount(), td.Segments(), extra)
			} else {
				fmt.Printf("%-16s %-6s %8d rows\n", t.Name, kind, t.RowCount())
			}
		}
		c := sessionCounters
		fmt.Printf("session: %d rows scanned, %d index lookups, %d segments pruned by zone maps\n",
			c.RowsScanned, c.IndexLookups, c.SegmentsPruned)
		fmt.Printf("session: %d join build rows, %d join probe rows, %d pool workers granted, %d pool fallbacks\n",
			c.JoinBuildRows, c.JoinProbeRows, c.PoolWorkers, c.PoolFallbacks)
		fmt.Printf("session: %d rows compared on encoded data, %d rows hashed from encoded data\n",
			c.EncodedCmpRows, c.EncodedHashRows)
		ps := xnf.PoolStats()
		fmt.Printf("worker pool: %d/%d in use (peak %d), %d admissions, %d sequential fallbacks\n",
			ps.InUse, ps.Workers, ps.Peak, ps.Admits, ps.Fallbacks)
		if ws := db.WALStats(); ws.Attached {
			group := float64(0)
			if ws.Fsyncs > 0 {
				group = float64(ws.GroupSum) / float64(ws.Fsyncs)
			}
			fmt.Printf("wal: %s — %d records (%d bytes), %d commits over %d fsyncs (mean group %.1f, max %d), %d checkpoint(s)\n",
				ws.Dir, ws.Records, ws.Bytes, ws.Commits, ws.Fsyncs, group, ws.MaxGroup, ws.Checkpoints)
			if ws.RecoveredRecords > 0 {
				fmt.Printf("wal: recovered %d record(s) / %d transaction(s) in %dms at startup\n",
					ws.RecoveredRecords, ws.RecoveredTx, ws.RecoveryMillis)
			}
		}
		fmt.Println("switch with: ALTER TABLE name SET STORAGE COLUMN (or ROW)")
	case `\fetchsize`:
		if len(fields) < 2 {
			fmt.Printf("fetch size: %d\n", fetchSize)
			return true
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil || n < 1 {
			fmt.Println("usage: \\fetchsize N (N >= 1)")
			return true
		}
		fetchSize = n
		fmt.Printf("fetch size set to %d\n", n)
	case `\d`:
		for _, t := range db.Engine().Catalog().Tables() {
			fmt.Printf("table %-16s %d rows, %d columns\n", t.Name, t.RowCount(), len(t.Columns))
		}
		for _, v := range db.Engine().Catalog().Views() {
			kind := "view"
			if v.IsXNF {
				kind = "CO view"
			}
			fmt.Printf("%-7s %s\n", kind, v.Name)
		}
	case `\co`:
		if len(fields) < 2 {
			fmt.Println("usage: \\co VIEW")
			return true
		}
		summarizeCO(db, fields[1])
	case `\explain`:
		sql := strings.TrimSpace(strings.TrimPrefix(cmd, `\explain`))
		// \explain ANALYZE SELECT… also executes the plan and appends the
		// runtime counters (rows scanned, segments pruned by zone maps).
		var plan string
		var err error
		if rest, ok := cutKeyword(sql, "ANALYZE"); ok {
			plan, err = db.ExplainAnalyze(rest)
		} else {
			plan, err = db.Explain(sql)
		}
		if err != nil {
			fmt.Println("error:", err)
			return true
		}
		fmt.Print(plan)
	case `\table1`:
		if len(fields) < 2 {
			fmt.Println("usage: \\table1 VIEW")
			return true
		}
		t, err := db.AnalyzeTable1(fields[1])
		if err != nil {
			fmt.Println("error:", err)
			return true
		}
		fmt.Print(t.Format())
	case `\metrics`:
		var samples []xnf.MetricsSample
		if len(fields) >= 2 {
			c, err := xnf.Dial(fields[1])
			if err != nil {
				fmt.Println("error:", err)
				return true
			}
			defer c.Close()
			samples, err = c.ServerStats()
			if err != nil {
				fmt.Println("error:", err)
				return true
			}
		} else {
			samples = db.Metrics().Snapshot()
		}
		for _, s := range samples {
			fmt.Printf("%-44s %v\n", s.Name, s.Value)
		}
	case `\slow`:
		slow := db.SlowQueries()
		if len(slow) == 0 {
			fmt.Println("slow-query log is empty")
			return true
		}
		for _, q := range slow {
			fmt.Printf("%v  %8v  %6d rows  %s\n", q.When.Format("15:04:05"), q.Duration.Round(time.Microsecond), q.Rows, q.SQL)
		}
	default:
		fmt.Println(`commands: \d  \storage  \co VIEW  \explain [ANALYZE] SELECT…  \fetchsize N  \table1 VIEW  \prepare NAME SQL…  \run NAME ARG…  \cache  \metrics [ADDR]  \slow  \q`)
	}
	return true
}

// cutKeyword strips a leading keyword (case-insensitive, followed by a
// space) from s; ok reports whether it was present.
func cutKeyword(s, kw string) (string, bool) {
	if len(s) > len(kw) && strings.EqualFold(s[:len(kw)], kw) && s[len(kw)] == ' ' {
		return strings.TrimSpace(s[len(kw):]), true
	}
	return s, false
}

// parseArgs converts shell words to SQL values: integers, floats, NULL,
// TRUE/FALSE, 'quoted strings' (single words) and bare strings. Every word
// maps to some value, so there is no error case.
func parseArgs(words []string) []xnf.Value {
	out := make([]xnf.Value, 0, len(words))
	for _, w := range words {
		switch {
		case strings.EqualFold(w, "NULL"):
			out = append(out, xnf.Null)
		case strings.EqualFold(w, "TRUE"), strings.EqualFold(w, "FALSE"):
			out = append(out, xnf.NewBool(strings.EqualFold(w, "TRUE")))
		case strings.HasPrefix(w, "'") && strings.HasSuffix(w, "'") && len(w) >= 2:
			out = append(out, xnf.NewString(strings.ReplaceAll(w[1:len(w)-1], "''", "'")))
		default:
			if n, err := strconv.ParseInt(w, 10, 64); err == nil {
				out = append(out, xnf.NewInt(n))
			} else if f, err := strconv.ParseFloat(w, 64); err == nil {
				out = append(out, xnf.NewFloat(f))
			} else {
				out = append(out, xnf.NewString(w))
			}
		}
	}
	return out
}

// printRows streams a result to stdout: rows print as the plan produces
// them, flushed every fetchSize rows, so a huge result never materializes
// in the shell. The execution counters are folded into the session totals.
func printRows(rows *xnf.Rows) {
	defer rows.Close()
	names := make([]string, len(rows.Columns()))
	for i, c := range rows.Columns() {
		names[i] = c.Name
	}
	out := bufio.NewWriter(os.Stdout)
	fmt.Fprintln(out, strings.Join(names, " | "))
	n := 0
	for {
		r, err := rows.Next()
		if err != nil {
			out.Flush()
			fmt.Println("error:", err)
			return
		}
		if r == nil {
			break
		}
		fmt.Fprintln(out, strings.ReplaceAll(r.String(), "|", " | "))
		n++
		if n%fetchSize == 0 {
			out.Flush()
		}
	}
	fmt.Fprintf(out, "(%d rows)\n", n)
	out.Flush()
	addCounters(rows.Counters())
}

func runPrepared(stmt *xnf.Stmt, args []xnf.Value) {
	if stmt.IsQuery() {
		rows, err := stmt.QueryRows(args...)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		printRows(rows)
		return
	}
	n, err := stmt.Exec(args...)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("ok (%d rows affected)\n", n)
}

func summarizeCO(db *xnf.DB, query string) {
	cache, err := db.QueryCO(query)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, comp := range cache.Components() {
		fmt.Printf("component %-14s %5d objects (%s)\n", comp.Name, comp.Len(), strings.Join(comp.ColNames, ", "))
	}
	for _, rel := range cache.Relationships() {
		fmt.Printf("relationship %-11s %5d connections (%s -> %s)\n",
			rel.Name, rel.Connections(), rel.Parent, strings.Join(rel.Children, "+"))
	}
}
