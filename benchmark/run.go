package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"xnf/internal/engine"
	"xnf/internal/exec"
	"xnf/internal/vexec"
	"xnf/internal/wire"
)

// config is one invocation's settings. The load shape is fixed: closed
// loop, clients = min(nproc, 2), one goroutine and one TCP connection per
// client, GOMAXPROCS = nproc.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	scale   float64 // 1 = the documented sizes; only the smoke test shrinks them
	clients int
	outDir  string  // trace files and result files
	tmpDir  string  // durable databases and scratch logs
	meta    runMeta // the host's part, filled in by main; runWorkload adds the rest
}

// runMeta is the setting of one run. Two runs whose settings differ in
// anything but the commit measure different things, and `agree` will not
// compare them.
type runMeta struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Clients    int     `json:"clients"`
	Scale      float64 `json:"scale"`
	// Rows is the data size: live rows of every table once set-up is done.
	Rows  map[string]int64 `json:"rows"`
	Flush string           `json:"flush_policy"`
}

// scaled shrinks a data size by cfg.scale, never below min.
func (c *config) scaled(n, min int) int {
	if m := int(float64(n) * c.scale); m > min {
		return m
	}
	return min
}

// workloadDef names a workload's op classes and which of them fill the
// three latency roles every workload reports: the primary op, the write
// class and the second read class.
type workloadDef struct {
	name                   string
	classes                []string
	primary, write, second int
	// quiet, when not 0, is the share of the window from its start in which
	// the background writer stays silent; the primary and second classes are
	// taken from that part only (analytic_scan, whose last quarter is the
	// dirty phase and is reported apart).
	quiet float64
	// flush is the workload's flush policy, stated in the output and never
	// varied.
	flush string
	setup func(cfg *config) (instance, error)
}

// inMemory is the flush policy of the workloads that open no directory.
const inMemory = "in memory, no log"

// quietEnd is where the quiet part of a window of length dur ends.
func (w *workloadDef) quietEnd(dur time.Duration) time.Duration {
	return time.Duration(float64(dur) * w.quiet)
}

// classLatencies gathers one class's sorted samples of a window of length
// dur: the whole window, or for the read classes of a workload with a quiet
// part, that part.
func (w *workloadDef) classLatencies(win *window, class int, dur time.Duration) []int64 {
	if w.quiet > 0 && class != w.write {
		return win.latencies(class, 0, w.quietEnd(dur))
	}
	return win.latencies(class, 0, 0)
}

// instance is one set-up of a workload: loaded database, started server,
// connected and warmed-up clients.
type instance interface {
	core() *base
	steppers() []stepper
	backgrounds() []background
	// verify runs the oracles that need the finished window (durable read
	// back, final values) and returns checks attempted and failed.
	verify() (attempted, failed int)
	// layers takes the per-layer measurements of the traced pass.
	layers(lc *layerCtx)
	// cleanup releases what shutdown does not (durable databases and their
	// directories). It may be called more than once.
	cleanup()
}

// base is what every instance has: the engine, the wire server over TCP
// loopback in this process, and one connection per client.
type base struct {
	db    *engine.Database
	srv   *wire.Server
	addr  string
	conns []*wire.Client
	// rate is ops per second per client seen during warm-up; it sizes the
	// latency logs and the trace sampling.
	rate float64
}

func (b *base) core() *base { return b }

// serve starts a wire server for db on a loopback port.
func (b *base) serve(db *engine.Database) error {
	b.db = db
	b.srv = wire.NewServer(db)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.addr = l.Addr().String()
	go b.srv.Serve(l) // returns when shutdown closes the listener
	return nil
}

func (b *base) dial(n int) error {
	for i := 0; i < n; i++ {
		c, err := wire.Dial(b.addr)
		if err != nil {
			return err
		}
		b.conns = append(b.conns, c)
	}
	return nil
}

// leaks is what must read zero once every client has said goodbye.
type leaks struct {
	sessions, cursors, statements, memUsed int64
}

func (l leaks) any() bool {
	return l.sessions != 0 || l.cursors != 0 || l.statements != 0 || l.memUsed != 0
}

// shutdown closes the clients and the listener and reads the leak gauges.
// Session teardown on the server is asynchronous, so the gauges are polled
// for up to two seconds before a non-zero value counts.
func (b *base) shutdown() leaks {
	for _, c := range b.conns {
		c.Close()
	}
	b.conns = nil
	if b.srv != nil {
		b.srv.Close()
	}
	reg := b.db.Registry()
	var l leaks
	deadline := time.Now().Add(2 * time.Second)
	for {
		l.sessions, _ = reg.Value("xnf_sessions_active")
		l.cursors, _ = reg.Value("xnf_open_cursors")
		l.statements, _ = reg.Value("xnf_open_statements")
		l.memUsed = b.db.MemUsed()
		if !l.any() || time.Now().After(deadline) {
			return l
		}
		time.Sleep(time.Millisecond)
	}
}

// counters is a snapshot of every public counter the per-layer ratios are
// built from; the ratios use deltas over the traced window.
type counters map[string]float64

func (b *base) snapshot() counters {
	c := counters{
		"co_plan_hits":     float64(b.db.Metrics.COPlanCacheHits.Load()),
		"co_plan_compiles": float64(b.db.Metrics.COPlanCompiles.Load()),
	}
	for _, name := range []string{
		"xnf_frames_in_total", "xnf_frames_out_total", "xnf_bytes_in_total", "xnf_bytes_out_total",
		"xnf_wire_errors_total", "xnf_plan_cache_hits_total", "xnf_plan_cache_misses_total", "xnf_compiles_total",
		"xnf_wal_records_total", "xnf_wal_bytes_total", "xnf_wal_fsyncs_total", "xnf_wal_commits_total",
		"xnf_wal_group_commit_sum_total", "xnf_pool_admissions_total", "xnf_pool_fallbacks_total",
	} {
		v, _ := b.db.Registry().Value(name)
		c[name] = float64(v)
	}
	for _, conn := range b.conns {
		c["round_trips"] += float64(conn.Stats.RoundTrips)
		c["tuples"] += float64(conn.Stats.TuplesRecv)
	}
	c["pool_granted"] = float64(vexec.Shared.Stats().Granted)
	return c
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerCtx is what a workload's layers method works with: the report to
// fill, the tracer for step-by-step replays, and a time budget.
type layerCtx struct {
	cfg    *config
	rep    *report
	sp     *tracer
	budget time.Duration // for all replays of this workload together
	win    *window       // the traced window
	// inProcessNs is set by layers: the median of the primary op run in
	// process, without the wire.
	inProcessNs float64
	fail        func(format string, args ...any)
}

// slice gives one replay kind its share of the budget.
func (lc *layerCtx) slice(parts int) time.Duration { return lc.budget / time.Duration(parts) }

// outcome is one finished run.
type outcome struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Seconds   float64           `json:"seconds"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Meta      runMeta           `json:"meta"`
	Metrics   map[string]metric `json:"metrics"`
	Notes     []string          `json:"notes,omitempty"`
	// measured names the metrics this run took, as opposed to the zeros a
	// layer it never enters reports.
	measured map[string]bool
}

// setupRepeats is how many times a run sets the workload up; setup_s is the
// median, and the last instance is the one measured.
const setupRepeats = 3

// runWorkload measures one workload once: the untraced pass gives the
// end-to-end metrics, the traced pass the per-layer ones.
func runWorkload(sp *spec, w *workloadDef, cfg *config) (*outcome, error) {
	out := &outcome{Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds, Correct: true}
	fail := func(format string, args ...any) {
		out.Correct = false
		out.Notes = append(out.Notes, fmt.Sprintf(format, args...))
	}
	declared := sp.EndToEnd
	repeats := setupRepeats
	if cfg.trace {
		declared = sp.PerLayer
		repeats = 1
	}
	rep := newReport(declared)

	var inst instance
	var setups []float64
	var heapPerRow float64
	var heapRows int64
	for k := 0; k < repeats; k++ {
		if inst != nil {
			heapPerRow, heapRows = retire(inst)
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(cfg); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.cleanup()
	b := inst.core()
	out.Meta = cfg.meta
	out.Meta.Clients, out.Meta.Scale, out.Meta.Rows, out.Meta.Flush = cfg.clients, cfg.scale, tableRows(b.db), w.flush
	dur := time.Duration(cfg.seconds * float64(time.Second))
	capacity := func(d time.Duration) int { return int(2*b.rate*d.Seconds()) + 4096 }
	count := func(w *window) {
		out.Attempted += w.ops()
		out.Failed += w.failed()
		if n := w.dropped(); n > 0 {
			fail("%d samples did not fit the latency log", n)
		}
	}

	if !cfg.trace {
		win := runWindow(inst.steppers(), inst.backgrounds(), dur, capacity(dur), nil)
		count(win)
		prim := w.classLatencies(win, w.primary, dur)
		ops := float64(win.ops())
		rep.set("setup_s", medianFloat(setups), len(setups))
		rep.set("op_p50_us", median(prim)/1e3, len(prim))
		// The 95th percentile is of the whole window, dirty part included: a
		// writer that slows the scans it runs beside shows here.
		whole := win.latencies(w.primary, 0, 0)
		rep.set("op_p95_us", percentile(whole, 0.95)/1e3, len(whole))
		rep.set("ops_per_s", ops/win.dur.Seconds(), win.ops())
		wr := w.classLatencies(win, w.write, dur)
		rep.set("write_p50_us", median(wr)/1e3, len(wr))
		sec := w.classLatencies(win, w.second, dur)
		rep.set("second_p50_us", median(sec)/1e3, len(sec))
		rep.set("allocs_per_op", float64(win.mallocs)/ops, win.ops())
		rep.set("alloc_bytes_per_op", float64(win.allocBytes)/ops, win.ops())
		rep.set("heap_bytes_per_row", heapPerRow, int(heapRows))
		if lk := b.shutdown(); lk.any() {
			fail("leaked after close: %+v", lk)
		}
	} else {
		tracedRun(w, inst, cfg, rep, dur, capacity, count, fail)
	}

	att, failed := inst.verify()
	out.Attempted += att
	out.Failed += failed
	if out.Failed > 0 {
		fail("%d of %d operations or checks failed", out.Failed, out.Attempted)
	}
	for _, name := range rep.unknown {
		fail("metric %s is not declared in BENCHMARK.json", name)
	}
	out.Metrics, out.measured = rep.values, rep.measured
	return out, nil
}

// retire shuts down an instance that was set up only to be timed, and
// reports what its database held: the live heap with it, after the clients
// have gone, minus the live heap once it is let go, per live row. The
// instance itself stays referenced throughout, so the harness's own
// schedules, oracles and client caches are in both readings and cancel out.
// The database is as set-up left it: the same rows for the same seed, which
// a window's worth of inserts would not be.
func retire(inst instance) (heapPerRow float64, rows int64) {
	b := inst.core()
	rows = liveRows(b.db)
	b.shutdown()
	with := heapInUse()
	inst.cleanup()
	b.db, b.srv = nil, nil
	without := heapInUse()
	runtime.KeepAlive(inst)
	return (float64(with) - float64(without)) / float64(rows), rows
}

// tracedRun is the second pass: a short untraced window for reference, the
// same load with spans around every client call, then step-by-step replays
// of sampled operations through each layer's public functions.
func tracedRun(w *workloadDef, inst instance, cfg *config, rep *report, dur time.Duration,
	capacity func(time.Duration) int, count func(*window), fail func(string, ...any)) {
	b := inst.core()
	refDur, loadDur := dur*3/10, dur*3/10
	// The span logs exist before the reference window opens: a workload
	// that allocates its live heap several times over per op (co_checkout)
	// runs as fast as the collector lets it, and the collector's pace
	// follows the live heap, the harness's share included.
	epoch := time.Now()
	// A client traces one op in every `every`, so that a fast workload's
	// spans fit the log; a slow one traces every op.
	every := int(b.rate*loadDur.Seconds()/20000) + 1
	var tracers []*tracer
	for range inst.steppers() {
		tracers = append(tracers, newTracer(epoch, 1<<17, every))
	}
	replay := newTracer(epoch, 1<<17, 1)
	ref := runWindow(inst.steppers(), nil, refDur, capacity(refDur), nil)
	count(ref)
	before := b.snapshot()
	win := runWindow(inst.steppers(), inst.backgrounds(), loadDur, capacity(loadDur), tracers)
	count(win)
	after := b.snapshot()
	ops := float64(win.ops())

	prim := w.classLatencies(win, w.primary, loadDur)
	rep.set("client.op_samples", float64(len(prim)), len(prim))
	rep.set("client.op_p50_us", median(prim)/1e3, len(prim))
	pct, tailNs := tail(prim)
	rep.set("client.op_tail_pct", pct, len(prim))
	rep.set("client.op_tail_us", tailNs/1e3, len(prim))
	for ci, name := range w.classes {
		l := w.classLatencies(win, ci, loadDur)
		rep.set("client."+name+"_p50_us", median(l)/1e3, len(l))
	}
	if w.quiet > 0 {
		dirty := win.latencies(w.primary, w.quietEnd(loadDur), loadDur)
		rep.set("client.dirty_op_p50_us", median(dirty)/1e3, len(dirty))
	}
	refP50 := median(ref.latencies(w.primary, 0, 0))
	rep.set("client.trace_overhead_frac", ratio(median(prim)-refP50, refP50), len(prim))
	noopNs, noopAllocs := measureNoop()
	rep.set("client.noop_ns", noopNs, 1)
	rep.set("client.noop_allocs", noopAllocs, 1)
	rep.set("client.calib_ns", calibrate(), 5)

	d := func(name string) float64 { return after[name] - before[name] }
	rep.set("wire.bytes_out_per_op", d("xnf_bytes_out_total")/ops, win.ops())
	rep.set("wire.bytes_in_per_op", d("xnf_bytes_in_total")/ops, win.ops())
	rep.set("wire.frames_per_op", (d("xnf_frames_in_total")+d("xnf_frames_out_total"))/ops, win.ops())
	rep.set("wire.roundtrips_per_op", d("round_trips")/ops, win.ops())
	rep.set("wire.bytes_per_tuple", ratio(d("xnf_bytes_out_total"), d("tuples")), int(d("tuples")))
	rep.set("wire.errors", d("xnf_wire_errors_total"), win.ops())
	lookups := d("xnf_plan_cache_hits_total") + d("xnf_plan_cache_misses_total")
	rep.set("engine.plan_cache_hit_ratio", ratio(d("xnf_plan_cache_hits_total"), lookups), int(lookups))
	rep.set("engine.compiles_per_op", d("xnf_compiles_total")/ops, win.ops())
	coLookups := d("co_plan_hits") + d("co_plan_compiles")
	rep.set("engine.co_plan_cache_hit_ratio", ratio(d("co_plan_hits"), coLookups), int(coLookups))
	commits, fsyncs := d("xnf_wal_commits_total"), d("xnf_wal_fsyncs_total")
	rep.set("wal.fsyncs_per_commit", ratio(fsyncs, commits), int(commits))
	rep.set("wal.group_mean", ratio(d("xnf_wal_group_commit_sum_total"), fsyncs), int(fsyncs))
	rep.set("wal.group_max", float64(b.db.WALStats().MaxGroup), int(fsyncs))
	rep.set("wal.records_per_commit", ratio(d("xnf_wal_records_total"), commits), int(commits))
	rep.set("wal.bytes_per_commit", ratio(d("xnf_wal_bytes_total"), commits), int(commits))
	rep.set("vexec.pool_workers_per_op", d("pool_granted")/ops, win.ops())
	rep.set("vexec.pool_fallbacks_per_op", d("xnf_pool_fallbacks_total")/ops, win.ops())

	lc := &layerCtx{cfg: cfg, rep: rep, sp: replay, budget: dur - refDur - loadDur, win: win, fail: fail}
	inst.layers(lc)

	// The client's round trip minus the same operation run in process is
	// what the wire (framing, TCP loopback, encode and decode) costs.
	rep.set("wire.overhead_ns", median(prim)-lc.inProcessNs, len(prim))

	lk := b.shutdown()
	rep.set("metrics.leaked_sessions", float64(lk.sessions), 1)
	rep.set("metrics.leaked_cursors", float64(lk.cursors), 1)
	rep.set("metrics.leaked_statements", float64(lk.statements), 1)
	rep.set("resource.mem_used_after", float64(lk.memUsed), 1)
	if lk.any() {
		fail("leaked after close: %+v", lk)
	}
	all := append(tracers, replay)
	if path, err := writeTrace(cfg.outDir, w.name, cfg.seed, all); err != nil {
		fail("writing trace: %v", err)
	} else {
		fmt.Printf("# trace written to %s\n", path)
	}
}

// setExecCounters turns the execution counters summed over ops in-process
// runs of a workload's read statements into the per-op counter metrics.
func setExecCounters(rep *report, c exec.Counters, ops int) {
	n := float64(ops)
	rep.set("exec.rows_scanned_per_op", float64(c.RowsScanned)/n, ops)
	rep.set("exec.index_lookups_per_op", float64(c.IndexLookups)/n, ops)
	rep.set("exec.hash_builds_per_op", float64(c.HashBuilds)/n, ops)
	rep.set("exec.spool_material_per_op", float64(c.SpoolMaterial)/n, ops)
	rep.set("vexec.encoded_cmp_rows_per_op", float64(c.EncodedCmpRows)/n, ops)
	rep.set("vexec.encoded_hash_rows_per_op", float64(c.EncodedHashRows)/n, ops)
	rep.set("vexec.mem_reserved_bytes_per_op", float64(c.MemReserved)/n, ops)
	rep.set("colstore.segments_scanned_per_op", float64(c.SegmentsScanned)/n, ops)
	rep.set("colstore.prune_ratio", ratio(float64(c.SegmentsPruned), float64(c.SegmentsPruned+c.SegmentsScanned)), ops)
}

// addCounters sums the counters the per-op metrics use.
func addCounters(a *exec.Counters, b exec.Counters) {
	a.RowsScanned += b.RowsScanned
	a.IndexLookups += b.IndexLookups
	a.HashBuilds += b.HashBuilds
	a.SpoolMaterial += b.SpoolMaterial
	a.EncodedCmpRows += b.EncodedCmpRows
	a.EncodedHashRows += b.EncodedHashRows
	a.MemReserved += b.MemReserved
	a.SegmentsScanned += b.SegmentsScanned
	a.SegmentsPruned += b.SegmentsPruned
}

// tableRows counts the live rows of every table.
func tableRows(db *engine.Database) map[string]int64 {
	rows := make(map[string]int64)
	for _, t := range db.Catalog().Tables() {
		if td, err := db.Store().Table(t.Name); err == nil {
			rows[t.Name] = td.RowCount()
		}
	}
	return rows
}

func liveRows(db *engine.Database) int64 {
	var n int64
	for _, r := range tableRows(db) {
		n += r
	}
	return n
}

// heapInUse is the live heap after two collections (the second frees what
// the first one's finalizers released).
func heapInUse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// scratchDir makes a fresh directory under cfg.tmpDir.
func scratchDir(cfg *config, pattern string) (string, error) {
	if err := os.MkdirAll(cfg.tmpDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(cfg.tmpDir, pattern)
}

// dirBytes sums the sizes of the files matching pattern in dir.
func dirBytes(dir, pattern string) int64 {
	names, _ := filepath.Glob(filepath.Join(dir, pattern))
	var n int64
	for _, name := range names {
		if info, err := os.Stat(name); err == nil {
			n += info.Size()
		}
	}
	return n
}
