package main

import (
	"fmt"
	"math/rand"
	"time"

	"xnf/internal/enc"
	"xnf/internal/engine"
	"xnf/internal/exec"
	"xnf/internal/storage"
	"xnf/internal/types"
	"xnf/internal/wire"
)

// analytic_scan: analytic statements over the column store. One reader
// cycles four prepared statements; in the last quarter of the window a
// second client updates single rows on a fixed schedule (open loop), so the
// same scans meet segments whose cached views and encodings were dropped.
const (
	anScanAgg = iota
	anPruneScan
	anDictFilter
	anJoinAgg
	anTrickle
)

const (
	anScanAggSQL    = "SELECT grp, COUNT(*), SUM(v2), SUM(val) FROM TY WHERE v2 > 250 GROUP BY grp"
	anPruneScanSQL  = "SELECT COUNT(*), SUM(v2) FROM TY WHERE id >= ?"
	anDictFilterSQL = "SELECT grp, COUNT(*), SUM(v2) FROM TY WHERE tag = ? GROUP BY grp"
	anJoinAggSQL    = "SELECT c.region, COUNT(*), SUM(o.amount) FROM ORD o, CUST c WHERE o.cust = c.ckey AND o.status < 3 AND c.region < 20 GROUP BY c.region"
	anTrickleSQL    = "UPDATE TY SET note = ? WHERE id = ?"

	anGroups = 97
	anTags   = 16
	// anTrickleHz is the writer's fixed rate. An UPDATE scans its whole
	// table today (~0.25 µs a row), so ten a second keep one core about half
	// busy at the documented size; the rate stays put when that changes.
	anTrickleHz = 10
	segmentRows = 4096
)

var analyticScan = &workloadDef{
	name:    "analytic_scan",
	classes: []string{"scan_agg", "prune_scan", "dict_filter", "join_agg", "trickle_update"},
	primary: anScanAgg, write: anTrickle, second: anDictFilter,
	quiet: 0.75,
	flush: inMemory,
	setup: setupAnalytic,
}

// groups is an oracle for a grouped aggregate: the expected aggregates per
// group key, computed by the harness from the rows it generated. keyed is
// false for an ungrouped statement, whose one row has no key column.
type groups struct {
	keyed bool
	want  map[int64][3]float64
	cols  int // aggregate columns per row
}

func newGroups(keyed bool, cols int) *groups {
	return &groups{keyed: keyed, cols: cols, want: make(map[int64][3]float64)}
}

func (g *groups) add(key int64, vals ...float64) {
	w := g.want[key]
	for i, v := range vals {
		w[i] += v
	}
	g.want[key] = w
}

// check compares a result with the oracle without allocating.
func (g *groups) check(rows []types.Row) bool {
	if len(rows) != len(g.want) {
		return false
	}
	for _, row := range rows {
		key, off := int64(0), 0
		if g.keyed {
			key, off = row[0].Int(), 1
		}
		w, ok := g.want[key]
		if !ok || len(row) != off+g.cols {
			return false
		}
		for i := 0; i < g.cols; i++ {
			if row[off+i].Float() != w[i] {
				return false
			}
		}
	}
	return true
}

type anData struct {
	rows, orders, custs  int
	scanAgg, prune, join *groups
	dict                 [anTags]*groups
	tagArgs              [anTags][]types.Value
	pruneArg             []types.Value
	// tags and v2 are the first segment's worth of two columns, for the
	// codec measurements.
	tags []string
	v2   []int64
}

// loadAnalytic fills TY, ORD and CUST from the seed and computes every
// statement's expected result on the way. Sums stay exact: val and amount
// are multiples of 1/4.
func loadAnalytic(db *engine.Database, cfg *config) (*anData, error) {
	d := &anData{
		rows: cfg.scaled(200000, 2*segmentRows), orders: cfg.scaled(100000, 2000), custs: cfg.scaled(10000, 200),
		scanAgg: newGroups(true, 3), prune: newGroups(false, 2), join: newGroups(true, 2),
	}
	if err := db.ExecScript(`
CREATE TABLE TY (id INT NOT NULL, grp INT, v2 INT, val FLOAT, tag VARCHAR, note INT, PRIMARY KEY (id));
CREATE TABLE CUST (id INT NOT NULL, ckey INT, region INT, PRIMARY KEY (id));
CREATE TABLE ORD (id INT NOT NULL, cust INT, status INT, amount FLOAT, PRIMARY KEY (id));
`); err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(cfg.seed))
	tags := make([]types.Value, anTags)
	for t := range tags {
		tags[t] = types.NewString(fmt.Sprintf("tag%02d", t))
		d.tagArgs[t] = []types.Value{tags[t]}
		d.dict[t] = newGroups(true, 2)
	}
	pruneFrom := int64(d.rows) * 95 / 100
	d.pruneArg = []types.Value{types.NewInt(pruneFrom)}
	d.prune.add(0) // COUNT(*) over nothing is still one row
	ty, err := db.Store().Table("TY")
	if err != nil {
		return nil, err
	}
	for i := 0; i < d.rows; i++ {
		grp, v2, val, tag := int64(i%anGroups), int64(r.Intn(1000)), float64(r.Intn(4000))/4, r.Intn(anTags)
		if _, err := ty.Insert(types.Row{
			types.NewInt(int64(i)), types.NewInt(grp), types.NewInt(v2), types.NewFloat(val), tags[tag], types.NewInt(0),
		}); err != nil {
			return nil, err
		}
		if v2 > 250 {
			d.scanAgg.add(grp, 1, float64(v2), val)
		}
		if int64(i) >= pruneFrom {
			d.prune.add(0, 1, float64(v2))
		}
		d.dict[tag].add(grp, 1, float64(v2))
		if i < segmentRows {
			d.tags = append(d.tags, tags[tag].S)
			d.v2 = append(d.v2, v2)
		}
	}
	cust, err := db.Store().Table("CUST")
	if err != nil {
		return nil, err
	}
	region := make([]int64, d.custs)
	for i := range region {
		region[i] = int64(r.Intn(50))
		if _, err := cust.Insert(types.Row{types.NewInt(int64(i)), types.NewInt(int64(i)), types.NewInt(region[i])}); err != nil {
			return nil, err
		}
	}
	ord, err := db.Store().Table("ORD")
	if err != nil {
		return nil, err
	}
	for i := 0; i < d.orders; i++ {
		c, status, amount := r.Intn(d.custs), int64(r.Intn(10)), float64(r.Intn(2000))/4
		if _, err := ord.Insert(types.Row{types.NewInt(int64(i)), types.NewInt(int64(c)), types.NewInt(status), types.NewFloat(amount)}); err != nil {
			return nil, err
		}
		if status < 3 && region[c] < 20 {
			d.join.add(region[c], 1, amount)
		}
	}
	for _, t := range []string{"TY", "CUST", "ORD"} {
		if _, err := db.Exec("ALTER TABLE " + t + " SET STORAGE COLUMN"); err != nil {
			return nil, err
		}
	}
	// ANALYZE builds the zone maps and encodes full segments (dictionary
	// strings, packed ints).
	return d, db.Analyze()
}

type anReader struct {
	data                               *anData
	scanAgg, prune, dictFilter, joinAg *wire.ClientStmt
}

// anCycle is the reader's schedule. The primary statement is three ops in
// eight, so that its 95th percentile has some fifty samples beyond it; the
// join, the longest statement, is one in eight.
var anCycle = [8]int{anScanAgg, anPruneScan, anDictFilter, anScanAgg, anJoinAgg, anPruneScan, anDictFilter, anScanAgg}

func (c *anReader) step(i int, sp *tracer) (int, int64, bool) {
	class := anCycle[i%len(anCycle)]
	var st *wire.ClientStmt
	var args []types.Value
	var want *groups
	switch class {
	case anScanAgg:
		st, want = c.scanAgg, c.data.scanAgg
	case anPruneScan:
		st, args, want = c.prune, c.data.pruneArg, c.data.prune
	case anDictFilter:
		t := (i / 4) % anTags // the cycle has a dict_filter in each half
		st, args, want = c.dictFilter, c.data.tagArgs[t], c.data.dict[t]
	default:
		st, want = c.joinAg, c.data.join
	}
	var root int32 = -1
	if sp.sampled(i) {
		root = sp.root("op." + analyticScan.classes[class])
	}
	id := sp.child("wire.ClientStmt.Query", root)
	t0 := time.Now()
	rows, err := st.Query(args...)
	ns := int64(time.Since(t0))
	sp.close(id)
	sp.close(root)
	return class, ns, err == nil && want.check(rows)
}

type anInstance struct {
	base
	data   *anData
	reader *anReader
	update *wire.ClientStmt
	seed   int64
	// lateNs is how late, in total, the writer sent its updates in the last
	// window, over sent updates.
	lateNs int64
	sent   int
}

func setupAnalytic(cfg *config) (instance, error) {
	db := engine.Open()
	data, err := loadAnalytic(db, cfg)
	if err != nil {
		return nil, err
	}
	in := &anInstance{data: data, seed: cfg.seed}
	if err := in.serve(db); err != nil {
		return nil, err
	}
	// One reader and one writer, whatever the core count: the reader is
	// alone so that morsel parallelism can take the second core.
	if err := in.dial(2); err != nil {
		return nil, err
	}
	rd := &anReader{data: data}
	for _, p := range []struct {
		st  **wire.ClientStmt
		sql string
	}{{&rd.scanAgg, anScanAggSQL}, {&rd.prune, anPruneScanSQL}, {&rd.dictFilter, anDictFilterSQL}, {&rd.joinAg, anJoinAggSQL}} {
		if *p.st, err = in.conns[0].Prepare(p.sql); err != nil {
			return nil, err
		}
	}
	in.reader = rd
	if in.update, err = in.conns[1].Prepare(anTrickleSQL); err != nil {
		return nil, err
	}
	in.rate, err = warmUp(in.steppers(), 4*anTags)
	return in, err
}

func (in *anInstance) steppers() []stepper { return []stepper{in.reader} }

// backgrounds is the writer: single-row updates of note, a column no query
// reads, due every 1/anTrickleHz seconds once the quiet part is over. It is
// open loop: latency counts from when an update was due, so a stall delays
// the updates behind it and shows.
func (in *anInstance) backgrounds() []background {
	return []background{func(start time.Time, dur time.Duration, log *samples) {
		r := rand.New(rand.NewSource(in.seed + 7))
		in.lateNs, in.sent = 0, 0
		interval := time.Second / anTrickleHz
		segments := (in.data.rows + segmentRows - 1) / segmentRows
		for k := 0; ; k++ {
			due := start.Add(analyticScan.quietEnd(dur) + time.Duration(k)*interval)
			if due.Sub(start) >= dur {
				return
			}
			time.Sleep(time.Until(due))
			in.lateNs += int64(time.Since(due))
			in.sent++
			// Segment after segment, a random row of each: how many segments
			// are dirty at the end does not depend on the draw.
			id := (k%segments)*segmentRows + r.Intn(segmentRows)
			n, err := in.update.Exec(types.NewInt(int64(k+1)), types.NewInt(int64(min(id, in.data.rows-1))))
			done := time.Since(start)
			if done >= dur {
				return
			}
			log.add(anTrickle, int64(time.Since(due)), int64(done), err == nil && n == 1)
		}
	}}
}

// readStatements runs the four read statements once in process and checks
// each against its oracle; it returns their summed execution counters.
func (in *anInstance) readStatements() (exec.Counters, int, error) {
	var sum exec.Counters
	d := in.data
	for _, q := range []struct {
		sql  string
		args []types.Value
		want *groups
	}{
		{anScanAggSQL, nil, d.scanAgg}, {anPruneScanSQL, d.pruneArg, d.prune},
		{anDictFilterSQL, d.tagArgs[3], d.dict[3]}, {anJoinAggSQL, nil, d.join},
	} {
		res, err := in.db.Query(q.sql, q.args...)
		if err != nil {
			return sum, 4, err
		}
		if !q.want.check(res.Rows) {
			return sum, 4, fmt.Errorf("result of %q differs from the oracle", q.sql)
		}
		addCounters(&sum, res.Counters)
	}
	return sum, 4, nil
}

func (in *anInstance) verify() (attempted, failed int) {
	if _, n, err := in.readStatements(); err != nil {
		return n, 1
	}
	return 4, 0
}

func (in *anInstance) cleanup() {}

func (in *anInstance) layers(lc *layerCtx) {
	db, rep, d := in.db, lc.rep, in.data
	rep.set("client.writer_late_ms", ratio(float64(in.lateNs), float64(in.sent))/1e6, in.sent)

	// The column store as the window left it: segments the writer touched
	// lost their encodings and their cached views.
	reg := db.Registry()
	gauge := func(name string) float64 { v, _ := reg.Value(name); return float64(v) }
	ty, err := db.Store().Table("TY")
	if err != nil {
		lc.fail("analytic_scan: %v", err)
		return
	}
	rep.set("colstore.resident_bytes_per_row", gauge("xnf_colstore_bytes_resident")/float64(liveRows(db)), int(liveRows(db)))
	rep.set("colstore.dict_columns", gauge("xnf_colstore_dict_columns"), ty.Segments())
	rep.set("colstore.pack_columns", gauge("xnf_colstore_pack_columns"), ty.Segments())
	rep.set("colstore.hollow_segments", float64(ty.HollowSegments()), ty.Segments())

	n, _, err := lc.replaySelect(db, selectReplay{
		class: "scan_agg", texts: []string{anScanAggSQL}, prepared: anScanAggSQL,
		args: func(int) []types.Value { return nil },
	}, lc.slice(4))
	if err != nil {
		lc.fail("analytic_scan: replay %d: %v", n, err)
		return
	}
	lc.setCompileLayers(summarise([]*tracer{lc.sp}))
	lc.inProcessNs = rep.get("engine.stmt_query_ns")
	if c, ops, err := in.readStatements(); err != nil {
		lc.fail("analytic_scan: %v", err)
	} else {
		setExecCounters(rep, c, ops)
	}
	stmt, err := db.Prepare(anScanAggSQL)
	if err == nil {
		rep.set("engine.stmt_query_allocs", allocsPerRun(20, func() { stmt.Query() }), 20)
	}

	// The same scan with morsel parallelism off, and the join's drain.
	seqOpts := db.OptOptions
	seqOpts.ParallelScan = false
	seq, err := compileSelect(nil, -1, db, anScanAggSQL, seqOpts)
	par, err2 := compileSelect(nil, -1, db, anScanAggSQL, db.OptOptions)
	join, err3 := compileSelect(nil, -1, db, anJoinAggSQL, db.OptOptions)
	if err != nil || err2 != nil || err3 != nil {
		lc.fail("analytic_scan: compiling replay plans: %v %v %v", err, err2, err3)
		return
	}
	drain := func(p exec.Plan) []int64 {
		return timeRuns(lc.slice(10), 15, maxReplays, func() { openDrain(db, exec.ClonePlan(p), nil) })
	}
	seqNs, parNs, joinNs := drain(seq), drain(par), drain(join)
	rep.set("vexec.scan_agg_seq_ns", median(seqNs), len(seqNs))
	rep.set("vexec.parallel_speedup", ratio(median(seqNs), median(parNs)), len(parNs))
	rep.set("vexec.join_open_drain_ns", median(joinNs), len(joinNs))

	// ANALYZE re-encodes what the writer unencoded; then the snapshot a scan
	// takes of TY, with every view cached and after one update per segment.
	t0 := time.Now()
	if err := db.Analyze(); err != nil {
		lc.fail("analytic_scan: ANALYZE: %v", err)
		return
	}
	rep.set("colstore.maintain_ms", float64(time.Since(t0))/1e6, 1)
	views := func() { ty.TypedColumnViews(nil) }
	views()
	clean := timeRuns(lc.slice(20), 15, maxReplays, views)
	rep.set("colstore.typed_views_ns", median(clean), len(clean))
	var dirty []int64
	for round := 0; round < 5; round++ {
		for slot := 0; slot < d.rows; slot += segmentRows {
			rid := storage.RID(slot + round)
			row, ok := ty.Get(rid)
			if !ok {
				continue
			}
			row = row.Clone()
			row[5] = types.NewInt(int64(1000 + round))
			if _, err := ty.Update(rid, row); err != nil {
				lc.fail("analytic_scan: dirtying segment: %v", err)
				return
			}
		}
		t0 := time.Now()
		views()
		dirty = append(dirty, int64(time.Since(t0)))
	}
	sortInt64(dirty)
	rep.set("colstore.typed_views_dirty_ns", median(dirty), len(dirty))
	if err := db.Analyze(); err != nil {
		lc.fail("analytic_scan: ANALYZE: %v", err)
	}

	// The codecs alone, on one segment's worth of tag and v2.
	var dict *enc.StringDict
	var pack *enc.IntPack
	encNs := timeRuns(lc.slice(20), 15, maxReplays, func() {
		dict = enc.DictStrings(d.tags, nil)
		pack = enc.PackInts(d.v2, nil)
	})
	if dict == nil || pack == nil {
		lc.fail("analytic_scan: a %d-row segment of tag and v2 did not encode", len(d.tags))
		return
	}
	var sink int64
	decNs := timeRuns(lc.slice(20), 15, maxReplays, func() {
		for i := 0; i < dict.Len(); i++ {
			sink += int64(len(dict.At(i))) + pack.At(i)
		}
	})
	calibSink += uint64(sink)
	values := float64(2 * len(d.tags))
	rep.set("enc.encode_ns_per_row", median(encNs)/values, len(encNs))
	rep.set("enc.decode_ns_per_row", median(decNs)/values, len(decNs))
	rep.set("enc.bytes_per_value", float64(dict.Bytes()+pack.Bytes())/values, int(values))

	// What the trickle UPDATE costs below the wire.
	upd, err := db.Prepare(anTrickleSQL)
	if err == nil {
		i := 0
		u := timeRuns(lc.slice(10), 5, maxReplays, func() {
			upd.Exec(types.NewInt(int64(i)), types.NewInt(int64(i*segmentRows%d.rows)))
			i++
		})
		rep.set("storage.apply_ns", median(u), len(u))
	}
}
