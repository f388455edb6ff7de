package main

import (
	"fmt"
	"math/rand"
	"time"

	"xnf/internal/bench"
	"xnf/internal/cocache"
	"xnf/internal/core"
	"xnf/internal/engine"
	"xnf/internal/exec"
	"xnf/internal/semantics"
	"xnf/internal/types"
	"xnf/internal/wire"
	"xnf/internal/workload"
)

// co_checkout: the paper's unit of work. An application checks a composite
// object out over the wire, navigates it in the cache and checks changes
// back in. Of every ten ops four ship the CO whole, one ships it in blocks
// of 100 tuples (the paper's second shipping mode) and five are check-ins:
// one check-in per checkout. A check-in is a fifteenth of a checkout's time,
// and its latency depends on what the other client is doing at that moment,
// so its median needs a thousand samples to settle.
const (
	coCheckoutWhole = iota
	coCheckin
	coCheckoutBlocks
)

const (
	coView       = "deps_ARC"
	coBlockSize  = 100
	coCheckinSet = 5 // xemp objects changed per check-in
)

var coCheckout = &workloadDef{
	name:    "co_checkout",
	classes: []string{"checkout", "checkin", "checkout_blocks"},
	primary: coCheckoutWhole, write: coCheckin, second: coCheckoutBlocks,
	flush: inMemory,
	setup: setupCO,
}

// coShape is what every checkout of one database must look like: the
// oracle taken at set-up.
type coShape struct {
	components  map[string]int // component → objects
	connections map[string]int // relationship → connections
	tuples      int            // all component objects
}

func shapeOf(cache *cocache.Cache) coShape {
	s := coShape{components: map[string]int{}, connections: map[string]int{}}
	for _, c := range cache.Components() {
		s.components[c.Name] = c.Len()
		s.tuples += c.Len()
	}
	for _, r := range cache.Relationships() {
		s.connections[r.Name] = r.Connections()
	}
	return s
}

func (s coShape) equal(o coShape) bool {
	if s.tuples != o.tuples || len(s.components) != len(o.components) || len(s.connections) != len(o.connections) {
		return false
	}
	for k, v := range s.components {
		if o.components[k] != v {
			return false
		}
	}
	for k, v := range s.connections {
		if o.connections[k] != v {
			return false
		}
	}
	return true
}

// walk follows every relationship once from each parent object and returns
// the connections seen.
func walk(cache *cocache.Cache) int {
	n := 0
	for _, r := range cache.Relationships() {
		parent, _ := cache.Component(r.Parent)
		for _, o := range parent.Objects() {
			n += len(o.Children(r.Name))
		}
	}
	return n
}

// endpointsExist checks that both ends of every connection are objects of
// the cache's own components.
func endpointsExist(cache *cocache.Cache) bool {
	for _, r := range cache.Relationships() {
		parent, ok := cache.Component(r.Parent)
		if !ok {
			return false
		}
		for _, o := range parent.Objects() {
			for _, k := range o.Children(r.Name) {
				comp := k.Component()
				if got, ok := comp.Lookup(keyOf(k)...); !ok || got != k {
					return false
				}
			}
		}
	}
	return true
}

func keyOf(o *cocache.Object) []types.Value {
	comp := o.Component()
	key := make([]types.Value, len(comp.KeyCols))
	for i, c := range comp.KeyCols {
		key[i] = o.Row[c]
	}
	return key
}

type coClient struct {
	conn  *wire.Client
	want  coShape
	conns int // connections a walk must see
	cache *cocache.Cache
	r     *rand.Rand
	// sched is the class of each op. Every client draws its own order, so
	// that two clients do not check in in step.
	sched []uint8
	// pending is the statements the last check-in shipped.
	pending int
}

func (c *coClient) step(i int, sp *tracer) (int, int64, bool) {
	switch c.sched[i%len(c.sched)] {
	case coCheckin:
		return c.checkin(i, sp)
	case coCheckoutBlocks:
		return c.checkout(i, sp, coCheckoutBlocks, wire.ShipBlocks(coBlockSize))
	default:
		return c.checkout(i, sp, coCheckoutWhole, wire.ShipWhole())
	}
}

// checkout is QueryCO taken apart at its public seams — FetchCO, then
// cocache.Build — followed by one walk over every relationship.
func (c *coClient) checkout(i int, sp *tracer, class int, mode wire.ShipMode) (int, int64, bool) {
	var root int32 = -1
	if sp.sampled(i) {
		root = sp.root("op." + coCheckout.classes[class])
	}
	t0 := time.Now()
	id := sp.child("wire.Client.FetchCO", root)
	res, err := c.conn.FetchCO(coView, mode)
	sp.close(id)
	var cache *cocache.Cache
	seen := 0
	if err == nil {
		id = sp.child("cocache.Build", root)
		cache, err = cocache.Build(res)
		sp.close(id)
	}
	if err == nil {
		id = sp.child("cocache.walk", root)
		seen = walk(cache)
		sp.close(id)
	}
	ns := int64(time.Since(t0))
	sp.close(root)
	if err != nil {
		return class, ns, false
	}
	c.cache = cache
	ok := seen == c.conns && shapeOf(cache).equal(c.want)
	if ok && i%8 == 0 {
		ok = endpointsExist(cache)
	}
	return class, ns, ok
}

// checkin changes the salary of five cached employees and ships the
// changes back through Client.Exec, one statement per object.
func (c *coClient) checkin(i int, sp *tracer) (int, int64, bool) {
	emps, _ := c.cache.Component("xemp")
	objs := emps.Objects()
	var picked [coCheckinSet]*cocache.Object
	var sal [coCheckinSet]types.Value
	for k := range picked {
		picked[k] = objs[c.r.Intn(len(objs))]
		sal[k] = types.NewFloat(float64(30000 + c.r.Intn(70000)))
	}
	var root int32 = -1
	if sp.sampled(i) {
		root = sp.root("op.checkin")
	}
	ok := true
	t0 := time.Now()
	id := sp.child("cocache.Cache.Set", root)
	for k, o := range picked {
		if err := c.cache.Set(o, "sal", sal[k]); err != nil {
			ok = false
		}
	}
	sp.close(id)
	c.pending = len(c.cache.Pending())
	id = sp.child("cocache.Cache.SaveChanges", root)
	err := c.cache.SaveChanges(func(sql string) error {
		x := sp.child("wire.Client.Exec", id)
		n, err := c.conn.Exec(sql)
		sp.close(x)
		if err == nil && n != 1 {
			err = fmt.Errorf("check-in statement affected %d rows", n)
		}
		return err
	})
	sp.close(id)
	ns := int64(time.Since(t0))
	sp.close(root)
	return coCheckin, ns, ok && err == nil
}

type coInstance struct {
	base
	clients []*coClient
	want    coShape
	table1  *core.Table1
}

func setupCO(cfg *config) (instance, error) {
	db := engine.Open()
	if err := workload.LoadOrg(db, orgParams(cfg)); err != nil {
		return nil, err
	}
	in := &coInstance{}
	if err := in.serve(db); err != nil {
		return nil, err
	}
	if err := in.dial(cfg.clients); err != nil {
		return nil, err
	}
	// Oracle: the fragmented, query-per-instance extraction of Sect. 1 must
	// fetch exactly the tuples one set-oriented checkout ships.
	fragTuples, _, err := bench.FragmentedExtract(in.conns[0])
	if err != nil {
		return nil, err
	}
	first, err := in.conns[0].QueryCO(coView, wire.ShipWhole())
	if err != nil {
		return nil, err
	}
	in.want = shapeOf(first)
	if in.want.tuples != fragTuples {
		return nil, fmt.Errorf("set-oriented checkout has %d tuples, fragmented extraction %d", in.want.tuples, fragTuples)
	}
	if !endpointsExist(first) {
		return nil, fmt.Errorf("a connection of %s has an endpoint outside the cache", coView)
	}
	// Table 1 is an exact check at the documented scale and at any other:
	// the counts depend on the view, not on the data.
	if in.table1, err = table1(db); err != nil {
		return nil, err
	}
	if t := in.table1; t.SQLTotal != 23 || t.ReplicatedTotal != 16 || t.XNFTotal != 7 {
		return nil, fmt.Errorf("Table 1 totals (SQL / replicated / XNF) are %d / %d / %d, want 23 / 16 / 7", t.SQLTotal, t.ReplicatedTotal, t.XNFTotal)
	}
	for ci, conn := range in.conns {
		// Every client checks out a cache of its own: a cache has one owner,
		// and a client whose first op is a check-in writes to it.
		cache := first
		if ci > 0 {
			if cache, err = conn.QueryCO(coView, wire.ShipWhole()); err != nil {
				return nil, err
			}
		}
		r := rand.New(rand.NewSource(cfg.seed*1000 + int64(ci)))
		in.clients = append(in.clients, &coClient{
			conn: conn, want: in.want, conns: walk(first), cache: cache, r: r,
			sched: mix(r, 1000, 4, 5, 1), // checkout, checkin, checkout_blocks
		})
	}
	in.rate, err = warmUp(in.steppers(), 20)
	return in, err
}

func table1(db *engine.Database) (*core.Table1, error) {
	v, ok := db.Catalog().View(coView)
	if !ok {
		return nil, fmt.Errorf("view %s is not defined", coView)
	}
	xq, err := core.ParseViewText(v.Text)
	if err != nil {
		return nil, err
	}
	return core.AnalyzeTable1(db.Catalog(), xq, db.RewriteOptions)
}

func (in *coInstance) steppers() []stepper { return asSteppers(in.clients) }

func (in *coInstance) backgrounds() []background { return nil }

// verify checks out once more, in process, after every check-in has landed:
// salaries changed, the object's shape must not have.
func (in *coInstance) verify() (attempted, failed int) {
	res, err := in.db.ExtractCOView(coView, false)
	if err != nil {
		return 1, 1
	}
	cache, err := cocache.Build(res)
	if err != nil || !shapeOf(cache).equal(in.want) || !endpointsExist(cache) {
		return 1, 1
	}
	return 1, 0
}

func (in *coInstance) cleanup() {}

func (in *coInstance) layers(lc *layerCtx) {
	db, sp := in.db, lc.sp
	v, _ := db.Catalog().View(coView)
	var counters exec.Counters
	var tuples int
	deadline := time.Now().Add(lc.slice(2))
	for n := 0; n < maxReplays && (n < 15 || time.Now().Before(deadline)); n++ {
		root := sp.root("replay.checkout")
		id := sp.child("core.ParseViewText", root)
		xq, err := core.ParseViewText(v.Text)
		sp.close(id)
		if err == nil {
			sp.call("semantics.BuildXNF", root, func() { _, err = semantics.BuildXNF(db.Catalog(), xq) })
		}
		var compiled *core.Compiled
		if err == nil {
			sp.call("core.Compile", root, func() { compiled, err = core.Compile(db.Catalog(), xq, db.RewriteOptions) })
		}
		if err == nil {
			sp.call("core.CompileView", root, func() { _, err = core.CompileView(db.Catalog(), coView, db.RewriteOptions) })
		}
		var plans []exec.Plan
		if err == nil {
			sp.call("core.Compiled.PlanTemplates", root, func() { plans, err = compiled.PlanTemplates(db.Store(), db.OptOptions) })
		}
		if err == nil {
			sp.call("engine.CompileCOView", root, func() { _, err = db.CompileCOView(coView) })
		}
		if err == nil {
			sp.call("exec.ClonePlan", root, func() {
				for _, p := range plans {
					if p != nil {
						exec.ClonePlan(p)
					}
				}
			})
			sp.call("core.Compiled.ExecuteTemplates", root, func() { _, err = compiled.ExecuteTemplates(db.Store(), plans, false) })
		}
		var res *core.COResult
		if err == nil {
			sp.call("engine.ExtractCOView", root, func() { res, err = db.ExtractCOView(coView, false) })
		}
		var cache *cocache.Cache
		if err == nil {
			counters = res.Counters
			sp.call("cocache.Build", root, func() { cache, err = cocache.Build(res) })
		}
		if err != nil {
			lc.fail("co_checkout: replay %d: %v", n, err)
			return
		}
		sp.call("cocache.walk", root, func() { tuples = walk(cache) + in.want.tuples })
		sp.close(root)
	}
	stats := summarise([]*tracer{sp})
	set := func(metric, name string) {
		if st := stats[name]; st != nil {
			lc.rep.set(metric, st.MedianNs, st.Count)
		}
	}
	set("parser.parse_ns", "core.ParseViewText")
	set("semantics.build_ns", "semantics.BuildXNF")
	set("core.compile_view_ns", "core.CompileView")
	set("opt.compile_ns", "core.Compiled.PlanTemplates")
	set("engine.prepare_hit_ns", "engine.CompileCOView")
	set("exec.clone_ns", "exec.ClonePlan")
	set("engine.extract_ns", "engine.ExtractCOView")
	set("cocache.build_ns", "cocache.Build")
	n := stats["core.Compile"].Count
	// core.Compile is semantics plus the XNF and NF rewrites; ExecuteTemplates
	// is the clone plus the drain of every output's plan.
	lc.rep.set("rewrite.apply_ns", medianOf(stats, "core.Compile")-medianOf(stats, "semantics.BuildXNF"), n)
	lc.rep.set("vexec.open_drain_ns", medianOf(stats, "core.Compiled.ExecuteTemplates")-medianOf(stats, "exec.ClonePlan"), n)
	lc.rep.set("cocache.build_ns_per_tuple", medianOf(stats, "cocache.Build")/float64(tuples), n)
	lc.rep.set("cocache.walk_ns_per_tuple", medianOf(stats, "cocache.walk")/float64(tuples), n)
	lc.inProcessNs = medianOf(stats, "engine.ExtractCOView") + medianOf(stats, "cocache.Build") + medianOf(stats, "cocache.walk")
	setExecCounters(lc.rep, counters, 1)
	lc.rep.set("core.table1_sql_ops", float64(in.table1.SQLTotal), 1)
	lc.rep.set("core.table1_xnf_ops", float64(in.table1.XNFTotal), 1)
	lc.rep.set("core.table1_saved", float64(in.table1.ReplicatedTotal), 1)

	// A check-in below the wire: SaveChanges with an apply that runs the
	// statement in process.
	c := in.clients[0]
	emps, _ := c.cache.Component("xemp")
	objs := emps.Objects()
	i := 0
	d := timeRuns(lc.slice(8), 15, maxReplays, func() {
		for k := 0; k < coCheckinSet; k++ {
			c.cache.Set(objs[(i*coCheckinSet+k)%len(objs)], "sal", types.NewFloat(float64(50000+i)))
		}
		c.cache.SaveChanges(func(sql string) error { _, err := db.Exec(sql); return err })
		i++
	})
	lc.rep.set("cocache.save_changes_ns", median(d), len(d))
	lc.rep.set("cocache.pending_stmts_per_checkin", float64(c.pending), 1)

	// The paper's navigation claim (Sect. 5.2, >100k tuples/s): an OO1 part
	// graph shipped into a cache and traversed to depth 7.
	oo1 := workload.OO1Params{Parts: lc.cfg.scaled(20000, 500), Conns: 3, Seed: lc.cfg.seed}
	graph, _, err := bench.BuildOO1Cache(oo1)
	if err != nil {
		lc.fail("co_checkout: OO1: %v", err)
		return
	}
	visited, iter := 0, 0
	t0 := time.Now()
	for end := t0.Add(lc.slice(8)); iter < 10 || time.Now().Before(end); iter++ {
		visited += bench.RunTraversal(graph, 20, 7, lc.cfg.seed+int64(iter))
	}
	lc.rep.set("cocache.traverse_tuples_per_s", float64(visited)/time.Since(t0).Seconds(), visited)
}
