package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"xnf/internal/engine"
	"xnf/internal/types"
	"xnf/internal/wire"
	"xnf/internal/workload"
)

// oltp_point: one-row statements over the wire, where per-statement
// overhead is the whole cost. 80 % prepared lookups, 10 % prepared updates,
// 10 % ad-hoc lookups whose literal texts outnumber the plan cache.
const (
	oltpLookup = iota
	oltpUpdate
	oltpAdhoc
)

const (
	oltpLookupSQL = "SELECT * FROM EMP WHERE eno = ?"
	oltpUpdateSQL = "UPDATE EMP SET sal = ? WHERE eno = ?"
	// adhocTexts is how many distinct literal texts the ad-hoc class draws
	// from: sixteen times the 256-entry plan cache, which keys on literal
	// text (fewer only when the scaled-down EMP has fewer rows).
	adhocTexts = 4096
	schedLen   = 1 << 16
)

var oltpPoint = &workloadDef{
	name:    "oltp_point",
	classes: []string{"lookup", "update", "adhoc"},
	primary: oltpLookup, write: oltpUpdate, second: oltpAdhoc,
	flush: inMemory,
	setup: setupOLTP,
}

// orgParams is the organization database both org workloads load: 400
// departments of 10 employees and 3 projects, 200 skills, a quarter of the
// departments at ARC — about 6.5k tuples per deps_ARC.
func orgParams(cfg *config) workload.OrgParams {
	return workload.OrgParams{
		Depts: cfg.scaled(400, 8), EmpsPerDept: 10, ProjsPerDept: 3,
		Skills: cfg.scaled(200, 10), SkillsPerEmp: 3, SkillsPerProj: 2,
		ArcFraction: 0.25, Seed: cfg.seed,
	}
}

// oltpOp is one scheduled op: for the ad-hoc class key also picks the text.
type oltpOp struct {
	class uint8
	key   int32
	sal   int32
}

type oltpClient struct {
	conn           *wire.Client
	lookup, update *wire.ClientStmt
	sched          []oltpOp
	texts          []string
	args           [2]types.Value
	// lastSal is the last acknowledged salary this client wrote per eno;
	// clients write disjoint keys, so the final value is checkable.
	lastSal map[int64]float64
}

func (c *oltpClient) step(i int, sp *tracer) (int, int64, bool) {
	op := c.sched[i%len(c.sched)]
	key := int64(op.key)
	var root int32 = -1
	if sp.sampled(i) {
		root = sp.root("op." + oltpPoint.classes[op.class])
	}
	switch op.class {
	case oltpLookup:
		c.args[0] = types.NewInt(key)
		id := sp.child("wire.ClientStmt.Query", root)
		t0 := time.Now()
		rows, err := c.lookup.Query(c.args[:1]...)
		ns := int64(time.Since(t0))
		sp.close(id)
		sp.close(root)
		return oltpLookup, ns, err == nil && len(rows) == 1 && rows[0][0].I == key
	case oltpUpdate:
		c.args[0], c.args[1] = types.NewFloat(float64(op.sal)), types.NewInt(key)
		id := sp.child("wire.ClientStmt.Exec", root)
		t0 := time.Now()
		n, err := c.update.Exec(c.args[:]...)
		ns := int64(time.Since(t0))
		sp.close(id)
		sp.close(root)
		if err != nil || n != 1 {
			return oltpUpdate, ns, false
		}
		c.lastSal[key] = float64(op.sal)
		return oltpUpdate, ns, true
	default:
		id := sp.child("wire.Client.Query", root)
		t0 := time.Now()
		rows, err := c.conn.Query(c.texts[op.key-1])
		ns := int64(time.Since(t0))
		sp.close(id)
		sp.close(root)
		return oltpAdhoc, ns, err == nil && len(rows) == 1 && rows[0][0].I == key
	}
}

type oltpInstance struct {
	base
	clients []*oltpClient
	emps    int
	texts   []string
}

func setupOLTP(cfg *config) (instance, error) {
	p := orgParams(cfg)
	db := engine.Open()
	if err := workload.LoadOrg(db, p); err != nil {
		return nil, err
	}
	in := &oltpInstance{emps: p.Depts * p.EmpsPerDept}
	if err := in.serve(db); err != nil {
		return nil, err
	}
	if err := in.dial(cfg.clients); err != nil {
		return nil, err
	}
	ntexts := adhocTexts
	if in.emps < ntexts {
		ntexts = in.emps
	}
	in.texts = make([]string, ntexts)
	for i := range in.texts {
		in.texts[i] = fmt.Sprintf("SELECT * FROM EMP WHERE eno = %d", i+1)
	}
	for ci, conn := range in.conns {
		c := &oltpClient{conn: conn, texts: in.texts, lastSal: make(map[int64]float64)}
		var err error
		if c.lookup, err = conn.Prepare(oltpLookupSQL); err != nil {
			return nil, err
		}
		if c.update, err = conn.Prepare(oltpUpdateSQL); err != nil {
			return nil, err
		}
		r := rand.New(rand.NewSource(cfg.seed*1000 + int64(ci)))
		c.sched = make([]oltpOp, schedLen)
		for i, class := range mix(r, schedLen, 8, 1, 1) {
			op := oltpOp{class: class, key: int32(1 + r.Intn(in.emps))}
			switch class {
			case oltpUpdate:
				// Clients write disjoint keys: eno ≡ client (mod clients).
				op.key = int32(1 + ci + cfg.clients*r.Intn(in.emps/cfg.clients))
				op.sal = int32(30000 + r.Intn(70000))
			case oltpAdhoc:
				op.key = int32(1 + r.Intn(ntexts))
			}
			c.sched[i] = op
		}
		in.clients = append(in.clients, c)
	}
	var err error
	in.rate, err = warmUp(in.steppers(), 4000)
	return in, err
}

// mix lays out n op classes in shuffled blocks of ten: class k fills
// tenths[k] slots of every block, so the shares are exact over any run of
// blocks and only the order within a block is drawn from r. A run's per-op
// costs then do not move with the luck of the draw.
func mix(r *rand.Rand, n int, tenths ...int) []uint8 {
	var block []uint8
	for class, share := range tenths {
		for k := 0; k < share; k++ {
			block = append(block, uint8(class))
		}
	}
	out := make([]uint8, 0, n+len(block))
	for len(out) < n {
		r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out[:n]
}

// warmUp runs n ops on every client at once, unrecorded: plan caches fill,
// pooled vectors prime. It returns the rate one client reached, which sizes
// the latency logs, and fails if any warm-up op fails.
func warmUp(clients []stepper, n int) (float64, error) {
	var wg sync.WaitGroup
	bad := make([]int, len(clients))
	t0 := time.Now()
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c stepper) {
			defer wg.Done()
			// Start past the schedule's head so the window does not begin
			// by repeating exactly the warmed-up ops.
			for i := 0; i < n; i++ {
				if _, _, ok := c.step(schedLen/2+i, nil); !ok {
					bad[ci]++
				}
			}
		}(ci, c)
	}
	wg.Wait()
	for ci, b := range bad {
		if b > 0 {
			return 0, fmt.Errorf("client %d: %d of %d warm-up ops failed", ci, b, n)
		}
	}
	return float64(n) / time.Since(t0).Seconds(), nil
}

func (in *oltpInstance) steppers() []stepper { return asSteppers(in.clients) }

func (in *oltpInstance) backgrounds() []background { return nil }

// verify reads back, in process, the last acknowledged salary of every
// employee a client updated.
func (in *oltpInstance) verify() (attempted, failed int) {
	stmt, err := in.db.Prepare("SELECT sal FROM EMP WHERE eno = ?")
	if err != nil {
		return 1, 1
	}
	for _, c := range in.clients {
		for eno, sal := range c.lastSal {
			attempted++
			res, err := stmt.Query(types.NewInt(eno))
			if err != nil || len(res.Rows) != 1 || res.Rows[0][0].F != sal {
				failed++
			}
		}
	}
	return attempted, failed
}

func (in *oltpInstance) cleanup() {}

func (in *oltpInstance) layers(lc *layerCtx) {
	r := rand.New(rand.NewSource(lc.cfg.seed))
	keys := make([][]types.Value, 1024)
	for i := range keys {
		keys[i] = []types.Value{types.NewInt(int64(1 + r.Intn(in.emps)))}
	}
	replay := selectReplay{
		class: "lookup", texts: in.texts, prepared: oltpLookupSQL,
		args: func(i int) []types.Value { return keys[i%len(keys)] },
	}
	n, c, err := lc.replaySelect(in.db, replay, lc.slice(2))
	if err != nil {
		lc.fail("oltp_point: replay %d: %v", n, err)
		return
	}
	lc.setCompileLayers(summarise([]*tracer{lc.sp}))
	lc.inProcessNs = lc.rep.get("engine.stmt_query_ns")
	setExecCounters(lc.rep, c, 1)

	stmt, err := in.db.Prepare(oltpLookupSQL)
	if err == nil {
		lc.rep.set("engine.stmt_query_allocs", allocsPerRun(2000, func() { stmt.Query(keys[0]...) }), 2000)
	}

	// The plan cache as the ad-hoc class alone sees it: literal texts that
	// outnumber the cache sixteen to one.
	before := in.snapshot()
	for i := 0; i < 2000; i++ {
		in.db.Query(in.texts[r.Intn(len(in.texts))])
	}
	after := in.snapshot()
	hits := after["xnf_plan_cache_hits_total"] - before["xnf_plan_cache_hits_total"]
	misses := after["xnf_plan_cache_misses_total"] - before["xnf_plan_cache_misses_total"]
	lc.rep.set("engine.adhoc_plan_cache_hit_ratio", ratio(hits, hits+misses), 2000)

	// What a write costs below the wire: the same UPDATE in process.
	upd, err := in.db.Prepare(oltpUpdateSQL)
	if err == nil {
		i := 0
		d := timeRuns(lc.slice(4), 15, maxReplays, func() {
			eno, sal := keys[i%len(keys)][0], float64(40000+i)
			if n, err := upd.Exec(types.NewFloat(sal), eno); err == nil && n == 1 {
				// The key's owner expects this value at verification.
				in.clients[int(eno.I-1)%len(in.clients)].lastSal[eno.I] = sal
			}
			i++
		})
		lc.rep.set("storage.apply_ns", median(d), len(d))
	}
}
