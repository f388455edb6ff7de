package main

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"xnf/internal/engine"
	"xnf/internal/types"
	"xnf/internal/wal"
	"xnf/internal/wire"
)

// durable_commit: writers that need an acknowledged commit to survive a
// restart. 60 % prepared single-row INSERTs, 20 % single-row UPDATEs and
// 20 % reads of a key the client itself wrote, against a database opened
// with group commit and an fsync per commit group; one checkpoint is forced
// at the window's midpoint. Afterwards the database is abandoned without
// Close, reopened, and every acknowledged write is read back.
const (
	duCommit = iota
	duUpdate
	duReadback
)

const (
	duInsertSQL = "INSERT INTO kv VALUES (?, ?)"
	duUpdateSQL = "UPDATE kv SET v = ? WHERE k = ?"
	duReadSQL   = "SELECT v FROM kv WHERE k = ?"
	duSchema    = "CREATE TABLE kv (k INT NOT NULL, v INT, PRIMARY KEY (k)); ALTER TABLE kv SET STORAGE COLUMN"
)

// duOptions is the flush policy, stated in the output and never varied.
var duOptions = engine.DurabilityOptions{GroupCommit: true, NoSync: false, CheckpointInterval: 0}

var durableCommit = &workloadDef{
	name:    "durable_commit",
	classes: []string{"commit", "kv_update", "readback"},
	primary: duCommit, write: duUpdate, second: duReadback,
	flush: "group commit, fsync on every commit group, no background checkpoints",
	setup: setupDurable,
}

type duOp struct {
	class uint8
	pick  int64 // update, readback: which of the client's keys
	val   int64
}

type duClient struct {
	ins, upd, read *wire.ClientStmt
	sched          []duOp
	id, clients    int64
	preload        int64
	// inserted[j] is the acknowledged value of this client's j-th insert,
	// whose key is preload + id + clients*j; updated holds the last
	// acknowledged value of the preloaded keys it updated. Clients own
	// disjoint keys (k ≡ id mod clients), so both are checkable.
	inserted []int64
	updated  map[int64]int64
	args     [2]types.Value
}

func (c *duClient) insertKey(j int64) int64 { return c.preload + c.id + c.clients*j }

// ownedKey maps a pick to one of the preloaded keys this client owns.
func (c *duClient) ownedKey(pick int64) int64 {
	return c.id + c.clients*(pick%(c.preload/c.clients))
}

func (c *duClient) step(i int, sp *tracer) (int, int64, bool) {
	op := &c.sched[i%len(c.sched)]
	var root int32 = -1
	if sp.sampled(i) {
		root = sp.root("op." + durableCommit.classes[op.class])
	}
	switch op.class {
	case duCommit:
		c.args[0], c.args[1] = types.NewInt(c.insertKey(int64(len(c.inserted)))), types.NewInt(op.val)
		id := sp.child("wire.ClientStmt.Exec", root)
		t0 := time.Now()
		n, err := c.ins.Exec(c.args[:]...)
		ns := int64(time.Since(t0))
		sp.close(id)
		sp.close(root)
		if err != nil || n != 1 {
			return duCommit, ns, false
		}
		c.inserted = append(c.inserted, op.val)
		return duCommit, ns, true
	case duUpdate:
		key := c.ownedKey(op.pick)
		c.args[0], c.args[1] = types.NewInt(op.val), types.NewInt(key)
		id := sp.child("wire.ClientStmt.Exec", root)
		t0 := time.Now()
		n, err := c.upd.Exec(c.args[:]...)
		ns := int64(time.Since(t0))
		sp.close(id)
		sp.close(root)
		if err != nil || n != 1 {
			return duUpdate, ns, false
		}
		c.updated[key] = op.val
		return duUpdate, ns, true
	default:
		// Read back the newest of this client's own inserts, or, before it
		// has any, a preloaded key it owns.
		key, want := c.ownedKey(op.pick), int64(0)
		if n := int64(len(c.inserted)); n > 0 {
			j := n - 1 - op.pick%min(n, 64)
			key, want = c.insertKey(j), c.inserted[j]
		} else if v, ok := c.updated[key]; ok {
			want = v
		} else {
			want = key
		}
		c.args[0] = types.NewInt(key)
		id := sp.child("wire.ClientStmt.Query", root)
		t0 := time.Now()
		rows, err := c.read.Query(c.args[:1]...)
		ns := int64(time.Since(t0))
		sp.close(id)
		sp.close(root)
		return duReadback, ns, err == nil && len(rows) == 1 && rows[0][0].Int() == want
	}
}

type duInstance struct {
	base
	dir     string
	preload int64
	clients []*duClient
	// The forced checkpoint of the last window: when it ran, relative to the
	// window's start, and whether it failed.
	ckptFrom, ckptTo time.Duration
	ckptErr          error
	reopened         []*engine.Database
}

// preloadKV fills kv with keys 0..n-1 (v = k), a thousand rows a statement.
func preloadKV(db *engine.Database, n int64) error {
	if err := db.ExecScript(duSchema); err != nil {
		return err
	}
	var sb strings.Builder
	for i := int64(0); i < n; i += 1000 {
		sb.Reset()
		sb.WriteString("INSERT INTO kv VALUES ")
		for j := i; j < i+1000 && j < n; j++ {
			if j > i {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d)", j, j)
		}
		if _, err := db.Exec(sb.String()); err != nil {
			return err
		}
	}
	return nil
}

func setupDurable(cfg *config) (instance, error) {
	dir, err := scratchDir(cfg, "durable-")
	if err != nil {
		return nil, err
	}
	in := &duInstance{dir: dir}
	// An UPDATE scans its whole table today, so kv is preloaded with 50k
	// rows, not more: the commit class keeps thousands of samples a run.
	in.preload = int64(cfg.scaled(50000, 2000))
	db, err := engine.OpenDirOptions(dir, duOptions)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	in.db = db
	if err := preloadKV(db, in.preload); err != nil {
		in.cleanup()
		return nil, err
	}
	if err := in.serve(db); err != nil {
		in.cleanup()
		return nil, err
	}
	if err := in.dial(cfg.clients); err != nil {
		in.cleanup()
		return nil, err
	}
	for ci, conn := range in.conns {
		c := &duClient{
			id: int64(ci), clients: int64(cfg.clients), preload: in.preload,
			inserted: make([]int64, 0, 1<<12), updated: make(map[int64]int64),
		}
		for _, p := range []struct {
			st  **wire.ClientStmt
			sql string
		}{{&c.ins, duInsertSQL}, {&c.upd, duUpdateSQL}, {&c.read, duReadSQL}} {
			if *p.st, err = conn.Prepare(p.sql); err != nil {
				in.cleanup()
				return nil, err
			}
		}
		r := rand.New(rand.NewSource(cfg.seed*1000 + int64(ci)))
		c.sched = make([]duOp, schedLen)
		for i, class := range mix(r, schedLen, 6, 2, 2) {
			c.sched[i] = duOp{class: class, pick: r.Int63n(1 << 40), val: r.Int63n(1 << 40)}
		}
		in.clients = append(in.clients, c)
	}
	if in.rate, err = warmUp(in.steppers(), 200); err != nil {
		in.cleanup()
		return nil, err
	}
	return in, nil
}

func (in *duInstance) steppers() []stepper { return asSteppers(in.clients) }

// backgrounds forces the one checkpoint, at the window's midpoint: the
// background job whose foreground stall a median hides.
func (in *duInstance) backgrounds() []background {
	return []background{func(start time.Time, dur time.Duration, _ *samples) {
		time.Sleep(time.Until(start.Add(dur / 2)))
		in.ckptFrom = time.Since(start)
		in.ckptErr = in.db.Checkpoint()
		in.ckptTo = time.Since(start)
	}}
}

// reopen opens the directory again, as a restart after a crash would: the
// first database was never closed.
func (in *duInstance) reopen() (*engine.Database, time.Duration, error) {
	t0 := time.Now()
	db, err := engine.OpenDirOptions(in.dir, duOptions)
	if err != nil {
		return nil, 0, err
	}
	in.reopened = append(in.reopened, db)
	return db, time.Since(t0), nil
}

// verify abandons the database, reopens it and reads back every write a
// client saw acknowledged: each insert, and the last value of each update.
func (in *duInstance) verify() (attempted, failed int) {
	if in.ckptErr != nil {
		return 1, 1
	}
	db, err := engine.OpenDirOptions(in.dir, duOptions)
	if err != nil {
		return 1, 1
	}
	// Closed here, not at cleanup: a second copy of the database must not be
	// alive when the first one's heap is measured.
	defer db.Close()
	stmt, err := db.Prepare(duReadSQL)
	if err != nil {
		return 1, 1
	}
	check := func(key, want int64) {
		attempted++
		res, err := stmt.Query(types.NewInt(key))
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int() != want {
			failed++
		}
	}
	for _, c := range in.clients {
		for j, v := range c.inserted {
			check(c.insertKey(int64(j)), v)
		}
		for k, v := range c.updated {
			check(k, v)
		}
	}
	return attempted, failed
}

func (in *duInstance) cleanup() {
	for _, db := range append(in.reopened, in.db) {
		if db != nil {
			db.Close()
		}
	}
	in.reopened, in.db = nil, nil
	os.RemoveAll(in.dir)
}

func (in *duInstance) layers(lc *layerCtx) {
	db, rep := in.db, lc.rep
	// Commits that completed while the checkpoint ran.
	var stalled []int64
	for _, l := range lc.win.logs {
		for i, c := range l.class {
			if c == duCommit && l.at[i] >= int64(in.ckptFrom) && l.at[i]-l.ns[i] <= int64(in.ckptTo) {
				stalled = append(stalled, l.ns[i])
			}
		}
	}
	sortInt64(stalled)
	rep.set("storage.checkpoint_stall_p95_us", percentile(stalled, 0.95)/1e3, len(stalled))
	rep.set("storage.checkpoint_ms", float64(in.ckptTo-in.ckptFrom)/1e6, 1)
	rep.set("storage.checkpoint_bytes", float64(dirBytes(in.dir, "*.ckpt")), 1)

	keys := make([][]types.Value, 1024)
	for i := range keys {
		keys[i] = []types.Value{types.NewInt(int64(i) * (in.preload / 1024))}
	}
	n, c, err := lc.replaySelect(db, selectReplay{
		class: "readback", texts: []string{duReadSQL}, prepared: duReadSQL,
		args: func(i int) []types.Value { return keys[i%len(keys)] },
	}, lc.slice(4))
	if err != nil {
		lc.fail("durable_commit: replay %d: %v", n, err)
		return
	}
	lc.setCompileLayers(summarise([]*tracer{lc.sp}))
	setExecCounters(rep, c, 1)
	if stmt, err := db.Prepare(duReadSQL); err == nil {
		rep.set("engine.stmt_query_allocs", allocsPerRun(500, func() { stmt.Query(keys[0]...) }), 500)
	}

	// The same INSERT on three databases: in memory (apply only), durable
	// without fsync (apply + log), and this workload's own (apply + log +
	// fsync wait). The differences are the log's and the fsync's share.
	budget := lc.slice(10)
	insertP50 := func(db *engine.Database, firstKey int64) (float64, int, error) {
		stmt, err := db.Prepare(duInsertSQL)
		if err != nil {
			return 0, 0, err
		}
		k := firstKey
		d := timeRuns(budget, 50, maxReplays, func() {
			if _, e := stmt.Exec(types.NewInt(k), types.NewInt(k)); e != nil {
				err = e
			}
			k++
		})
		return median(d), len(d), err
	}
	mem := engine.Open()
	err = preloadKV(mem, in.preload)
	var applyNs, nosyncNs, syncNs float64
	var samples int
	if err == nil {
		applyNs, samples, err = insertP50(mem, 1<<41)
	}
	if err == nil {
		rep.set("storage.apply_ns", applyNs, samples)
		var dir string
		if dir, err = scratchDir(lc.cfg, "nosync-"); err == nil {
			defer os.RemoveAll(dir)
			var nosync *engine.Database
			if nosync, err = engine.OpenDirOptions(dir, engine.DurabilityOptions{GroupCommit: true, NoSync: true}); err == nil {
				defer nosync.Close()
				if err = preloadKV(nosync, in.preload); err == nil {
					nosyncNs, samples, err = insertP50(nosync, 1<<41)
				}
			}
		}
	}
	if err == nil {
		rep.set("storage.log_ns", nosyncNs-applyNs, samples)
		syncNs, samples, err = insertP50(db, 1<<41)
	}
	if err != nil {
		lc.fail("durable_commit: insert on the three databases: %v", err)
		return
	}
	rep.set("wal.fsync_wait_ns", syncNs-nosyncNs, samples)
	lc.inProcessNs = syncNs

	// The log alone: one writer committing a framed begin/insert/commit.
	if dir, err := scratchDir(lc.cfg, "wal-"); err == nil {
		defer os.RemoveAll(dir)
		if log, err := wal.OpenLog(dir, 1, wal.Options{GroupCommit: true}); err == nil {
			row := types.Row{types.NewInt(1), types.NewInt(1)}
			var buf []byte
			tx := uint64(0)
			d := timeRuns(budget, 50, maxReplays, func() {
				tx++
				buf = wal.AppendRecord(buf[:0], &wal.Record{Op: wal.OpBegin, TxID: tx})
				buf = wal.AppendRecord(buf, &wal.Record{Op: wal.OpInsert, TxID: tx, Table: "kv", RID: int64(tx), Row: row})
				buf = wal.AppendRecord(buf, &wal.Record{Op: wal.OpCommit, TxID: tx})
				log.Commit(buf, 3)
			})
			log.Close()
			rep.set("wal.commit_ns", median(d), len(d))
		}
	}

	// Restart: reopen the never-closed database three times.
	var opens []float64
	for k := 0; k < 3; k++ {
		re, took, err := in.reopen()
		if err != nil {
			lc.fail("durable_commit: reopen: %v", err)
			return
		}
		opens = append(opens, float64(took)/1e6)
		rep.set("storage.recovered_records", float64(re.WALStats().RecoveredRecords), 1)
	}
	rep.set("storage.recovery_ms", medianFloat(opens), len(opens))
}
