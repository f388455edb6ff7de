package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"xnf/internal/ast"
	"xnf/internal/exec"
	"xnf/internal/metrics"
	"xnf/internal/resource"
	"xnf/internal/vexec"
)

// DefaultSlowQueryThreshold is the statement duration above which a query
// is recorded in the slow-query log unless overridden (xnfserver -slow).
const DefaultSlowQueryThreshold = 250 * time.Millisecond

// slowLogCap bounds the slow-query ring buffer.
const slowLogCap = 32

// SlowQuery is one slow-query log entry: the statement text, how long it
// ran, what it returned and the execution counters it accumulated.
type SlowQuery struct {
	SQL      string        `json:"sql"`
	Duration time.Duration `json:"duration_ns"`
	Rows     int64         `json:"rows"`
	Counters exec.Counters `json:"counters"`
	When     time.Time     `json:"when"`
}

// dbStats is the per-database observability state: the metric registry
// plus the handles the statement path records through. One per Database,
// created in Open; the wire server registers its own families in the same
// registry, so /metrics and FrameStats expose both layers in one
// snapshot.
type dbStats struct {
	reg *metrics.Registry

	stmtSelect *metrics.Counter
	stmtInsert *metrics.Counter
	stmtUpdate *metrics.Counter
	stmtDelete *metrics.Counter
	stmtDDL    *metrics.Counter
	stmtErrors *metrics.Counter

	// Resource governance: statements rejected over budget, statements
	// that hit their deadline, and operators that degraded to a cheaper
	// strategy instead of failing.
	stmtExhausted *metrics.Counter
	stmtTimeout   *metrics.Counter
	memFallbacks  *metrics.Counter
	memReserved   *metrics.Counter

	rowsReturned *metrics.Counter
	rowsAffected *metrics.Counter
	rowsScanned  *metrics.Counter
	segsScanned  *metrics.Counter
	segsPruned   *metrics.Counter

	// Compressed execution: rows whose comparisons / hash-key work ran
	// directly on encoded segment data (dictionary codes, packed ints).
	encodedCmp  *metrics.Counter
	encodedHash *metrics.Counter

	latency *metrics.Histogram

	slowTotal     *metrics.Counter
	slowThreshold atomic.Int64 // nanoseconds; <= 0 disables the slow log
	slowMu        sync.Mutex
	slow          []SlowQuery // ring buffer, slowNext is the write cursor
	slowNext      int
}

// newDBStats builds the registry for one database and registers the
// engine-owned metric families. Subsystems that keep their own totals
// (plan cache, worker pool, WAL, column store) are exposed through
// counter/gauge funcs evaluated at snapshot time.
func newDBStats(db *Database) *dbStats {
	reg := metrics.NewRegistry()
	st := &dbStats{
		reg:          reg,
		stmtSelect:   reg.Counter("xnf_statements_select_total", "SELECT statements executed."),
		stmtInsert:   reg.Counter("xnf_statements_insert_total", "INSERT statements executed."),
		stmtUpdate:   reg.Counter("xnf_statements_update_total", "UPDATE statements executed."),
		stmtDelete:   reg.Counter("xnf_statements_delete_total", "DELETE statements executed."),
		stmtDDL:      reg.Counter("xnf_statements_ddl_total", "DDL and other statements executed."),
		stmtErrors:   reg.Counter("xnf_statement_errors_total", "Statements that failed."),
		rowsReturned: reg.Counter("xnf_rows_returned_total", "Result rows returned to callers."),
		rowsAffected: reg.Counter("xnf_rows_affected_total", "Rows affected by DML."),
		rowsScanned:  reg.Counter("xnf_rows_scanned_total", "Rows read by scans."),
		segsScanned:  reg.Counter("xnf_segments_scanned_total", "Column-store segments read by scans."),
		segsPruned:   reg.Counter("xnf_segments_pruned_total", "Column-store segments skipped by zone maps."),
		encodedCmp:   reg.Counter("xnf_encoded_cmp_rows_total", "Rows compared directly on encoded segment data."),
		encodedHash:  reg.Counter("xnf_encoded_hash_rows_total", "Rows hashed for agg/join keys from encoded segment data."),
		latency:      reg.Histogram("xnf_statement_latency_ns", "Statement wall time in nanoseconds."),
		slowTotal:    reg.Counter("xnf_slow_queries_total", "Statements slower than the slow-query threshold."),

		stmtExhausted: reg.Counter("xnf_statements_exhausted_total", "Statements rejected over memory budget (retryable)."),
		stmtTimeout:   reg.Counter("xnf_statements_timeout_total", "Statements canceled by deadline or caller."),
		memFallbacks:  reg.Counter("xnf_mem_fallbacks_total", "Operators degraded to a cheaper strategy under memory pressure."),
		memReserved:   reg.Counter("xnf_mem_reserved_bytes_total", "Bytes reserved by governed allocators (cumulative demand)."),
	}
	st.slowThreshold.Store(int64(DefaultSlowQueryThreshold))

	// Memory accountant (instantaneous; budget 0 = unlimited).
	reg.GaugeFunc("xnf_mem_used_bytes", "Bytes currently reserved process-wide.",
		func() int64 { return db.mem.Used() })
	reg.GaugeFunc("xnf_mem_budget_bytes", "Process memory budget (0 = unlimited).",
		func() int64 { return db.mem.Limit() })
	reg.CounterFunc("xnf_mem_denied_total", "Reservations rejected by the process budget.",
		func() int64 { return db.mem.Denied() })

	// Plan cache (totals owned by db.Metrics / planCache).
	reg.CounterFunc("xnf_plan_cache_hits_total", "Plan-cache hits.",
		func() int64 { return db.Metrics.CacheHits.Load() })
	reg.CounterFunc("xnf_plan_cache_misses_total", "Plan-cache misses.",
		func() int64 { return db.Metrics.CacheMisses.Load() })
	reg.CounterFunc("xnf_plan_cache_evictions_total", "Plan-cache entries evicted.",
		func() int64 { _, ev := db.plans.metrics(); return ev })
	reg.GaugeFunc("xnf_plan_cache_entries", "Plans currently cached.",
		func() int64 { size, _ := db.plans.metrics(); return size })
	reg.CounterFunc("xnf_compiles_total", "Full SELECT compile-pipeline runs.",
		func() int64 { return db.Metrics.Compiles.Load() })

	// Shared worker pool (process-wide; totals owned by vexec.Shared).
	reg.GaugeFunc("xnf_pool_workers", "Extra worker capacity of the shared pool.",
		func() int64 { return int64(vexec.Shared.Stats().Workers) })
	reg.GaugeFunc("xnf_pool_in_use", "Shared-pool workers currently granted.",
		func() int64 { return int64(vexec.Shared.Stats().InUse) })
	reg.GaugeFunc("xnf_pool_active_ops", "Parallel operators currently holding grants.",
		func() int64 { return int64(vexec.Shared.Stats().Active) })
	reg.CounterFunc("xnf_pool_admissions_total", "Parallel operators granted extra workers.",
		func() int64 { return int64(vexec.Shared.Stats().Admits) })
	reg.CounterFunc("xnf_pool_fallbacks_total", "Parallel operators that ran sequentially (pool saturated).",
		func() int64 { return int64(vexec.Shared.Stats().Fallbacks) })

	// Durability (totals owned by the WAL; all zero without -data).
	reg.CounterFunc("xnf_wal_commits_total", "Transactions made durable.",
		func() int64 { return int64(db.store.WALStats().Commits) })
	reg.CounterFunc("xnf_wal_fsyncs_total", "WAL fsyncs issued.",
		func() int64 { return int64(db.store.WALStats().Fsyncs) })
	reg.CounterFunc("xnf_wal_records_total", "WAL records appended.",
		func() int64 { return int64(db.store.WALStats().Records) })
	reg.CounterFunc("xnf_wal_bytes_total", "WAL bytes appended.",
		func() int64 { return int64(db.store.WALStats().Bytes) })
	reg.CounterFunc("xnf_wal_group_commit_sum_total", "Sum of group-commit batch sizes (divide by fsyncs for the mean).",
		func() int64 { return int64(db.store.WALStats().GroupSum) })
	reg.GaugeFunc("xnf_wal_group_commit_max", "Largest commit group retired by one fsync.",
		func() int64 { return int64(db.store.WALStats().MaxGroup) })
	reg.CounterFunc("xnf_wal_checkpoints_total", "Checkpoints completed.",
		func() int64 { return int64(db.store.WALStats().Checkpoints) })
	reg.GaugeFunc("xnf_wal_last_checkpoint_ms", "Wall time of the latest checkpoint in milliseconds.",
		func() int64 { return db.store.WALStats().LastCkptMillis })
	reg.GaugeFunc("xnf_wal_replayed_records", "WAL records replayed by recovery at open.",
		func() int64 { return int64(db.store.WALStats().RecoveredRecords) })

	// Column store (instantaneous footprint).
	reg.GaugeFunc("xnf_colstore_segments", "Column-store segments resident across all tables.",
		func() int64 { segs, _ := db.store.ColStoreStats(); return int64(segs) })
	reg.GaugeFunc("xnf_colstore_bytes_resident", "Approximate heap bytes held by column vectors.",
		func() int64 { _, bytes := db.store.ColStoreStats(); return bytes })
	reg.GaugeFunc("xnf_colstore_dict_columns", "Segment columns held dictionary-encoded.",
		func() int64 { d, _ := db.store.EncodedColumnStats(); return int64(d) })
	reg.GaugeFunc("xnf_colstore_pack_columns", "Segment columns held bit-packed.",
		func() int64 { _, p := db.store.EncodedColumnStats(); return int64(p) })

	return st
}

// Registry returns the database's metric registry. The wire server
// registers its session/frame families here, and every exposure path
// (/metrics, /debug/vars, FrameStats, \metrics, the stats logger) reads
// the same instance.
func (db *Database) Registry() *metrics.Registry { return db.stats.reg }

// SetSlowQueryThreshold sets the duration above which statements are
// recorded in the slow-query log; d <= 0 disables recording.
func (db *Database) SetSlowQueryThreshold(d time.Duration) {
	db.stats.slowThreshold.Store(int64(d))
}

// SlowQueries returns the retained slow-query log entries, newest first.
func (db *Database) SlowQueries() []SlowQuery {
	s := db.stats
	s.slowMu.Lock()
	defer s.slowMu.Unlock()
	out := make([]SlowQuery, 0, len(s.slow))
	// slowNext-1 is the newest entry; walk backwards around the ring.
	for i := 0; i < len(s.slow); i++ {
		idx := (s.slowNext - 1 - i) % len(s.slow)
		if idx < 0 {
			idx += len(s.slow)
		}
		out = append(out, s.slow[idx])
	}
	return out
}

// observeStatement records one finished statement: verb and error
// counters, the latency histogram, rows and scan counters, and — when
// the statement ran longer than the threshold — a slow-query log entry.
// It is the single choke point both execution paths (Stmt.Exec for
// DML/DDL, the Rows cursor for SELECT) funnel through.
func (s *dbStats) observeStatement(verb byte, sql string, start time.Time, rows int64, c exec.Counters, err error) {
	elapsed := time.Since(start)
	switch verb {
	case 'S':
		s.stmtSelect.Inc()
	case 'I':
		s.stmtInsert.Inc()
	case 'U':
		s.stmtUpdate.Inc()
	case 'D':
		s.stmtDelete.Inc()
	default:
		s.stmtDDL.Inc()
	}
	if err != nil {
		s.stmtErrors.Inc()
		switch {
		case errors.Is(err, resource.ErrResourceExhausted):
			s.stmtExhausted.Inc()
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			s.stmtTimeout.Inc()
		}
	}
	s.latency.Observe(int64(elapsed))
	if verb == 'S' {
		s.rowsReturned.Add(rows)
	} else {
		s.rowsAffected.Add(rows)
	}
	s.rowsScanned.Add(c.RowsScanned)
	s.segsScanned.Add(c.SegmentsScanned)
	s.segsPruned.Add(c.SegmentsPruned)
	s.encodedCmp.Add(c.EncodedCmpRows)
	s.encodedHash.Add(c.EncodedHashRows)
	s.memFallbacks.Add(c.MemFallbacks)
	s.memReserved.Add(c.MemReserved)

	if !s.isSlow(elapsed) || err != nil {
		return
	}
	s.slowTotal.Inc()
	entry := SlowQuery{SQL: sql, Duration: elapsed, Rows: rows, Counters: c, When: time.Now()}
	s.slowMu.Lock()
	if len(s.slow) < slowLogCap {
		s.slow = append(s.slow, entry)
		s.slowNext = len(s.slow) % slowLogCap
	} else {
		s.slow[s.slowNext] = entry
		s.slowNext = (s.slowNext + 1) % slowLogCap
	}
	s.slowMu.Unlock()
}

// isSlow reports whether a statement that ran for elapsed belongs in the
// slow-query log.
func (s *dbStats) isSlow(elapsed time.Duration) bool {
	thresh := s.slowThreshold.Load()
	return thresh > 0 && int64(elapsed) >= thresh
}

// observeParsed is observeStatement for a statement that has no text of
// its own (a script statement, a parsed statement): it is deparsed only
// when the slow-query log records it.
func (s *dbStats) observeParsed(verb byte, stmt ast.Statement, start time.Time, rows int64, c exec.Counters, err error) {
	sql := ""
	if s.isSlow(time.Since(start)) {
		sql = stmt.String()
	}
	s.observeStatement(verb, sql, start, rows, c, err)
}

// DebugVars returns the extra /debug/vars entries for this database —
// currently the slow-query log. Pass it to metrics.Handler.
func (db *Database) DebugVars() map[string]any {
	return map[string]any{"slow_queries": db.SlowQueries()}
}
