package engine

import (
	"context"
	"fmt"
	"time"

	"xnf/internal/exec"
	"xnf/internal/types"
)

// Rows is a streaming query result: a pull-based cursor over an executing
// plan. Unlike Result, which materializes every row up front, a Rows drives
// the plan lazily — each Next call pulls one row, and vectorized pipeline
// fragments underneath produce their batches incrementally — so the peak
// memory of a SELECT is one batch, not the whole result set.
//
// Contract:
//
//   - Next returns (row, nil) for each row and (nil, nil) at the end of the
//     stream. After an error, Next returns (nil, err) forever.
//   - Err reports the first error seen by Next (nil after a clean end of
//     stream), so drain loops can test rows == nil and check Err once.
//   - Close must be called when the caller abandons the stream early; it
//     releases plan resources (pooled batches and vectors return to their
//     pools) and is idempotent. Draining to end of stream releases the same
//     resources automatically, but calling Close anyway is always safe —
//     `defer rows.Close()` is the intended shape.
//   - Counters snapshots the execution counters accumulated so far; after
//     the stream is drained it covers the whole execution.
//   - A Rows is bound to one execution and is not safe for concurrent use.
type Rows struct {
	cols   []exec.Column
	plan   exec.Plan
	ectx   *exec.Ctx
	cctx   context.Context
	cancel context.CancelFunc // non-nil when a statement timeout armed the context
	open   bool
	err    error

	// Observability: the statement is observed exactly once, when the
	// stream finishes (drained, failed, or abandoned via Close).
	db       *Database
	sql      string
	start    time.Time
	returned int64
	observed bool
}

// Columns describes the output row.
func (r *Rows) Columns() []exec.Column { return r.cols }

// Next returns the next row, or (nil, nil) at the end of the stream. When
// the Rows was opened with QueryRowsContext, a canceled context surfaces
// here as its error and the plan is closed immediately — mid-stream
// cancellation returns pooled resources right away.
func (r *Rows) Next() (types.Row, error) {
	if r.err != nil {
		return nil, r.err
	}
	if !r.open {
		return nil, nil
	}
	if r.cctx != nil {
		if err := r.cctx.Err(); err != nil {
			return nil, r.fail(err)
		}
	}
	row, err := r.plan.Next(r.ectx)
	if err != nil {
		return nil, r.fail(err)
	}
	if row == nil {
		// End of stream: release plan resources eagerly; Err stays nil.
		r.closePlan()
		return nil, nil
	}
	r.returned++
	return row, nil
}

// Err returns the first error encountered by Next (nil after a clean end of
// stream). A failed Close also surfaces here.
func (r *Rows) Err() error { return r.err }

// Counters snapshots the execution counters accumulated so far.
func (r *Rows) Counters() exec.Counters { return r.ectx.Counters }

// Close releases the plan's resources. It is idempotent and safe to call at
// any point of the stream; after Close, Next returns (nil, Err()).
func (r *Rows) Close() error {
	if !r.open {
		return nil
	}
	r.open = false
	err := r.plan.Close(r.ectx)
	if err != nil && r.err == nil {
		r.err = err
	}
	r.observe()
	return err
}

// fail records the first stream error and closes the plan.
func (r *Rows) fail(err error) error {
	r.err = err
	r.closePlan()
	return err
}

func (r *Rows) closePlan() {
	if r.open {
		r.open = false
		if cerr := r.plan.Close(r.ectx); cerr != nil && r.err == nil {
			r.err = cerr
		}
		r.observe()
	}
}

// observe records the finished statement in the database's registry and
// returns its memory reservations — once per Rows, on whichever close
// path ran first.
func (r *Rows) observe() {
	if r.observed {
		return
	}
	r.observed = true
	if r.cancel != nil {
		r.cancel()
	}
	// Closing the statement accountant releases anything an operator
	// still held (a failed Open, an abandoned stream), so the session
	// and process accountants read zero after drain.
	r.ectx.Mem.Close()
	if r.db != nil {
		r.db.stats.observeStatement('S', r.sql, r.start, r.returned, r.ectx.Counters, r.err)
	}
}

// QueryRows compiles (or fetches from the plan cache) a SELECT and returns
// a streaming cursor over its result. Args bind `?` placeholders. The
// caller must drain or Close the returned Rows.
func (db *Database) QueryRows(sql string, args ...types.Value) (*Rows, error) {
	stmt, err := db.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return stmt.QueryRows(args...)
}

// QueryRowsContext is QueryRows with cancellation: Next checks the context
// between rows and aborts the stream (closing the plan and returning pooled
// resources) once the context is done.
func (db *Database) QueryRowsContext(ctx context.Context, sql string, args ...types.Value) (*Rows, error) {
	stmt, err := db.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return stmt.QueryRowsContext(ctx, args...)
}

// QueryRows executes a prepared SELECT and returns a streaming cursor over
// its result. Like Query, the statement revalidates itself against the
// catalog version first. The caller must drain or Close the returned Rows.
func (s *Stmt) QueryRows(args ...types.Value) (*Rows, error) {
	return s.QueryRowsContext(context.Background(), args...)
}

// QueryRowsContext is QueryRows with cancellation (see
// Database.QueryRowsContext).
func (s *Stmt) QueryRowsContext(ctx context.Context, args ...types.Value) (*Rows, error) {
	start := time.Now()
	s, err := s.Revalidate()
	if err != nil {
		return nil, err
	}
	if s.sel == nil {
		return nil, fmt.Errorf("engine: QueryRows requires a SELECT statement")
	}
	if len(args) != s.nparams {
		return nil, fmt.Errorf("engine: statement wants %d arguments, got %d", s.nparams, len(args))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Default statement timeout: applied only when the caller's context
	// has no deadline of its own, so a per-session SET override (which
	// arrives as a context deadline) fully replaces it.
	var cancel context.CancelFunc
	if d := s.db.Options.StatementTimeout; d > 0 {
		if _, has := ctx.Deadline(); !has {
			ctx, cancel = context.WithTimeout(ctx, d)
		}
	}
	// The statement's reservations charge a session accountant when the
	// context carries one, the process accountant otherwise.
	parent := memFromContext(ctx)
	if parent == nil {
		parent = s.db.mem
	}
	plan := exec.NewPlan(s.plan)
	ectx := exec.NewCtx(s.db.store)
	ectx.Mem = parent.Child("statement", 0)
	ectx.Interrupt = ctx.Err
	r := &Rows{
		cols: s.cols, plan: plan, ectx: ectx, cctx: ctx, cancel: cancel, open: true,
		db: s.db, sql: s.text, start: start,
	}
	if err := plan.Open(ectx, s.bind(args)); err != nil {
		r.err = err
		r.observe()
		return nil, err
	}
	return r, nil
}
