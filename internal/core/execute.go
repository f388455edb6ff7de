package core

import (
	"fmt"

	"xnf/internal/exec"
	"xnf/internal/opt"
	"xnf/internal/storage"
	"xnf/internal/types"
)

// COResult is a fully extracted composite object: one row set per TAKEn
// output, in component order. Derived relationship outputs have a nil row
// set (the cache reconstructs their connections from the child rows).
type COResult struct {
	Outputs  []Output
	Rows     [][]types.Row
	Counters exec.Counters
}

// PlanTemplates compiles one physical plan per shipped output: the
// multi-output plan set of the paper's Sect. 5.1 in reusable template form.
// Each template is a handle over an immutable compiled root, which every
// execution runs in place through a handle of its own — Open takes those.
// The engine caches templates with the compilation in its statement plan
// cache, and with vectorization enabled each leg's scan→filter→project
// pipeline is lowered to the batch engine. A recursive CO's outputs are
// fixpoint plans over its spooled local sets. Entries are nil only for
// derived relationships, which ship nothing.
func (c *Compiled) PlanTemplates(store *storage.Store, opts opt.Options) ([]exec.Plan, error) {
	comp := opt.NewCompiler(store, c.Graph, opts)
	if c.fix != nil {
		return c.fix.templates(comp)
	}
	plans := make([]exec.Plan, len(c.Outputs))
	for i, out := range c.Outputs {
		if out.Box == nil {
			continue // derived relationship: nothing shipped
		}
		root, err := comp.CompileOutput(out.Box)
		if err != nil {
			return nil, fmt.Errorf("core: compiling output %s: %w", out.Name, err)
		}
		plans[i] = exec.NewPlan(root)
	}
	return plans, nil
}

// COStream is the one CO executor: the heterogeneous stream of tagged
// tuples of Sect. 3, driven lazily as the consumer pulls. Per-output plans
// run one output at a time over a single execution context, so boxes
// shared in the QGM DAG (parents used by their own output, by child
// reachability and by connections) are spooled exactly once (Sect. 5.1's
// multiple-query optimization) — as are a recursive CO's local sets and
// its fixpoint — one counter set covers the whole CO, and the context's
// memory accountant and interrupt govern every output.
//
// The contract mirrors engine.Rows: Next returns (compID, row, nil) per
// tuple and (0, nil, nil) at the end of the stream; Close is idempotent and
// releases plan resources and the context's memory accountant.
type COStream struct {
	outputs []Output
	ctx     *exec.Ctx
	plans   []exec.Plan // this stream's handles; nil where nothing is shipped
	idx     int         // output currently being drained
	opened  bool        // plans[idx] is open
	done    bool
	err     error
}

// Open starts the CO over ctx, which the stream owns from here on: its
// memory accountant is closed with the stream (or at once, when Open
// fails). templates are shared plan templates from PlanTemplates; the
// stream runs their compiled roots in place through handles of its own,
// so concurrent streams may share them. nil compiles fresh plans under
// opts.
func (c *Compiled) Open(ctx *exec.Ctx, templates []exec.Plan, opts opt.Options) (*COStream, error) {
	if templates == nil {
		var err error
		if templates, err = c.PlanTemplates(ctx.Store, opts); err != nil {
			ctx.Mem.Close()
			return nil, err
		}
	}
	s := &COStream{outputs: c.Outputs, ctx: ctx, plans: make([]exec.Plan, len(templates))}
	for i, p := range templates {
		if p != nil {
			s.plans[i] = exec.NewPlan(p.Root())
		}
	}
	return s, nil
}

// Outputs returns the CO's compiled output metadata.
func (s *COStream) Outputs() []Output { return s.outputs }

// HasRows reports whether output i ships rows (false for derived
// relationships, which have no plan).
func (s *COStream) HasRows(i int) bool { return s.outputs[i].Box != nil }

// Next returns the next tagged tuple of the heterogeneous stream, or
// (0, nil, nil) once every output is drained. Outputs stream in component
// order; each plan opens on first demand and closes at its end.
func (s *COStream) Next() (int, types.Row, error) {
	if s.err != nil {
		return 0, nil, s.err
	}
	for !s.done {
		if s.idx >= len(s.outputs) {
			s.shutdown()
			return 0, nil, nil
		}
		plan := s.plans[s.idx]
		if plan == nil {
			s.idx++
			continue
		}
		if !s.opened {
			if err := s.ctx.Interrupted(); err != nil {
				return 0, nil, s.fail(err)
			}
			if err := plan.Open(s.ctx, nil); err != nil {
				return 0, nil, s.fail(err)
			}
			s.opened = true
		}
		row, err := plan.Next(s.ctx)
		if err != nil {
			return 0, nil, s.fail(err)
		}
		if row == nil {
			if err := plan.Close(s.ctx); err != nil {
				return 0, nil, s.fail(err)
			}
			s.plans[s.idx] = nil
			s.opened = false
			s.idx++
			continue
		}
		return s.outputs[s.idx].CompID, row, nil
	}
	return 0, nil, nil
}

// Drain pulls the rest of the stream into a COResult and closes it.
func (s *COStream) Drain() (*COResult, error) {
	res := &COResult{Outputs: s.outputs, Rows: make([][]types.Row, len(s.outputs))}
	for {
		_, row, err := s.Next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			break
		}
		res.Rows[s.idx] = append(res.Rows[s.idx], row)
	}
	res.Counters = s.ctx.Counters
	return res, s.Close()
}

// Counters snapshots the execution counters accumulated so far.
func (s *COStream) Counters() exec.Counters { return s.ctx.Counters }

// fail records the first stream error, naming the output being drained,
// and releases everything.
func (s *COStream) fail(err error) error {
	s.err = fmt.Errorf("core: executing output %s: %w", s.outputs[s.idx].Name, err)
	s.shutdown()
	return s.err
}

// shutdown closes the currently open plan (never-opened handles hold no
// resources and are simply dropped) and the stream's accountant.
func (s *COStream) shutdown() {
	if s.done {
		return
	}
	s.done = true
	if s.opened && s.plans[s.idx] != nil {
		if cerr := s.plans[s.idx].Close(s.ctx); cerr != nil && s.err == nil {
			s.err = cerr
		}
	}
	s.opened = false
	s.plans = nil
	s.ctx.Mem.Close()
}

// Close releases the stream's plans and memory reservations. Idempotent;
// safe at any point of the stream.
func (s *COStream) Close() error {
	s.shutdown()
	return s.err
}

// Execute materializes the CO set-oriented: every component table and
// every shipped connection table is produced by one multi-output plan over
// a single execution context. It drains the stream Open returns.
func (c *Compiled) Execute(store *storage.Store, opts opt.Options) (*COResult, error) {
	s, err := c.Open(exec.NewCtx(store), nil, opts)
	if err != nil {
		return nil, err
	}
	return s.Drain()
}

// ExecuteTemplates materializes the CO from shared plan templates
// (PlanTemplates; recursive or not) by draining the stream Open returns.
// parallel is ignored: there is one CO executor, and the argument stays
// only for the benchmark's call sites until a benchmark-side change drops
// it.
func (c *Compiled) ExecuteTemplates(store *storage.Store, plans []exec.Plan, parallel bool) (*COResult, error) {
	s, err := c.Open(exec.NewCtx(store), plans, opt.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return s.Drain()
}
