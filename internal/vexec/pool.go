package vexec

import (
	"runtime"
	"sync"
)

// Pool is the process-wide worker-admission pool behind every morsel-
// parallel operator (ParallelAggScan, the BatchHashJoin build, BatchSort).
// A token is permission to run one extra goroutine; the requesting
// execution always works inline on top of whatever it is granted, so the
// pool bounds total fan-out without ever blocking a query: under
// saturation a request is granted zero tokens and the operator degrades to
// its sequential code path.
//
// Admission is fair-share: a request may take at most cap/active tokens
// (active = executions currently holding or requesting tokens), so one
// query cannot monopolize the pool while others are running, and the
// global extra-goroutine count never exceeds the configured bound.
type Pool struct {
	mu     sync.Mutex
	cap    int
	used   int // tokens currently out
	active int // executions currently holding tokens
	peak   int // high-water mark of used

	granted   int64 // cumulative tokens handed out
	admits    int64 // requests granted at least one token
	fallbacks int64 // requests granted none (sequential fallback)
}

// Shared is the process-wide pool every parallel operator draws from,
// sized to GOMAXPROCS extra workers by default; resize with SetWorkers.
// Its size is also the worker count an operator aims for (itself plus
// size-1 extra), so the pool is the one bound on parallelism.
var Shared = NewPool(0)

// NewPool returns a pool bounded to n extra workers; n <= 0 means
// GOMAXPROCS.
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Pool{cap: n}
}

// SetWorkers rebounds the pool to n extra workers (n <= 0 = GOMAXPROCS).
// Outstanding grants are unaffected; they drain naturally.
func SetWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	Shared.mu.Lock()
	Shared.cap = n
	Shared.mu.Unlock()
}

// Grant is the result of an admission request: n tokens, each standing for
// one extra goroutine the holder may spawn. Release returns them; a zero
// Grant (sequential fallback) releases as a no-op.
type Grant struct {
	p *Pool
	n int
}

// N returns the number of extra workers granted.
func (g Grant) N() int { return g.n }

// Acquire requests up to want extra-worker tokens. It never blocks: the
// grant is clipped to the requester's fair share and to the pool's free
// capacity, and may be zero — the caller then runs its sequential path.
func (p *Pool) Acquire(want int) Grant {
	if want <= 0 {
		return Grant{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.active++
	share := p.cap / p.active
	if share < 1 {
		share = 1
	}
	n := want
	if n > share {
		n = share
	}
	if free := p.cap - p.used; n > free {
		n = free
	}
	if n <= 0 {
		p.active--
		p.fallbacks++
		return Grant{}
	}
	p.used += n
	if p.used > p.peak {
		p.peak = p.used
	}
	p.granted += int64(n)
	p.admits++
	return Grant{p: p, n: n}
}

// Release returns the grant's tokens to the pool.
func (g Grant) Release() {
	if g.p == nil {
		return
	}
	g.p.mu.Lock()
	g.p.used -= g.n
	g.p.active--
	g.p.mu.Unlock()
}

// PoolStats is a snapshot of pool occupancy and admission history.
type PoolStats struct {
	Workers   int   // configured bound (extra workers)
	InUse     int   // tokens currently out
	Active    int   // executions currently holding tokens
	Peak      int   // high-water mark of InUse
	Granted   int64 // cumulative tokens handed out
	Admits    int64 // requests granted at least one token
	Fallbacks int64 // requests granted none
}

// Stats returns a snapshot of the pool.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{
		Workers: p.cap, InUse: p.used, Active: p.active, Peak: p.peak,
		Granted: p.granted, Admits: p.admits, Fallbacks: p.fallbacks,
	}
}

// ResetStats clears the cumulative counters and the peak (benchmarks
// isolate one measured phase); the live occupancy is untouched.
func (p *Pool) ResetStats() {
	p.mu.Lock()
	p.peak = p.used
	p.granted, p.admits, p.fallbacks = 0, 0, 0
	p.mu.Unlock()
}
