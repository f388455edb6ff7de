package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"time"
)

// stepper is one closed-loop client. step runs op i of the client's
// pregenerated schedule and reports its class, its client-observed latency
// and whether it succeeded and passed its oracle. step takes its own two
// clock reads around the call into the system; everything else it does
// (picking the op, checking the result) is outside the timed interval.
// sp is nil when tracing is off.
type stepper interface {
	step(i int, sp *tracer) (class int, ns int64, ok bool)
}

// asSteppers views a workload's clients as the harness drives them.
func asSteppers[T stepper](clients []T) []stepper {
	out := make([]stepper, len(clients))
	for i, c := range clients {
		out[i] = c
	}
	return out
}

// samples is one actor's latency log, allocated before the window opens.
// A full log stops recording and counts the overflow, so a client never
// allocates inside the window.
type samples struct {
	ns      []int64
	class   []uint8
	at      []int64 // completion time, ns since the window opened
	failed  int
	dropped int
}

func newSamples(capacity int) *samples {
	return &samples{
		ns:    make([]int64, 0, capacity),
		class: make([]uint8, 0, capacity),
		at:    make([]int64, 0, capacity),
	}
}

func (s *samples) add(class int, ns, at int64, ok bool) {
	if !ok {
		s.failed++
	}
	if len(s.ns) == cap(s.ns) {
		s.dropped++
		return
	}
	s.ns = append(s.ns, ns)
	s.class = append(s.class, uint8(class))
	s.at = append(s.at, at)
}

// window is what one measured interval produced.
type window struct {
	dur        time.Duration
	logs       []*samples // closed-loop clients first, then background actors
	mallocs    uint64
	allocBytes uint64
}

// ops counts the completed operations of every class.
func (w *window) ops() int {
	n := 0
	for _, l := range w.logs {
		n += len(l.ns) + l.dropped
	}
	return n
}

func (w *window) failed() int {
	n := 0
	for _, l := range w.logs {
		n += l.failed
	}
	return n
}

func (w *window) dropped() int {
	n := 0
	for _, l := range w.logs {
		n += l.dropped
	}
	return n
}

// latencies gathers, sorted, the samples of one class whose completion time
// falls in [from, to) of the window (to <= 0 means the whole window).
func (w *window) latencies(class int, from, to time.Duration) []int64 {
	var out []int64
	for _, l := range w.logs {
		for i, c := range l.class {
			if int(c) != class {
				continue
			}
			if to > 0 && (l.at[i] < int64(from) || l.at[i] >= int64(to)) {
				continue
			}
			out = append(out, l.ns[i])
		}
	}
	sortInt64(out)
	return out
}

// percentile reads the p-quantile (0 < p <= 1) of sorted values; 0 when
// there are none.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

func median(sorted []int64) float64 { return percentile(sorted, 0.5) }

func sortInt64(v []int64) { sort.Slice(v, func(i, j int) bool { return v[i] < v[j] }) }

// tail returns the highest percentile that still has ten samples beyond
// it, and its value; zeros when the sample is too small to have one.
func tail(sorted []int64) (pct, value float64) {
	n := len(sorted)
	if n < 20 {
		return 0, 0
	}
	return 100 * float64(n-10) / float64(n), float64(sorted[n-11])
}

func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// background is an actor that runs beside the closed-loop clients for the
// length of the window: the fixed-rate writer of analytic_scan, the
// checkpointer of durable_commit. It returns when the window closes.
type background func(start time.Time, dur time.Duration, log *samples)

// runWindow drives every stepper in its own goroutine for dur, closed loop:
// a client issues its next op when the previous reply is complete. Memory
// statistics are read just outside the window's edges.
func runWindow(clients []stepper, bgs []background, dur time.Duration, capacity int, tracers []*tracer) *window {
	w := &window{}
	for range clients {
		w.logs = append(w.logs, newSamples(capacity))
	}
	for range bgs {
		w.logs = append(w.logs, newSamples(capacity))
	}
	var wg sync.WaitGroup
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for ci, c := range clients {
		wg.Add(1)
		var sp *tracer
		if tracers != nil {
			sp = tracers[ci]
		}
		go func(c stepper, log *samples, sp *tracer) {
			defer wg.Done()
			clientLoop(c, log, sp, start, dur)
		}(c, w.logs[ci], sp)
	}
	for bi, bg := range bgs {
		wg.Add(1)
		go func(bg background, log *samples) {
			defer wg.Done()
			bg(start, dur, log)
		}(bg, w.logs[len(clients)+bi])
	}
	wg.Wait()
	w.dur = time.Since(start)
	runtime.ReadMemStats(&after)
	w.mallocs = after.Mallocs - before.Mallocs
	w.allocBytes = after.TotalAlloc - before.TotalAlloc
	return w
}

// clientLoop is the timed loop itself. Per iteration it adds one clock read
// (the window check) to the two the stepper takes.
func clientLoop(c stepper, log *samples, sp *tracer, start time.Time, dur time.Duration) {
	for i := 0; ; i++ {
		class, ns, ok := c.step(i, sp)
		at := time.Since(start)
		if at >= dur {
			return // finished after the window closed: not counted
		}
		log.add(class, ns, int64(at), ok)
	}
}

// noop is the harness's own cost: a stepper that calls into nothing.
type noop struct{}

func (noop) step(int, *tracer) (int, int64, bool) {
	t0 := time.Now()
	return 0, int64(time.Since(t0)), true
}

// measureNoop runs the no-op class through the same loop and returns its
// cost per iteration, which is the harness's share of every per-op number.
func measureNoop() (nsPerOp, allocsPerOp float64) {
	w := runWindow([]stepper{noop{}}, nil, 50*time.Millisecond, 1<<21, nil)
	n := float64(w.ops())
	return float64(w.dur) / n, float64(w.mallocs) / n
}

var calibSink uint64

// calibrate times a fixed pure-CPU loop, so that numbers taken on different
// hosts can be told apart. Median of five.
func calibrate() float64 {
	var runs []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 1<<22; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink += x
		runs = append(runs, float64(time.Since(t0)))
	}
	return medianFloat(runs)
}

// allocsPerRun is testing.AllocsPerRun without the testing package: the
// mean number of mallocs of one call of f, on a quiet process.
func allocsPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// timeRuns calls f until budget is spent (at least min, at most max times)
// and returns the sorted durations.
func timeRuns(budget time.Duration, min, max int, f func()) []int64 {
	var out []int64
	deadline := time.Now().Add(budget)
	for len(out) < max && (len(out) < min || time.Now().Before(deadline)) {
		t0 := time.Now()
		f()
		out = append(out, int64(time.Since(t0)))
	}
	sortInt64(out)
	return out
}
