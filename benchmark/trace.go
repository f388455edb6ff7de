package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one operation share op; a
// span's parent is the index of the span that caused it, -1 for a root.
type span struct {
	start, end int64 // ns since the tracer's epoch
	parent, op int32
	name       string
}

// tracer keeps spans in a slice allocated up front and writes nothing until
// the benchmark ends. One tracer belongs to one goroutine. A nil tracer
// records nothing and reads no clock, so the untraced pass pays only a nil
// check.
type tracer struct {
	epoch   time.Time
	spans   []span
	every   int // a client traces one op in every
	dropped int
	nextOp  int32
}

func newTracer(epoch time.Time, capacity, every int) *tracer {
	if every < 1 {
		every = 1
	}
	return &tracer{epoch: epoch, spans: make([]span, 0, capacity), every: every}
}

// sampled reports whether a client's op i is one this tracer records.
func (t *tracer) sampled(i int) bool { return t != nil && i%t.every == 0 }

// root opens the span of a whole operation and returns its index.
func (t *tracer) root(name string) int32 {
	if t == nil {
		return -1
	}
	t.nextOp++
	return t.open(name, -1, t.nextOp)
}

// child opens a span under parent; -1 (tracing off, or the parent was
// dropped) records nothing.
func (t *tracer) child(name string, parent int32) int32 {
	if t == nil || parent < 0 {
		return -1
	}
	return t.open(name, parent, t.spans[parent].op)
}

func (t *tracer) open(name string, parent, op int32) int32 {
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{start: int64(time.Since(t.epoch)), parent: parent, op: op, name: name})
	return int32(len(t.spans) - 1)
}

func (t *tracer) close(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].end = int64(time.Since(t.epoch))
}

// call times f as a child span of parent.
func (t *tracer) call(name string, parent int32, f func()) {
	id := t.child(name, parent)
	f()
	t.close(id)
}

// spanStat summarises every span of one name. A span's self time is its
// duration minus the part its children cover.
type spanStat struct {
	Count    int     `json:"count"`
	MedianNs float64 `json:"median_ns"`
	TotalNs  int64   `json:"total_ns"`
	SelfNs   int64   `json:"self_ns"`
}

func summarise(tracers []*tracer) map[string]*spanStat {
	stats := make(map[string]*spanStat)
	durs := make(map[string][]int64)
	for _, t := range tracers {
		if t == nil {
			continue
		}
		covered := make([]int64, len(t.spans))
		for _, s := range t.spans {
			if s.parent >= 0 {
				covered[s.parent] += s.end - s.start
			}
		}
		for i, s := range t.spans {
			st := stats[s.name]
			if st == nil {
				st = &spanStat{}
				stats[s.name] = st
			}
			d := s.end - s.start
			st.Count++
			st.TotalNs += d
			st.SelfNs += d - covered[i]
			durs[s.name] = append(durs[s.name], d)
		}
	}
	for name, d := range durs {
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		stats[name].MedianNs = median(d)
	}
	return stats
}

// medianOf returns the median duration of the spans named name, 0 if none.
func medianOf(stats map[string]*spanStat, name string) float64 {
	if st := stats[name]; st != nil {
		return st.MedianNs
	}
	return 0
}

type spanJSON struct {
	Actor  int    `json:"actor"`
	ID     int    `json:"id"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// writeTrace writes every span and the per-name summary to
// <dir>/trace-<workload>.json.
func writeTrace(dir, workload string, seed int64, tracers []*tracer) (string, error) {
	var spans []spanJSON
	dropped := 0
	for a, t := range tracers {
		if t == nil {
			continue
		}
		dropped += t.dropped
		for i, s := range t.spans {
			spans = append(spans, spanJSON{Actor: a, ID: i, Parent: s.parent, Op: s.op, Name: s.name, Start: s.start, End: s.end})
		}
	}
	doc := map[string]any{
		"workload": workload,
		"seed":     seed,
		"dropped":  dropped,
		"summary":  summarise(tracers),
		"spans":    spans,
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
