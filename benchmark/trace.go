package main

// In-memory spans recorded by the benchmark around its calls into each
// layer. The program under test is not instrumented: a span is either
// timed here (begin/end around a call) or placed from a duration the
// engine's Report gives (add). Spans stay in memory until the run ends.

import (
	"sort"
	"sync"
	"time"
)

// span is one timed interval. Spans of one op share Op; probe spans use
// Op -1. Parent is the ID of the enclosing span, 0 for a root.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // since the tracer's epoch
	End    time.Duration `json:"end_ns"`
}

func (s span) duration() time.Duration { return s.End - s.Start }

// tracer collects spans. A nil *tracer records nothing, so untraced ops
// run the same code without the bookkeeping.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(op, parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: now})
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add places a finished child span of length d at offset from its
// parent's start, clipped to the parent so self times stay exact. It is
// how stage durations read from a Report become spans.
func (t *tracer) add(parent int, name string, offset, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	start := min(p.Start+offset, p.End)
	end := min(start+d, p.End)
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: p.Op, Name: name, Start: start, End: end})
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover (overlapping children are
// counted once).
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := time.Duration(0)
		edge := s.Start // everything before edge is already counted
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.duration() - covered
	}
	return self
}

// budgetRow names the budget row a span's self time belongs to: the
// op's own self time is what no named layer accounts for, and the self
// time of a cluster run is what the cluster adds around the engine's
// three stages.
func budgetRow(name string) string {
	switch name {
	case "op":
		return "other"
	case "cluster.run":
		return "cluster.submit_overhead"
	}
	return name
}

// budget sums self times per row over the "op" spans of the window
// (Op ≥ 0) and everything nested in them, and returns the rows together
// with the summed duration of those op spans. Because every span nests
// inside its parent, the rows add up to that wall exactly. Other root
// spans, such as a teardown after the op, are outside the op's latency.
func budget(spans []span) (rows map[string]time.Duration, wall time.Duration) {
	rows = make(map[string]time.Duration)
	self := selfTimes(spans)
	for _, s := range spans {
		if s.Op < 0 || (s.Parent == 0 && s.Name != "op") {
			continue
		}
		rows[budgetRow(s.Name)] += self[s.ID]
		if s.Parent == 0 {
			wall += s.duration()
		}
	}
	return rows, wall
}
