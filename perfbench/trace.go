package main

// Spans recorded by the benchmark around its own calls into each layer's
// public functions. Nothing here reaches inside the program: a span starts
// before the benchmark calls a layer and ends when the call returns. The
// one exception in timing source is the compile pipeline, whose per-pass
// durations arrive through the pipeline's public obs.PassSink hook; the
// benchmark turns each event into a child span of its compile call.

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"vliwvp/internal/obs"
)

// span is one timed call. Times are nanoseconds since the trace epoch;
// parent indexes the owning tracer's spans (-1 for a root).
type span struct {
	name       string
	op         int64
	parent     int32
	start, end int64
}

// tracer holds the spans of one goroutine, in begin order: a parent
// always precedes its children.
type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// traceSet owns every tracer of one run and hands out operation ids.
type traceSet struct {
	epoch   time.Time
	ops     atomic.Int64
	mu      sync.Mutex
	tracers []*tracer
}

func newTraceSet() *traceSet { return &traceSet{epoch: time.Now()} }

// tracer returns a new tracer for one goroutine's sequence of operations
// (nil when the set is nil: the untraced case).
func (ts *traceSet) tracer() *tracer {
	if ts == nil {
		return nil
	}
	t := &tracer{epoch: ts.epoch}
	ts.mu.Lock()
	ts.tracers = append(ts.tracers, t)
	ts.mu.Unlock()
	return t
}

// root starts the root span of a new operation on t. With a nil tracer it
// returns the untraced scope, whose methods do nothing.
func (ts *traceSet) root(t *tracer, name string) scope {
	if t == nil {
		return scope{}
	}
	return scope{tr: t, op: ts.ops.Add(1), parent: -1}.span(name)
}

// scope is an open span: children started from it name it as parent.
type scope struct {
	tr     *tracer
	op     int64
	parent int32
}

// span starts a child span of s.
func (s scope) span(name string) scope {
	if s.tr == nil {
		return s
	}
	s.tr.spans = append(s.tr.spans, span{name: name, op: s.op, parent: s.parent, start: s.tr.now()})
	return scope{tr: s.tr, op: s.op, parent: int32(len(s.tr.spans) - 1)}
}

// done ends the span s opened.
func (s scope) done() {
	if s.tr != nil {
		s.tr.spans[s.parent].end = s.tr.now()
	}
}

// passSpans is the compile pipeline's event sink: each executed pass
// becomes a child span of the compile call, ending when the event arrives
// (the pipeline emits it as the pass returns).
type passSpans struct{ s scope }

// passSink returns the sink that records s's compile passes (nil, so the
// pipeline does no event work, when s is untraced).
func (s scope) passSink() obs.PassSink {
	if s.tr == nil {
		return nil
	}
	return passSpans{s}
}

// passLayer maps pipeline pass names to the layer (module) they run.
var passLayer = map[string]string{
	"lower":     "lang",
	"opt":       "opt",
	"profile":   "profile",
	"speculate": "speculate",
	"schedule":  "sched",
	"decode":    "core.decode",
}

func (p passSpans) PassEvent(e *obs.PassEvent) {
	if e.CacheHit || e.Err != "" {
		return
	}
	name, ok := passLayer[e.Pass]
	if !ok {
		name = "pass." + e.Pass
	}
	end := p.s.tr.now()
	p.s.tr.spans = append(p.s.tr.spans, span{name: name, op: p.s.op, parent: p.s.parent,
		start: end - e.Duration.Nanoseconds(), end: end})
}

// selfTimes is the per-layer self time of a run: for each root span name,
// how many roots there were and each span name's total self time
// (duration minus the time its children cover) beneath them.
type selfTimes struct {
	roots map[string]int
	self  map[string]map[string]int64
}

func computeSelfTimes(ts *traceSet) selfTimes {
	st := selfTimes{roots: map[string]int{}, self: map[string]map[string]int64{}}
	if ts == nil {
		return st
	}
	for _, t := range ts.tracers {
		cover := make([]int64, len(t.spans))
		rootOf := make([]int32, len(t.spans))
		for i, s := range t.spans {
			if s.parent < 0 {
				rootOf[i] = int32(i)
				st.roots[s.name]++
				continue
			}
			rootOf[i] = rootOf[s.parent]
			cover[s.parent] += s.end - s.start
		}
		for i, s := range t.spans {
			root := t.spans[rootOf[i]].name
			if st.self[root] == nil {
				st.self[root] = map[string]int64{}
			}
			st.self[root][s.name] += s.end - s.start - cover[i]
		}
	}
	return st
}

// layer sums a span name's self time over every root whose name
// satisfies keep.
func (st selfTimes) layer(name string, keep func(root string) bool) (ns int64, roots int) {
	for root, m := range st.self {
		if keep(root) {
			ns += m[name]
			roots += st.roots[root]
		}
	}
	return ns, roots
}

// writeSpans writes every span as one JSON object per line. Span ids are
// global across tracers; parent -1 marks a root.
func writeSpans(path string, ts *traceSet) error {
	if ts == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	base := 0
	for _, t := range ts.tracers {
		for i, s := range t.spans {
			parent := -1
			if s.parent >= 0 {
				parent = base + int(s.parent)
			}
			fmt.Fprintf(w, `{"id":%d,"name":%q,"op":%d,"parent":%d,"start_ns":%d,"end_ns":%d}`+"\n",
				base+i, s.name, s.op, parent, s.start, s.end)
		}
		base += len(t.spans)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
