package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// tracer keeps the spans of a traced run in memory until the run ends.
// Spans are recorded around the benchmark's own calls into each layer's
// public functions, and the stages of each X-Request-Stages trailer
// become child spans of their request. Only the goroutine that drives
// the workload records spans, so the tracer needs no lock.
//
// A nil *tracer records nothing: untraced rounds pass nil.
type tracer struct {
	t0    time.Time
	spans []span
}

// span is one recorded interval. Parent is -1 for a root span; Req
// groups the spans of one operation.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Req    int           `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	req := len(t.spans)
	if parent >= 0 {
		req = t.spans[parent].Req
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: parent, Req: req, Name: name,
		Start: time.Since(t.t0), End: -1,
	})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.t0)
}

// addChild records a finished child span of known duration that starts
// at start — how the server's stage timeline joins its request span.
func (t *tracer) addChild(name string, parent int, start, dur time.Duration) {
	if t == nil || parent < 0 {
		return
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: parent, Req: t.spans[parent].Req, Name: name,
		Start: start, End: start + dur,
	})
}

// selfTimes returns, per span name, the self time of every span of that
// name: its duration minus the part of its interval that its children
// cover.
func (t *tracer) selfTimes() map[string][]time.Duration {
	out := make(map[string][]time.Duration)
	if t == nil {
		return out
	}
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		if s.End < s.Start {
			continue // never closed
		}
		out[s.Name] = append(out[s.Name], s.End-s.Start-covered(s, children[s.ID]))
	}
	return out
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	curS, curE := time.Duration(-1), time.Duration(-1)
	flush := func() {
		if curE > curS {
			total += curE - curS
		}
	}
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if curE < 0 || s > curE {
			flush()
			curS, curE = s, e
			continue
		}
		curE = max(curE, e)
	}
	flush()
	return total
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
