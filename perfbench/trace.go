package main

import (
	"encoding/json"
	"io"
	"time"
)

// maxSpans caps how many spans a tracer retains for the dump; spans past
// the cap still count in the per-name totals the per-layer metrics read.
const maxSpans = 1 << 16

// span is one timed call into a layer. Start and End are nanoseconds since
// the tracer's origin; Parent is 0 for a root span; Req groups the spans of
// one request (one Solve, one wire batch).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and per-name totals. It belongs to one
// goroutine; a nil tracer records nothing, so untraced runs pay one nil
// check per boundary.
type tracer struct {
	origin time.Time
	next   int64
	spans  []span
	total  map[string]time.Duration
	count  map[string]int64
}

// newTracer starts a tracer whose span IDs begin above stream<<40, so the
// tracers of concurrent goroutines merge without ID clashes.
func newTracer(origin time.Time, stream int) *tracer {
	return &tracer{origin: origin, next: int64(stream) << 40,
		total: map[string]time.Duration{}, count: map[string]int64{}}
}

// openSpan is a span in flight.
type openSpan struct {
	id, parent, req int64
	name            string
	start           time.Time
}

func (t *tracer) begin(name string, parent, req int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	t.next++
	return openSpan{id: t.next, parent: parent, req: req, name: name, start: time.Now()}
}

// end closes o and returns its duration (0 on a nil tracer).
func (t *tracer) end(o openSpan) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Now()
	d := now.Sub(o.start)
	t.add(o.name, d)
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{
			ID: o.id, Parent: o.parent, Req: o.req, Name: o.name,
			Start: int64(o.start.Sub(t.origin)), End: int64(now.Sub(t.origin)),
		})
	}
	return d
}

// add counts a duration measured elsewhere (a phase time the program
// reports itself, such as Result.Decomp) under name.
func (t *tracer) add(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.total[name] += d
	t.count[name]++
}

// mean returns the mean duration recorded under name.
func (t *tracer) mean(name string) time.Duration {
	if t == nil || t.count[name] == 0 {
		return 0
	}
	return t.total[name] / time.Duration(t.count[name])
}

// merge folds another goroutine's tracer into t once both have stopped.
func (t *tracer) merge(o *tracer) {
	if t == nil || o == nil {
		return
	}
	for name, d := range o.total {
		t.total[name] += d
		t.count[name] += o.count[name]
	}
	room := maxSpans - len(t.spans)
	if room > len(o.spans) {
		room = len(o.spans)
	}
	t.spans = append(t.spans, o.spans[:room]...)
}

// dump writes the retained spans as JSON lines after a header line.
func (t *tracer) dump(w io.Writer, header any) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		return err
	}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}
