package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Times are nanoseconds since the tracer
// started; parent is the index of the enclosing span, -1 at the root.
type span struct {
	name       string
	start, end int64
	parent     int
}

// tracer keeps spans in memory for the traced run. A nil *tracer is the
// untraced run: begin and end cost one nil check.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of unfinished span indices
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, start: int64(time.Since(t.t0)), parent: parent})
	t.open = append(t.open, len(t.spans)-1)
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].end = int64(time.Since(t.t0))
}

// durationsSince returns the duration in nanoseconds of every span named
// name recorded at or after index mark.
func (t *tracer) durationsSince(mark int, name string) []float64 {
	var out []float64
	for _, s := range t.spans[mark:] {
		if s.name == name {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children. Overlapping children are
// merged, so the result never goes negative.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered := int64(0)
		curStart, curEnd := int64(0), int64(-1)
		for _, k := range kids {
			lo, hi := max(spans[k].start, s.start), min(spans[k].end, s.end)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				covered += max(curEnd-curStart, 0)
				curStart, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		covered += max(curEnd-curStart, 0)
		self[i] = s.end - s.start - covered
	}
	return self
}

// selfByName sums self time per span name, for the human summary.
func selfByName(spans []span) map[string]int64 {
	out := map[string]int64{}
	for i, st := range selfTimes(spans) {
		out[spans[i].name] += st
	}
	return out
}

// writeChromeTrace writes the spans as Chrome trace_event JSON (complete
// "X" events, microsecond timestamps) with each span's self time and
// parent in args.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := selfTimes(spans)
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:  float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3,
			Args: map[string]any{
				"id": i, "parent": s.parent, "self_us": float64(self[i]) / 1e3,
			},
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
