package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one benchmark-side interval around a call into a layer. Parent is
// the index of the span that caused it (-1 for a root); spans of one unit or
// op share Op.
type span struct {
	Layer  string
	Name   string
	Start  time.Duration // since the tracer's origin
	End    time.Duration
	Parent int
	Op     int
	Tid    int // client index; 0 for single-threaded workloads and probes
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the timed run pays one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(layer, name string, parent, op, tid int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Layer: layer, Name: name, Start: time.Since(t.t0), Parent: parent, Op: op, Tid: tid})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[i].End = time.Since(t.t0)
	t.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of it covered by
// the union of its direct children (children may overlap each other and may
// stick out of the parent; only the covered part of the parent counts).
func selfTimes(spans []span) []time.Duration {
	type iv struct{ lo, hi time.Duration }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.End - s.Start
		ivs := kids[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, edge := time.Duration(0), s.Start
		for _, k := range ivs {
			lo, hi := max(k.lo, edge), min(k.hi, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] -= covered
	}
	return out
}

// selfByLayer sums self time per layer, in milliseconds.
func selfByLayer(spans []span) map[string]float64 {
	out := map[string]float64{}
	for i, d := range selfTimes(spans) {
		out[spans[i].Layer] += float64(d) / float64(time.Millisecond)
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format,
// the format the repo's TRACE_*.json and job traces already use.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as a Chrome trace (chrome://tracing, Perfetto).
func (t *tracer) writeChrome(path, workload string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := make([]chromeEvent, len(spans))
	for i, s := range spans {
		events[i] = chromeEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X", Ts: us(s.Start), Dur: us(s.End - s.Start), Pid: 1, Tid: s.Tid,
			Args: map[string]any{"op": s.Op, "span": i, "parent": s.Parent, "self_us": us(self[i])},
		}
	}
	data, err := json.Marshal(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"workload": workload, "self_ms_by_layer": selfByLayer(spans)},
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
