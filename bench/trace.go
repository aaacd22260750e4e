package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around its own
// calls into the program. Op ties the spans of one rep or one request
// together; Parent is the index of the span that caused this one, -1 for
// a root.
type span struct {
	Name   string
	Op     string
	Parent int
	Start  time.Time
	End    time.Time
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is the untraced run.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// add records a span and returns its index for use as a parent.
func (t *tracer) add(name, op string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: start, End: end})
	return len(t.spans) - 1
}

// end closes a span recorded with a provisional End, for parents whose
// children are recorded while they are still open.
func (t *tracer) end(id int, end time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// selfSeconds returns, per span name, the summed self time: each span's
// duration minus the part of it its children cover.
func selfSeconds(spans []span) map[string]float64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]float64)
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start.Before(spans[kids[b]].Start) })
		covered := time.Duration(0)
		cursor := s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo.Before(cursor) {
				lo = cursor
			}
			if hi.After(s.End) {
				hi = s.End
			}
			if hi.After(lo) {
				covered += hi.Sub(lo)
				cursor = hi
			}
		}
		out[s.Name] += (s.End.Sub(s.Start) - covered).Seconds()
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace format,
// loadable in chrome://tracing and Perfetto.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs since the first span
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"` // nesting depth, so children draw under parents
	Args map[string]any `json:"args"`
}

type chromeTrace struct {
	TraceEvents []chromeEvent      `json:"traceEvents"`
	Environment environment        `json:"environment"`
	Workload    string             `json:"workload"`
	SelfSeconds map[string]float64 `json:"self_seconds"`
}

// writeTrace writes every recorded span to path as Chrome-trace JSON.
func (t *tracer) writeTrace(path, workload string, env environment) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()

	origin := time.Time{}
	for _, s := range spans {
		if origin.IsZero() || s.Start.Before(origin) {
			origin = s.Start
		}
	}
	depth := make([]int, len(spans))
	out := chromeTrace{Environment: env, Workload: workload, SelfSeconds: selfSeconds(spans), TraceEvents: []chromeEvent{}}
	for i, s := range spans {
		for p := s.Parent; p >= 0; p = spans[p].Parent {
			depth[i]++
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: s.Name, Cat: workload, Ph: "X",
			Ts:  float64(s.Start.Sub(origin).Nanoseconds()) / 1e3,
			Dur: float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: depth[i],
			Args: map[string]any{"id": i, "parent": s.Parent, "op": s.Op},
		})
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
