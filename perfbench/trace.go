package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// maxKeptSpans bounds the spans kept for the trace file; aggregates cover
// every span regardless.
const maxKeptSpans = 100_000

// span is one timed call from the benchmark into a layer. Times are
// nanoseconds since the tracer's origin; Parent is -1 for a root span.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanAgg accumulates every span of one name.
type spanAgg struct {
	Count int64 `json:"count"`
	Total int64 `json:"total_ns"`
	Self  int64 `json:"self_ns"`
	Max   int64 `json:"max_ns"`
}

type openSpan struct {
	span
	childNs int64
}

// tracer records spans in memory around the benchmark's own calls. It
// belongs to one goroutine: the load generator. A nil *tracer records
// nothing, so untraced runs pay one pointer check per call site.
//
// A span's self time is its duration minus the time its children cover;
// children nest strictly (begin/end pairs on one goroutine), so the
// covered time is the sum of the children's durations.
type tracer struct {
	origin  time.Time
	nextID  int32
	stack   []openSpan
	kept    []span
	omitted int64
	agg     map[string]*spanAgg
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), agg: make(map[string]*spanAgg)}
}

func (t *tracer) since(ts time.Time) int64 { return ts.Sub(t.origin).Nanoseconds() }

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	t.push(name, time.Now())
}

func (t *tracer) push(name string, start time.Time) {
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].ID
	}
	t.stack = append(t.stack, openSpan{span: span{ID: t.nextID, Parent: parent, Name: name, Start: t.since(start)}})
	t.nextID++
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	t.pop(time.Now())
}

func (t *tracer) pop(end time.Time) {
	n := len(t.stack) - 1
	s := t.stack[n]
	t.stack = t.stack[:n]
	s.End = t.since(end)
	dur := s.End - s.Start
	if n > 0 {
		t.stack[n-1].childNs += dur
	}
	a := t.agg[s.Name]
	if a == nil {
		a = &spanAgg{}
		t.agg[s.Name] = a
	}
	a.Count++
	a.Total += dur
	a.Self += dur - s.childNs
	a.Max = max(a.Max, dur)
	if len(t.kept) < maxKeptSpans {
		t.kept = append(t.kept, s.span)
	} else {
		t.omitted++
	}
}

// record adds an interval the caller already timed as a leaf span.
func (t *tracer) record(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.push(name, start)
	t.pop(end)
}

// meanUs returns the mean duration of the named spans in microseconds.
func (t *tracer) meanUs(name string) float64 {
	if t == nil {
		return 0
	}
	if a := t.agg[name]; a != nil {
		return mean(float64(a.Total), a.Count) / 1e3
	}
	return 0
}

// selfUs returns the mean self time of the named spans in microseconds.
func (t *tracer) selfUs(name string) float64 {
	if t == nil {
		return 0
	}
	if a := t.agg[name]; a != nil {
		return mean(float64(a.Self), a.Count) / 1e3
	}
	return 0
}

// writeFile writes the environment stamp, the per-name aggregates and the
// kept spans as JSON lines under .bench_build/trace.
func (t *tracer) writeFile(workload string, seed int64, env stamp) (string, error) {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	header := map[string]any{"env": env, "workload": workload, "seed": seed, "aggregates": t.agg, "omitted_spans": t.omitted}
	if err := enc.Encode(header); err != nil {
		return "", err
	}
	for _, s := range t.kept {
		if err := enc.Encode(s); err != nil {
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}
