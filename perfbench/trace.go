package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// tracer keeps the spans of a traced run in memory and writes them at
// exit as JSONL in the format `tracescope report` and `critical` read.
// Spans are recorded only here, around the calls the benchmark makes
// into each layer; the program under test is not instrumented. A nil
// *tracer records nothing, so untraced runs pay one nil check per call.
// telemetry.Recorder is not used because it stamps one trace ID on
// every span it records, and each unit or request needs its own.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64

	mu     sync.Mutex
	events []telemetry.Event
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// span is one open interval. Every unit or request opens a root span
// with a fresh trace ID; layer calls inside it are its children.
type span struct {
	t      *tracer
	name   string
	trace  uint64
	id     uint64
	parent uint64
	start  time.Time
	attrs  map[string]any
}

// root opens the span of one unit or request.
func (t *tracer) root(name string) *span {
	if t == nil {
		return nil
	}
	id := t.nextID.Add(1)
	return &span{t: t, name: name, trace: id, id: id, start: time.Now()}
}

// child opens a layer span under s.
func (s *span) child(name string) *span {
	if s == nil {
		return nil
	}
	return &span{t: s.t, name: name, trace: s.trace, id: s.t.nextID.Add(1), parent: s.id, start: time.Now()}
}

// set attaches an integer work count to the span.
func (s *span) set(key string, v int64) {
	if s == nil {
		return
	}
	if s.attrs == nil {
		s.attrs = map[string]any{}
	}
	s.attrs[key] = v
}

// end closes the span and, when err is non-nil, marks it failed.
func (s *span) end(err error) {
	if s == nil {
		return
	}
	now := time.Now()
	if err != nil {
		s.set("failed", 1)
	}
	e := telemetry.Event{
		Type:    "span",
		Name:    s.name,
		Trace:   fmt.Sprintf("%016x", s.trace),
		ID:      s.id,
		Parent:  s.parent,
		StartUS: s.start.Sub(s.t.epoch).Microseconds(),
		DurUS:   now.Sub(s.start).Microseconds(),
		Attrs:   s.attrs,
	}
	s.t.mu.Lock()
	s.t.events = append(s.t.events, e)
	s.t.mu.Unlock()
}

// spans returns the recorded events, buildinfo header first.
func (t *tracer) spans() []telemetry.Event {
	bi := telemetry.GetBuildInfo()
	head := telemetry.Event{Type: "buildinfo", Name: bi.Module, Attrs: map[string]any{
		"go_version": bi.GoVersion, "revision": bi.Revision,
	}}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]telemetry.Event{head}, t.events...)
}

// writeJSONL writes events one JSON object per line.
func writeJSONL(path string, events []telemetry.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
