package main

import (
	"context"
	"encoding/json"
	"os"
	"sync"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files: name, start, end (ns on the run clock), the span that caused it
// (−1 for none) and the frame it belongs to (−1 outside the frame path).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Frame  int    `json:"frame"`
}

// tracer holds spans in memory until the run ends. A nil tracer records
// nothing, which is how end-to-end runs keep tracing off.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func newTracer(capacity int) *tracer { return &tracer{spans: make([]span, 0, capacity)} }

type spanKey struct{}

// open starts a span under an explicit parent.
func (t *tracer) open(name string, parent, frame int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Frame: frame})
	t.spans[id].Start = now()
	t.mu.Unlock()
	return id
}

// begin starts a span caused by whatever span ctx carries.
func (t *tracer) begin(name string, ctx context.Context) int {
	if t == nil {
		return -1
	}
	parent, frame := -1, -1
	if id, ok := ctx.Value(spanKey{}).(int); ok {
		t.mu.Lock()
		parent, frame = id, t.spans[id].Frame
		t.mu.Unlock()
	}
	return t.open(name, parent, frame)
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	e := now()
	t.mu.Lock()
	t.spans[id].End = e
	t.mu.Unlock()
}

// within returns ctx carrying span id as the cause of spans begun under it.
func (t *tracer) within(ctx context.Context, id int) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, id)
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	buf, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
