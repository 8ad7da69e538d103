package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// span is one timed call the benchmark made into a layer: its name,
// start and end on the benchmark clock, the span that contains it
// (index+1 into the trace; 0 for none) and the operation it served (a
// commit or request number).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
}

// tracer keeps spans in memory for the traced run. A nil tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	mu     sync.Mutex
	spans  []span
	parent int
}

// add records a finished span under the current parent.
func (t *tracer) add(name string, start, end, op int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: t.parent, Op: op})
	t.mu.Unlock()
}

// within opens a parent span; spans added until the returned function
// runs are its children.
func (t *tracer) within(name string) func() {
	if t == nil {
		return func() {}
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now(), Parent: t.parent})
	id, prev := len(t.spans), t.parent
	t.parent = id
	t.mu.Unlock()
	return func() {
		t.mu.Lock()
		t.spans[id-1].End = now()
		t.parent = prev
		t.mu.Unlock()
	}
}

// timed runs fn as one span and returns its duration in nanoseconds.
func (t *tracer) timed(name string, op int64, fn func()) float64 {
	start := now()
	fn()
	end := now()
	t.add(name, start, end, op)
	return float64(end - start)
}

// write stores the spans as JSON lines in path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
