package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the harness made into a layer. Spans of one
// operation share Op; Parent is the span that caused this one (0 for
// an operation's root). Times are nanoseconds since the tracer's base.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op_id"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Bytes  int64  `json:"bytes"`
}

// tracer records spans in memory for one goroutine; they are written
// out when the run ends. A nil tracer records nothing, which is how
// the runs that produce the end-to-end numbers call the same code.
//
// These spans are taken from outside, around the exported calls the
// harness makes. Spans inside the program are ROADMAP item 5.
type tracer struct {
	base  time.Time
	lane  int64 // high bits of every ID, so IDs differ between goroutines
	spans []span
}

const laneShift = 40

func newTracer(base time.Time, lane int) *tracer {
	return &tracer{base: base, lane: int64(lane) << laneShift}
}

// at returns the span with the given ID: the low bits of an ID are the
// span's position in the tracer that made it, plus one.
func (t *tracer) at(id int64) *span { return &t.spans[id-t.lane-1] }

// begin opens a span under parent and returns its ID.
func (t *tracer) begin(parent int64, layer, name string) int64 {
	if t == nil {
		return 0
	}
	id := t.lane + int64(len(t.spans)) + 1
	op := id
	if parent != 0 {
		op = t.at(parent).Op
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Layer: layer, Name: name, Start: int64(time.Since(t.base)), End: -1})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id, bytes int64) {
	if t == nil {
		return
	}
	sp := t.at(id)
	sp.End, sp.Bytes = int64(time.Since(t.base)), bytes
}

// writeTrace writes every tracer's spans to <dir>/<workload>.trace.json.
func writeTrace(dir, workload string, tracers ...*tracer) error {
	var all []span
	for _, t := range tracers {
		if t != nil {
			all = append(all, t.spans...)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".trace.json"), data, 0o644)
}
