package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// procStart is taken at package initialisation, the closest a Go program
// gets to its own exec time; set-up time and span offsets count from it.
var procStart = time.Now()

// span is one timed interval recorded by the benchmark's own code around a
// call into the system: process → workload → repetition → scale.Run, and
// probe → layer call. Offsets are microseconds since process start.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"` // 0 = root
	Name     string  `json:"name"`
	Workload string  `json:"workload,omitempty"`
	Rep      int     `json:"repetition,omitempty"`
	StartUS  float64 `json:"start_us"`
	EndUS    float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced run stays untraced.
type tracer struct {
	workload string
	spans    []span
	open     []int // stack of open span indexes
}

func sinceStartUS() float64 { return float64(time.Since(procStart).Nanoseconds()) / 1e3 }

// begin opens a span under the innermost open one and returns its handle.
func (t *tracer) begin(name string, rep int) int {
	if t == nil {
		return 0
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name,
		Workload: t.workload, Rep: rep, StartUS: sinceStartUS(),
	})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans)
}

// end closes the innermost open span, which must be the one begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	i := t.open[len(t.open)-1]
	if t.spans[i].ID != id {
		panic("bench: span closed out of order")
	}
	t.spans[i].EndUS = sinceStartUS()
	t.open = t.open[:len(t.open)-1]
}

// traceDoc is the on-disk form of a traced run.
type traceDoc struct {
	Spans []span `json:"spans"`
}

func writeTrace(dir string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(traceDoc{Spans: spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace.json"), raw, 0o644)
}

func readTrace(dir string) ([]span, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		return nil, err
	}
	var d traceDoc
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, err
	}
	return d.Spans, nil
}
