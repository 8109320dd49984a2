package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"time"
)

// This file holds every wall-clock read of the benchmark. Wall time is
// the measured quantity here, which the repo's wallclock lint forbids
// everywhere it is not; keeping the reads in two functions keeps the
// exemption two annotations wide.

// now reads the wall clock.
//
//haten2:allow wallclock the benchmark measures wall time; this is its clock read
func now() time.Time { return time.Now() }

// since returns the seconds elapsed since t.
//
//haten2:allow wallclock the benchmark measures wall time; every duration it reports comes from here
func since(t time.Time) float64 { return time.Since(t).Seconds() }

// counter is one named measurement attached to a span when it ends.
type counter struct {
	Key string
	Val float64
}

// span is one timed call into a layer: name, start and end in seconds
// since the recorder's epoch, and the index of the span that caused it
// (-1 for a root).
type span struct {
	Name       string
	Parent     int
	Start, End float64
	Counters   []counter
}

// recorder keeps the spans of one traced pass in memory. It records
// from outside the program under test: the benchmark wraps its calls
// into each layer's exported functions. A nil recorder records nothing,
// so the untraced passes run the same code with tracing off. It is
// used from the pass's own goroutine only.
type recorder struct {
	epoch time.Time
	spans []span
	stack []int
}

func newRecorder() *recorder { return &recorder{epoch: now()} }

// begin opens a span under the innermost open one and returns its id.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if len(r.stack) > 0 {
		parent = r.stack[len(r.stack)-1]
	}
	r.spans = append(r.spans, span{Name: name, Parent: parent, Start: since(r.epoch), End: -1})
	id := len(r.spans) - 1
	r.stack = append(r.stack, id)
	return id
}

// end closes the innermost open span, which must be id.
func (r *recorder) end(id int, cs ...counter) {
	if r == nil {
		return
	}
	if len(r.stack) == 0 || r.stack[len(r.stack)-1] != id {
		panic(fmt.Sprintf("benchmark: span %d closed out of order", id))
	}
	r.stack = r.stack[:len(r.stack)-1]
	r.spans[id].End = since(r.epoch)
	r.spans[id].Counters = cs
}

// timed runs fn inside a span and returns its duration in seconds,
// with or without a recorder.
func (r *recorder) timed(name string, fn func() error) (float64, error) {
	id := r.begin(name)
	t0 := now()
	err := fn()
	d := since(t0)
	r.end(id)
	return d, err
}

// total sums the durations of the closed spans whose name passes match.
func (r *recorder) total(match func(name string) bool) float64 {
	if r == nil {
		return 0
	}
	var sum float64
	for _, s := range r.spans {
		if s.End >= 0 && match(s.Name) {
			sum += s.End - s.Start
		}
	}
	return sum
}

// writeChrome writes the spans as Chrome trace_event JSON (complete
// "X" events, microseconds), loadable in chrome://tracing or Perfetto.
func (r *recorder) writeChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"traceEvents":[`)
	for i, s := range r.spans {
		if i > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, "\n{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d",
			strconv.Quote(s.Name), s.Start*1e6, (s.End-s.Start)*1e6, i, s.Parent)
		for _, c := range s.Counters {
			fmt.Fprintf(bw, ",%s:%g", strconv.Quote(c.Key), c.Val)
		}
		bw.WriteString("}}")
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}
