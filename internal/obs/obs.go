// Package obs is the deterministic tracing and metrics layer of the
// simulator. A Tracer records a tree of spans — ALS runs, iterations,
// plan stages, MapReduce jobs, and map/shuffle/reduce phases — stamped
// with *simulated* time from the engine's cost model, never the wall
// clock. Because every timestamp is derived from the deterministic
// counters of section 3 of DESIGN.md and spans are recorded in
// submission order, an exported trace is byte-identical across runs and
// GOMAXPROCS settings, which lets golden trace files serve as tier-1
// fixtures pinning the job plan, phase ordering, and counter
// attribution of every algorithm variant.
package obs

import "sync"

// Counter is one named integer measurement attached to a span (records
// shuffled, bytes read, retries, ...). Counters are kept as an ordered
// slice, not a map, so exporters emit them in a fixed order.
type Counter struct {
	Key string
	Val int64
}

// Span is one node of the trace tree. Start and Dur are simulated
// seconds since the start of the trace.
type Span struct {
	// ID is the 1-based span identifier; Parent is the ID of the
	// enclosing span, or 0 for roots.
	ID     int
	Parent int
	// Kind classifies the span ("run", "iter", "mode", "plan", "stage",
	// "job", "phase"); Name identifies it within its kind.
	Kind string
	Name string
	// Start and Dur are in simulated seconds.
	Start    float64
	Dur      float64
	Counters []Counter
}

// Tracer accumulates spans on a simulated clock. The zero value is
// ready to use, and all methods are safe on a nil receiver (they do
// nothing), so instrumented code needs no "is tracing on?" branches
// beyond a nil check the caller already paid for.
//
// The clock advances only through Emit: a leaf span carries its own
// simulated duration (computed by the engine's cost model), and an
// enclosing Begin/End span spans exactly the clock its children
// advanced. Methods are serialized by a mutex, but — like the fault
// plan's job sequence — deterministic span *order* assumes spans are
// submitted in a deterministic order, which holds because drivers run
// job chains sequentially.
type Tracer struct {
	mu    sync.Mutex
	clock float64
	spans []Span
	stack []int // open span IDs, innermost last
}

// NewTracer returns an empty tracer with its clock at zero.
func NewTracer() *Tracer { return &Tracer{} }

// Begin opens a span enclosing every span recorded until the matching
// End. It returns the span's ID (0 on a nil tracer).
func (t *Tracer) Begin(kind, name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{
		ID:     id,
		Parent: t.top(),
		Kind:   kind,
		Name:   name,
		Start:  t.clock,
		Dur:    -1, // open; set by End
	})
	t.stack = append(t.stack, id)
	return id
}

// End closes the span opened by Begin, setting its duration to the
// simulated time its children advanced and attaching cs. Inner spans
// still open are closed too (error paths abandon them); ending an
// unknown or already-closed ID is a no-op.
func (t *Tracer) End(id int, cs ...Counter) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	at := -1
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i] == id {
			at = i
			break
		}
	}
	if at < 0 {
		return
	}
	for _, open := range t.stack[at:] {
		sp := &t.spans[open-1]
		sp.Dur = t.clock - sp.Start
	}
	t.stack = t.stack[:at]
	sp := &t.spans[id-1]
	sp.Counters = append(sp.Counters, cs...)
}

// Emit records a leaf span of the given simulated duration under the
// innermost open span and advances the clock by dur. This is the only
// way simulated time passes.
func (t *Tracer) Emit(kind, name string, dur float64, cs ...Counter) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{
		ID:       id,
		Parent:   t.top(),
		Kind:     kind,
		Name:     name,
		Start:    t.clock,
		Dur:      dur,
		Counters: cs,
	})
	t.clock += dur
}

// top returns the innermost open span ID, or 0. Callers hold t.mu.
func (t *Tracer) top() int {
	if len(t.stack) == 0 {
		return 0
	}
	return t.stack[len(t.stack)-1]
}

// Spans returns a copy of the recorded spans in submission order. Open
// spans have Dur == -1.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// counter returns the value of the named counter on s, or 0.
func counter(s Span, key string) int64 {
	for _, c := range s.Counters {
		if c.Key == key {
			return c.Val
		}
	}
	return 0
}
