package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestSpanNesting(t *testing.T) {
	tr := NewTracer()
	run := tr.Begin("run", "r")
	iter := tr.Begin("iter", "i0")
	tr.Emit("job", "j1", 2.5, Counter{Key: "recs", Val: 10})
	tr.Emit("job", "j2", 1.5)
	tr.End(iter)
	tr.End(run, Counter{Key: "total", Val: 2})
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("want 4 spans, got %d", len(spans))
	}
	if spans[0].Parent != 0 || spans[1].Parent != spans[0].ID ||
		spans[2].Parent != spans[1].ID || spans[3].Parent != spans[1].ID {
		t.Fatalf("wrong parents: %+v", spans)
	}
	if got := tr.clock; got != 4.0 {
		t.Fatalf("clock: want 4.0, got %g", got)
	}
	if spans[0].Dur != 4.0 || spans[1].Dur != 4.0 {
		t.Fatalf("enclosing spans should cover their children's time: %+v", spans[:2])
	}
	if spans[2].Start != 0 || spans[3].Start != 2.5 {
		t.Fatalf("leaf starts should tile the clock: %+v", spans[2:])
	}
	if counter(spans[3], "total") != 0 || counter(spans[0], "total") != 2 {
		t.Fatal("End counters attached to the wrong span")
	}
	if counter(spans[2], "recs") != 10 || counter(spans[2], "absent") != 0 {
		t.Fatal("counter lookup wrong")
	}
}

func TestEndClosesAbandonedChildren(t *testing.T) {
	tr := NewTracer()
	outer := tr.Begin("run", "r")
	tr.Begin("iter", "abandoned") // error path never ends it
	tr.Emit("job", "j", 1.0)
	tr.End(outer)
	spans := tr.Spans()
	if spans[1].Dur != 1.0 {
		t.Fatalf("abandoned child should be closed by the outer End, got dur %g", spans[1].Dur)
	}
	// Ending an already-closed or unknown ID is a no-op.
	tr.End(outer)
	tr.End(999)
	if got := len(tr.Spans()); got != 3 {
		t.Fatalf("no-op Ends must not add spans, got %d", got)
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	id := tr.Begin("run", "r")
	tr.End(id)
	tr.Emit("job", "j", 1.0)
	if tr.Spans() != nil {
		t.Fatal("nil tracer should observe nothing")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "[]\n" {
		t.Fatalf("nil tracer should export an empty array, got %q", buf.String())
	}
}

func TestChromeTraceFormat(t *testing.T) {
	tr := NewTracer()
	id := tr.Begin("run", `quo"te\`)
	tr.Emit("job", "j\x01", 0.5, Counter{Key: "recs", Val: 7})
	tr.End(id)
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "[\n") || !strings.HasSuffix(out, "\n]\n") {
		t.Fatalf("not a JSON array: %q", out)
	}
	for _, want := range []string{
		`{"name":"quo\"te\\","cat":"run","ph":"X","ts":0,"dur":500000,"pid":1,"tid":1,"args":{"id":1,"parent":0}}`,
		`{"name":"j\u0001","cat":"job","ph":"X","ts":0,"dur":500000,"pid":1,"tid":1,"args":{"id":2,"parent":1,"recs":7}}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %s in:\n%s", want, out)
		}
	}
	// Repeated exports are byte-identical.
	var buf2 bytes.Buffer
	if err := tr.WriteChromeTrace(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("repeated exports differ")
	}
}

func TestDurationsTile(t *testing.T) {
	// Sibling phases with awkward fractional durations must tile the
	// parent exactly in integer microseconds (ends are rounded, not
	// durations, so rounding never accumulates).
	tr := NewTracer()
	id := tr.Begin("job", "j")
	tr.Emit("phase", "a", 1.0000004)
	tr.Emit("phase", "b", 1.0000004)
	tr.Emit("phase", "c", 1.0000004)
	tr.End(id)
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	sum := int64(0)
	for _, s := range spans[1:] {
		sum += usec(s.Start+s.Dur) - usec(s.Start)
	}
	if parent := usec(spans[0].Start+spans[0].Dur) - usec(spans[0].Start); parent != sum {
		t.Fatalf("phases (%dus) do not tile the job (%dus)", sum, parent)
	}
}

func TestWriteSummary(t *testing.T) {
	tr := NewTracer()
	for i := 0; i < 2; i++ {
		id := tr.Begin("job", "imhp(X,1,2)")
		tr.Emit("phase", "map", 10)
		tr.End(id,
			Counter{Key: "shuffle.records", Val: 100},
			Counter{Key: "shuffle.bytes", Val: 2 << 20},
			Counter{Key: "input.bytes", Val: 1 << 20},
			Counter{Key: "output.bytes", Val: 1 << 19},
			Counter{Key: "retries", Val: 1},
		)
	}
	id := tr.Begin("job", "merge")
	tr.Emit("phase", "map", 5)
	tr.End(id, Counter{Key: "shuffle.records", Val: 7})
	tr.End(tr.Begin("run", "ignored-kind"))
	var buf bytes.Buffer
	if err := tr.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want header + 2 job rows + total, got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "imhp(X,1,2)") || !strings.HasPrefix(lines[2], "merge") {
		t.Fatalf("rows out of first-seen order:\n%s", out)
	}
	for _, want := range []string{"200", "4.00", "20.00", "2", "207"} {
		// 2 runs x 100 shuffle recs, 2x2MB shuffle, 2x10s sim, 2
		// retries, 207 total records.
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}
