package obs

import (
	"io"
	"math"
	"strconv"
)

// WriteChromeTrace writes the spans as Chrome trace_event JSON (the
// format chrome://tracing and Perfetto load): one complete ("ph":"X")
// event per span, one event per line, timestamps in integer simulated
// microseconds. The output is rendered with no maps and no
// floating-point formatting, so it is byte-identical for identical
// span sequences — the property the golden trace fixtures pin.
//
// Span nesting is conveyed twice: structurally, by the id/parent pair
// in each event's args (what the golden diffs read), and temporally,
// by duration containment on the single emitted thread (what the
// trace viewers render).
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	t.mu.Lock()
	b := append(make([]byte, 0, 1<<16), '[', '\n')
	for i, s := range t.spans {
		if i > 0 {
			b = append(b, ',', '\n')
		}
		b = appendEvent(b, s)
	}
	b = append(b, '\n', ']', '\n')
	t.mu.Unlock()
	_, err := w.Write(b)
	return err
}

// appendEvent renders one span as a trace_event object.
func appendEvent(b []byte, s Span) []byte {
	ts := usec(s.Start)
	dur := int64(0)
	if s.Dur > 0 {
		// Render the end, not the duration, so sibling phases tile the
		// parent exactly despite rounding.
		dur = usec(s.Start+s.Dur) - ts
	}
	b = append(b, `{"name":`...)
	b = appendJSONString(b, s.Name)
	b = append(b, `,"cat":`...)
	b = appendJSONString(b, s.Kind)
	b = append(b, `,"ph":"X","ts":`...)
	b = strconv.AppendInt(b, ts, 10)
	b = append(b, `,"dur":`...)
	b = strconv.AppendInt(b, dur, 10)
	b = append(b, `,"pid":1,"tid":1,"args":{"id":`...)
	b = strconv.AppendInt(b, int64(s.ID), 10)
	b = append(b, `,"parent":`...)
	b = strconv.AppendInt(b, int64(s.Parent), 10)
	for _, c := range s.Counters {
		b = append(b, ',')
		b = appendJSONString(b, c.Key)
		b = append(b, ':')
		b = strconv.AppendInt(b, c.Val, 10)
	}
	b = append(b, '}', '}')
	return b
}

// usec converts simulated seconds to integer microseconds.
func usec(sec float64) int64 { return int64(math.Round(sec * 1e6)) }

// appendJSONString appends s as a JSON string literal. Span names are
// plain ASCII identifiers and file names, but escape defensively so an
// odd job name can never corrupt the JSON.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c < 0x20:
			const hex = "0123456789abcdef"
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}
