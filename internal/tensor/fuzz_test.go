package tensor

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzReadCOO exercises the text parser on arbitrary input: it must
// never panic, every value it accepts must be finite, and every tensor
// it accepts must round-trip through WriteCOO/ReadCOO unchanged.
func FuzzReadCOO(f *testing.F) {
	seeds := []string{
		"",
		"# tensor 2 3 4\n0 1 2 1.5\n",
		"0 0 0 1\n1 1 1 -2\n",
		"# tensor 2 2\n0 1 3.25\n",
		"# comment\n0 0 0 0 0 7\n",
		"0 0 0 1e308\n",
		"0 0 0 1e308\n0 0 0 1e308\n",
		"# tensor 1\n0 1\n",
		"a b c d\n",
		"# tensor -1 2 2\n",
		"9999999999999999999999 0 0 1\n",
		"0 0 0 nan\n",
		"0 0 0 +Inf\n",
		"9223372036854775807 0 0 1\n",
		"0 0 0 1\n0 0 1\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		x, err := ReadCOO(strings.NewReader(in))
		if err != nil {
			return // rejection is fine; panics are not
		}
		for p := 0; p < x.NNZ(); p++ {
			if v := x.Value(p); math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted non-finite value %v", v)
			}
		}
		var buf bytes.Buffer
		if err := WriteCOO(&buf, x); err != nil {
			t.Fatalf("accepted tensor failed to serialize: %v", err)
		}
		back, err := ReadCOO(&buf)
		if err != nil {
			t.Fatalf("serialized tensor failed to parse: %v", err)
		}
		if back.Order() != x.Order() || back.NNZ() != x.NNZ() {
			t.Fatalf("round trip changed shape: %v/%d vs %v/%d",
				back.Dims(), back.NNZ(), x.Dims(), x.NNZ())
		}
	})
}
