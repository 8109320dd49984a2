package gen

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/haten2/haten2/internal/tensor"
)

// FuzzReadLabeledCOO exercises the labeled loader that haten2serve and
// conceptminer read tensors through: it must never panic, and every
// tensor it accepts must round-trip through WriteCOO/ReadCOO with the
// same shape, coordinates and values.
func FuzzReadLabeledCOO(f *testing.F) {
	seeds := []string{
		"",
		"# subject 0 s0\n# object 1 o1\n# predicate 0 p0\n# tensor 2 2 1\n0 1 0 2.5\n",
		"# subject x s0\n0 0 0 1\n",            // non-numeric id: passed through as a comment
		"# subject -3 neg\n0 0 0 1\n",          // negative id
		"# subject 99999999999999999999 big\n", // id overflows int64
		"# object 1\n0 0 0 1\n",                // too few fields
		"# relation 0 r0\n0 0 0 1\n",           // unknown mode
		"# predicate 0 two words\n0 0 0 1\n",
		"# subject 0 s0\nnot a tensor line\n",
		"0 0 0 NaN\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		x, _, err := ReadLabeledCOO(strings.NewReader(in))
		if err != nil {
			return // rejection is fine; panics are not
		}
		var buf bytes.Buffer
		if err := tensor.WriteCOO(&buf, x); err != nil {
			t.Fatalf("accepted tensor failed to serialize: %v", err)
		}
		back, err := tensor.ReadCOO(&buf)
		if err != nil {
			t.Fatalf("serialized tensor failed to parse: %v", err)
		}
		if !slices.Equal(back.Dims(), x.Dims()) || back.NNZ() != x.NNZ() {
			t.Fatalf("round trip changed shape: %v/%d vs %v/%d",
				back.Dims(), back.NNZ(), x.Dims(), x.NNZ())
		}
		for p := 0; p < x.NNZ(); p++ {
			if !slices.Equal(back.Index(p), x.Index(p)) ||
				math.Float64bits(back.Value(p)) != math.Float64bits(x.Value(p)) {
				t.Fatalf("entry %d: %v=%v round-tripped to %v=%v",
					p, x.Index(p), x.Value(p), back.Index(p), back.Value(p))
			}
		}
	})
}
