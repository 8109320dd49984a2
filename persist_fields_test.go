package haten2

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

// TestFieldBoundsMatchesStringsFields checks the loader's field splitter
// against strings.Fields, which shares no code with it, on 10,000 random
// lines of digits, ".eE+-", every ASCII space, U+0085, U+00A0, U+2003,
// U+3000 and invalid UTF-8. Half the lines are drawn from the ASCII
// symbols only, so both of the loader's paths are exercised.
//
// fieldBounds must cut an all-ASCII line exactly as strings.Fields does
// and decline every other line. Through LoadParafac, the line as a
// model's λ line must load to the values of strings.Fields' fields, or
// be rejected when one of them does not parse; with one value too many
// asked for, it must be the count that is reported.
func TestFieldBoundsMatchesStringsFields(t *testing.T) {
	ascii := []string{"0", "1", "2", "3", "4", "5", "6", "7", "8", "9", ".", "e", "E", "+", "-",
		"\t", "\n", "\v", "\f", "\r", " "}
	all := append(slices.Clip(ascii), "\u0085", "\u00a0", "\u2003", "\u3000", "\xff", "\x80", "\xc3")
	rng := rand.New(rand.NewSource(1))
	loaded, rejected := 0, 0
	for n := 0; n < 10000; n++ {
		symbols := all
		if n%2 == 0 {
			symbols = ascii
		}
		var b strings.Builder
		for k := rng.Intn(24); k > 0; k-- {
			b.WriteString(symbols[rng.Intn(len(symbols))])
		}
		line := b.String()
		want := strings.Fields(line)
		wide := strings.ContainsFunc(line, func(r rune) bool { return r >= utf8.RuneSelf })

		bounds, isASCII := fieldBounds(nil, []byte(line))
		if isASCII == wide {
			t.Fatalf("%q: fieldBounds says ASCII %v", line, isASCII)
		}
		if isASCII {
			var got []string
			for k := 0; k < len(bounds); k += 2 {
				got = append(got, line[bounds[k]:bounds[k+1]])
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%q: fieldBounds cut %q, strings.Fields %q", line, got, want)
			}
		}

		if len(want) == 0 || strings.Contains(line, "\n") {
			continue // not a value line of a model file
		}
		var vals []float64
		parses := true
		for _, f := range want {
			v, err := strconv.ParseFloat(f, 64)
			parses = parses && err == nil
			vals = append(vals, v)
		}
		ones := strings.TrimSpace(strings.Repeat("1 ", len(want)))
		model := func(rank int) string {
			var m strings.Builder
			fmt.Fprintf(&m, "haten2-parafac-v1\nrank %d\n%s\n", rank, line)
			for k := 0; k < 3; k++ {
				fmt.Fprintf(&m, "matrix 1 %d\n%s\n", rank, ones)
			}
			return m.String()
		}
		res, err := LoadParafac(strings.NewReader(model(len(want))))
		switch {
		case parses && err != nil:
			t.Fatalf("%q: fields %q parse, but the load failed: %v", line, want, err)
		case !parses && err == nil:
			t.Fatalf("%q: fields %q do not all parse, but the load succeeded", line, want)
		case parses && !slices.EqualFunc(res.Lambda, vals, func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b)
		}):
			t.Fatalf("%q: loaded λ %v, want %v", line, res.Lambda, vals)
		case !parses && !strings.HasPrefix(err.Error(), "haten2: line 3: strconv.ParseFloat"):
			t.Fatalf("%q: want a parse error on line 3, got %v", line, err)
		}
		if parses {
			loaded++
		} else {
			rejected++
		}
		countErr := fmt.Sprintf("haten2: line 3: want %d values, got %d", len(want)+1, len(want))
		if _, err := LoadParafac(strings.NewReader(model(len(want) + 1))); err == nil || err.Error() != countErr {
			t.Fatalf("%q with one value too many asked for: want %q, got %v", line, countErr, err)
		}
	}
	t.Logf("%d value lines loaded, %d rejected", loaded, rejected)
	if loaded < 500 || rejected < 500 {
		t.Fatalf("only %d lines loaded and %d rejected: the draw no longer exercises both outcomes", loaded, rejected)
	}
}
