//go:build !race

package haten2_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	haten2 "github.com/haten2/haten2"
)

// modelText writes a model file with rows rows per factor: a rank-8
// PARAFAC model, or a Tucker model with a 4×4×4 core. Its values are
// seeded random numbers of varied magnitude and length.
func modelText(tucker bool, rows int) string {
	rng := rand.New(rand.NewSource(int64(rows)))
	var b strings.Builder
	line := func(n int) {
		for j := 0; j < n; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			v := rng.NormFloat64() * float64(int64(1)<<rng.Intn(40)) / (1 << 20)
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		b.WriteByte('\n')
	}
	cols := 8
	if tucker {
		cols = 4
		b.WriteString("haten2-tucker-v1\ncore 4 4 4\n")
		for i := 0; i < 64; i++ {
			line(1)
		}
	} else {
		b.WriteString("haten2-parafac-v1\nrank 8\n")
		line(cols)
	}
	for m := 0; m < 3; m++ {
		fmt.Fprintf(&b, "matrix %d %d\n", rows, cols)
		for i := 0; i < rows; i++ {
			line(cols)
		}
	}
	return b.String()
}

// TestSaveLoadAllocs pins that persistence allocates per model, not per
// value: Save's and Load's allocation counts are the same for factors of
// 1,000 and 8,000 rows, and small. A value formatted or parsed through a
// string of its own would add an allocation per value.
func TestSaveLoadAllocs(t *testing.T) {
	type saver interface{ Save(io.Writer) error }
	loaders := map[string]func(io.Reader) (saver, error){
		"parafac": func(r io.Reader) (saver, error) { return haten2.LoadParafac(r) },
		"tucker":  func(r io.Reader) (saver, error) { return haten2.LoadTucker(r) },
	}
	for kind, load := range loaders {
		t.Run(kind, func(t *testing.T) {
			var saves, loads []float64
			for _, rows := range []int{1000, 8000} {
				text := modelText(kind == "tucker", rows)
				m, err := load(strings.NewReader(text))
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				out.Grow(2 * len(text))
				saves = append(saves, testing.AllocsPerRun(5, func() {
					out.Reset()
					if err := m.Save(&out); err != nil {
						t.Fatal(err)
					}
				}))
				if out.String() != text {
					t.Fatalf("%d rows: model does not save back to its input", rows)
				}
				loads = append(loads, testing.AllocsPerRun(5, func() {
					if _, err := load(strings.NewReader(text)); err != nil {
						t.Fatal(err)
					}
				}))
			}
			t.Logf("Save allocs %v, Load allocs %v at 1,000 and 8,000 rows", saves, loads)
			if saves[0] != saves[1] || saves[1] > 32 {
				t.Errorf("Save makes %v allocations at 1,000 and 8,000 rows, want the same count ≤ 32", saves)
			}
			if loads[0] != loads[1] || loads[1] > 64 {
				t.Errorf("Load makes %v allocations at 1,000 and 8,000 rows, want the same count ≤ 64", loads)
			}
		})
	}
}

// BenchmarkModelRoundTrip saves and reloads a rank-8 PARAFAC model of
// 65,536 rows per factor, the size of the benchmark's tall model.
func BenchmarkModelRoundTrip(b *testing.B) {
	text := modelText(false, 1<<16)
	m, err := haten2.LoadParafac(strings.NewReader(text))
	if err != nil {
		b.Fatal(err)
	}
	var out bytes.Buffer
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Reset()
		if err := m.Save(&out); err != nil {
			b.Fatal(err)
		}
		if _, err := haten2.LoadParafac(&out); err != nil {
			b.Fatal(err)
		}
	}
}
