package haten2_test

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	haten2 "github.com/haten2/haten2"
)

func TestParafacSaveLoadRoundTrip(t *testing.T) {
	x := smallTensor()
	c := haten2.NewCluster(haten2.ClusterConfig{Machines: 2})
	res, err := haten2.Parafac(c, x, 1, haten2.Options{Variant: haten2.DRI, MaxIters: 15, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := haten2.LoadParafac(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// λ and factors must be bit-identical.
	for i, v := range res.Lambda {
		if back.Lambda[i] != v {
			t.Fatalf("lambda[%d] %v != %v", i, back.Lambda[i], v)
		}
	}
	for m := 0; m < 3; m++ {
		a, b := res.Factors[m], back.Factors[m]
		if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
			t.Fatalf("factor %d shape mismatch", m)
		}
		for i := 0; i < a.Rows(); i++ {
			for j := 0; j < a.Cols(); j++ {
				if a.At(i, j) != b.At(i, j) {
					t.Fatalf("factor %d entry (%d,%d) differs", m, i, j)
				}
			}
		}
	}
	// The reloaded model predicts and fits identically.
	if math.Abs(back.Fit(x)-res.Fit(x)) > 1e-15 {
		t.Fatal("fit differs after reload")
	}
	if back.Predict(1, 1, 1) != res.Predict(1, 1, 1) {
		t.Fatal("prediction differs after reload")
	}
}

func TestTuckerSaveLoadRoundTrip(t *testing.T) {
	x := smallTensor()
	c := haten2.NewCluster(haten2.ClusterConfig{Machines: 2})
	res, err := haten2.Tucker(c, x, [3]int{1, 2, 1}, haten2.Options{Variant: haten2.DRI, MaxIters: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := haten2.LoadTucker(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p1, q1, r1 := res.Core.Dims()
	p2, q2, r2 := back.Core.Dims()
	if p1 != p2 || q1 != q2 || r1 != r2 {
		t.Fatalf("core dims differ: %d%d%d vs %d%d%d", p1, q1, r1, p2, q2, r2)
	}
	if back.Core.At(0, 1, 0) != res.Core.At(0, 1, 0) {
		t.Fatal("core entry differs")
	}
	if math.Abs(back.Fit(x)-res.Fit(x)) > 1e-15 {
		t.Fatal("fit differs after reload")
	}
	if back.Predict(2, 1, 0) != res.Predict(2, 1, 0) {
		t.Fatal("prediction differs after reload")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"not-a-model\n",
		"haten2-parafac-v1\nrank 0\n",
		"haten2-parafac-v1\nrank 2\n1.0\n", // wrong lambda arity
		"haten2-tucker-v1\ncore 0 1 1\n",
		"haten2-parafac-v1\nrank 1\n1\nmatrix 2 2\n1 2\n",         // truncated matrix
		"haten2-parafac-v1\nrank 1\n1\nmatrix 1 2\n1 2\n",         // factor cols != rank
		"haten2-tucker-v1\ncore 1 1 1\n1\nmatrix 2 2\n1 2\n3 4\n", // factor cols != core dim
	}
	for i, in := range cases {
		if _, err := haten2.LoadParafac(strings.NewReader(in)); err == nil {
			if _, err2 := haten2.LoadTucker(strings.NewReader(in)); err2 == nil {
				t.Fatalf("case %d: garbage accepted by both loaders", i)
			}
		}
	}
	// Cross-format: a Tucker file must be rejected by LoadParafac.
	x := smallTensor()
	c := haten2.NewCluster(haten2.ClusterConfig{Machines: 1})
	res, err := haten2.Tucker(c, x, [3]int{1, 1, 1}, haten2.Options{Variant: haten2.DRI, MaxIters: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := haten2.LoadParafac(&buf); err == nil {
		t.Fatal("LoadParafac accepted a Tucker file")
	}
}

func TestSaveLoadResumeWorkflow(t *testing.T) {
	// The full checkpoint story: run a few iterations, save, reload,
	// resume, and confirm the fit keeps improving from where it left off.
	x := smallTensor()
	c := haten2.NewCluster(haten2.ClusterConfig{Machines: 2})
	first, err := haten2.Parafac(c, x, 1, haten2.Options{Variant: haten2.DRI, MaxIters: 2, Seed: 1, TrackFit: true, Tol: 1e-15})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := first.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := haten2.LoadParafac(&buf)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := haten2.ResumeParafac(c, x, loaded, haten2.Options{Variant: haten2.DRI, MaxIters: 20, TrackFit: true, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Fit(x) < first.Fit(x)-1e-6 {
		t.Fatalf("resume regressed: %v -> %v", first.Fit(x), resumed.Fit(x))
	}
	if resumed.Fit(x) < 0.999 {
		t.Fatalf("resumed run did not finish the job: fit %v", resumed.Fit(x))
	}
}

// TestLoadLongLines pins the loader's line limits, which the scanner's
// starting buffer size must not move: a line longer than that starting
// buffer (64 KiB) loads, bit for bit, and a line past the 16 MiB cap is
// the scanner's own error.
func TestLoadLongLines(t *testing.T) {
	const rank = 6000 // 6000 × "0.3333333333333333 " > 64 KiB per line
	var b strings.Builder
	row := strings.TrimSuffix(strings.Repeat("0.3333333333333333 ", rank), " ")
	if len(row) <= 64<<10 {
		t.Fatalf("test line is only %d bytes", len(row))
	}
	fmt.Fprintf(&b, "haten2-parafac-v1\nrank %d\n%s\n", rank, row)
	for m := 0; m < 3; m++ {
		fmt.Fprintf(&b, "matrix 2 %d\n%s\n%s\n", rank, row, row)
	}
	res, err := haten2.LoadParafac(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("model with %d-byte lines: %v", len(row), err)
	}
	third := 1.0 / 3
	if len(res.Lambda) != rank || res.Lambda[rank-1] != third || res.Factors[2].At(1, rank-1) != third {
		t.Fatal("long-line model did not load bit for bit")
	}
	var out bytes.Buffer
	if err := res.Save(&out); err != nil || out.String() != b.String() {
		t.Fatalf("long-line model does not save back to its input (err %v)", err)
	}

	tooLong := "haten2-parafac-v1\nrank 1\n" + strings.Repeat("1", 1<<24) + "\n"
	if _, err := haten2.LoadParafac(strings.NewReader(tooLong)); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("16 MiB line: want bufio.ErrTooLong, got %v", err)
	}
}

// TestLoadHostileShapes pins that a model header is a claim, not an
// allocation request: a shape that overflows or exceeds a dense core is
// *ErrModelShape, and a huge but possible shape costs only what the
// lines that follow it justify — a file truncated after the header is
// an ordinary error, not a multi-gigabyte make (or a makeslice panic).
const (
	pHead = "haten2-parafac-v1\nrank 1\n1\n"
	tHead = "haten2-tucker-v1\n"
)

var hostileModels = []struct {
	name  string
	in    string
	shape bool // want *ErrModelShape
}{
	{"parafac overflowing", pHead + "matrix 4000000000 4000000000\n", true},
	{"parafac negative", pHead + "matrix -1 1\n", true},
	{"parafac huge, truncated after header", pHead + "matrix 4000000000 1\n", false},
	{"parafac huge, truncated after a row", pHead + "matrix 4000000000 1\n0.5\n", false},
	{"parafac huge columns", pHead + "matrix 1 4000000000\n0.5\n", false},
	{"tucker beyond a dense core", tHead + "core 4000000000 1 1\n", true},
	{"tucker overflowing", tHead + "core 4000000000 4000000000 4000000000\n", true},
	{"tucker largest core, truncated after header", tHead + "core 512 512 512\n", false},
	{"tucker huge factor, truncated after header", tHead + "core 1 1 1\n1\nmatrix 4000000000 1\n", false},
}

func TestLoadHostileShapes(t *testing.T) {
	for _, tc := range hostileModels {
		t.Run(tc.name, func(t *testing.T) {
			load := func(r io.Reader) error { _, err := haten2.LoadParafac(r); return err }
			if strings.HasPrefix(tc.in, tHead) {
				load = func(r io.Reader) error { _, err := haten2.LoadTucker(r); return err }
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := load(strings.NewReader(tc.in))
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("hostile model accepted")
			}
			var es *haten2.ErrModelShape
			if errors.As(err, &es) != tc.shape {
				t.Fatalf("error %v (%T), want ErrModelShape: %v", err, err, tc.shape)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 32<<20 {
				t.Fatalf("allocated %d MiB on the header's word", got>>20)
			}
		})
	}
}

// TestLoadGrowsPastPrealloc loads a factor larger than the loaders
// allocate up front, so its storage grows with the rows that arrive,
// and checks it still round-trips bit for bit.
func TestLoadGrowsPastPrealloc(t *testing.T) {
	const rows = 1<<20 + 1000
	var b strings.Builder
	b.WriteString("haten2-parafac-v1\nrank 1\n2\n")
	fmt.Fprintf(&b, "matrix %d 1\n", rows)
	for i := 0; i < rows; i++ {
		b.WriteString(strconv.FormatFloat(float64(i), 'g', -1, 64))
		b.WriteByte('\n')
	}
	b.WriteString("matrix 1 1\n0.1\nmatrix 1 1\n-3\n")
	res, err := haten2.LoadParafac(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if f := res.Factors[0]; f.Rows() != rows || f.Cols() != 1 || f.At(rows-1, 0) != rows-1 {
		t.Fatalf("factor 0 is %d×%d ending in %v", f.Rows(), f.Cols(), f.At(rows-1, 0))
	}
	var out bytes.Buffer
	if err := res.Save(&out); err != nil || out.String() != b.String() {
		t.Fatalf("model does not save back to its input (err %v)", err)
	}
}

// respelled returns two spellings of a saved model that load as the
// model itself: its values separated by U+00A0 and tabs, and its lines
// ended by CRLF.
func respelled(model string) []string {
	lines := strings.SplitAfter(model, "\n")
	for i, l := range lines {
		if l != "" && !strings.HasPrefix(l, "haten2-") && !strings.HasPrefix(l, "rank ") &&
			!strings.HasPrefix(l, "core ") && !strings.HasPrefix(l, "matrix ") {
			lines[i] = strings.ReplaceAll(l, " ", "\u00a0\t")
		}
	}
	return []string{strings.Join(lines, ""), strings.ReplaceAll(model, "\n", "\r\n")}
}

// TestLoadSeparators pins that whole saved models respelled with
// U+00A0 and tabs between values, or with CRLF line ends, load bit for
// bit. TestFieldBoundsMatchesStringsFields checks single lines.
func TestLoadSeparators(t *testing.T) {
	x := smallTensor()
	c := haten2.NewCluster(haten2.ClusterConfig{Machines: 1})
	pr, err := haten2.Parafac(c, x, 2, haten2.Options{Variant: haten2.DRI, MaxIters: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := haten2.Tucker(c, x, [3]int{2, 1, 2}, haten2.Options{Variant: haten2.DRI, MaxIters: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var ps, ts bytes.Buffer
	if err := pr.Save(&ps); err != nil {
		t.Fatal(err)
	}
	if err := tr.Save(&ts); err != nil {
		t.Fatal(err)
	}
	for i, in := range respelled(ps.String()) {
		m, err := haten2.LoadParafac(strings.NewReader(in))
		if err != nil {
			t.Fatalf("PARAFAC spelling %d: %v", i, err)
		}
		if !slices.Equal(modelBits(m.Lambda, m.Factors), modelBits(pr.Lambda, pr.Factors)) {
			t.Fatalf("PARAFAC spelling %d loads different values", i)
		}
	}
	for i, in := range respelled(ts.String()) {
		m, err := haten2.LoadTucker(strings.NewReader(in))
		if err != nil {
			t.Fatalf("Tucker spelling %d: %v", i, err)
		}
		if !slices.Equal(modelBits(m.Core.Unwrap().Data, m.Factors), modelBits(tr.Core.Unwrap().Data, tr.Factors)) {
			t.Fatalf("Tucker spelling %d loads different values", i)
		}
	}
}

// modelBits flattens every value a model file persists — weights or
// core first, then the three factors — to its IEEE-754 bits.
func modelBits(head []float64, factors [3]*haten2.Matrix) []uint64 {
	var bits []uint64
	for _, v := range head {
		bits = append(bits, math.Float64bits(v))
	}
	for _, f := range factors {
		bits = append(bits, uint64(f.Rows()), uint64(f.Cols()))
		for _, v := range f.Unwrap().Data {
			bits = append(bits, math.Float64bits(v))
		}
	}
	return bits
}

// FuzzLoadModel feeds both model loaders arbitrary text. They may
// reject it, never panic; and a model either accepts must be a fixed
// point of Save → Load: it saves, the saved file loads, and every value
// comes back with the same bits.
func FuzzLoadModel(f *testing.F) {
	x := smallTensor()
	c := haten2.NewCluster(haten2.ClusterConfig{Machines: 1})
	var buf bytes.Buffer
	pr, err := haten2.Parafac(c, x, 2, haten2.Options{Variant: haten2.DRI, MaxIters: 2, Seed: 1})
	if err != nil || pr.Save(&buf) != nil {
		f.Fatal("seeding a PARAFAC model: ", err)
	}
	f.Add(buf.String())
	for _, in := range respelled(buf.String()) {
		f.Add(in)
	}
	buf.Reset()
	tr, err := haten2.Tucker(c, x, [3]int{2, 1, 2}, haten2.Options{Variant: haten2.DRI, MaxIters: 2, Seed: 2})
	if err != nil || tr.Save(&buf) != nil {
		f.Fatal("seeding a Tucker model: ", err)
	}
	f.Add(buf.String())
	for _, in := range respelled(buf.String()) {
		f.Add(in)
	}
	f.Add("haten2-parafac-v1\nrank 2\n1 2 x\n") // one field too many, and unparsable
	for _, tc := range hostileModels {
		f.Add(tc.in)
	}

	f.Fuzz(func(t *testing.T, in string) {
		if m, err := haten2.LoadParafac(strings.NewReader(in)); err == nil {
			checkReload(t, m, haten2.LoadParafac, func(m *haten2.ParafacResult) []uint64 {
				return modelBits(m.Lambda, m.Factors)
			})
		}
		if m, err := haten2.LoadTucker(strings.NewReader(in)); err == nil {
			checkReload(t, m, haten2.LoadTucker, func(m *haten2.TuckerResult) []uint64 {
				return modelBits(m.Core.Unwrap().Data, m.Factors)
			})
		}
	})
}

// checkReload asserts that a model a loader accepted saves, that the
// saved file loads, and that every value comes back with the same bits.
func checkReload[M interface{ Save(io.Writer) error }](t *testing.T, m M, load func(io.Reader) (M, error), bits func(M) []uint64) {
	t.Helper()
	var saved bytes.Buffer
	if err := m.Save(&saved); err != nil {
		t.Fatalf("accepted model failed to save: %v", err)
	}
	back, err := load(&saved)
	if err != nil {
		t.Fatalf("saved model failed to load: %v", err)
	}
	if got, want := bits(back), bits(m); !slices.Equal(got, want) {
		t.Fatalf("model changed across Save → Load:\n%x\n%x", want, got)
	}
}
