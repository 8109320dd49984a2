package haten2

// Model persistence: decompositions of big tensors are expensive, so
// results can be written to a stream and reloaded later with full
// Fit/Predict capability. The format is a line-oriented text format
// (stable, diffable, and byte-exact for float64 via %g round-tripping
// with strconv.ParseFloat).

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"github.com/haten2/haten2/internal/matrix"
	"github.com/haten2/haten2/internal/tensor"
)

const (
	parafacMagic = "haten2-parafac-v1"
	tuckerMagic  = "haten2-tucker-v1"
)

func writeMatrix(w *bufio.Writer, m *matrix.Matrix) error {
	if _, err := fmt.Fprintf(w, "matrix %d %d\n", m.Rows, m.Cols); err != nil {
		return err
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			if j > 0 {
				if err := w.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := w.WriteString(strconv.FormatFloat(v, 'g', -1, 64)); err != nil {
				return err
			}
		}
		if err := w.WriteByte('\n'); err != nil {
			return err
		}
	}
	return nil
}

type lineReader struct {
	sc   *bufio.Scanner
	line int
}

func newLineReader(r io.Reader) *lineReader {
	sc := bufio.NewScanner(r)
	// Lines of up to 16 MiB are accepted; the buffer starts at the
	// scanner's default and grows to fit, so loading a 50 KB model does
	// not allocate and clear a megabyte first.
	sc.Buffer(make([]byte, 0, bufio.MaxScanTokenSize), 1<<24)
	return &lineReader{sc: sc}
}

func (lr *lineReader) next() (string, error) {
	for lr.sc.Scan() {
		lr.line++
		s := strings.TrimSpace(lr.sc.Text())
		if s != "" {
			return s, nil
		}
	}
	if err := lr.sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("haten2: unexpected end of model data at line %d", lr.line)
}

// appendFloats parses the next line as exactly n values onto dst. The
// count is checked against the line before anything is allocated.
func (lr *lineReader) appendFloats(dst []float64, n int) ([]float64, error) {
	line, err := lr.next()
	if err != nil {
		return nil, err
	}
	fields := strings.Fields(line)
	if len(fields) != n {
		return nil, fmt.Errorf("haten2: line %d: want %d values, got %d", lr.line, n, len(fields))
	}
	for _, f := range fields {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("haten2: line %d: %v", lr.line, err)
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// ErrModelShape reports a model file whose header at Line declares a
// shape no model can have: a negative mode, a size that overflows, or a
// Tucker core larger than a dense tensor may be.
type ErrModelShape struct {
	Line  int
	Shape []int64
}

func (e *ErrModelShape) Error() string {
	return fmt.Sprintf("haten2: line %d: impossible model shape %v", e.Line, e.Shape)
}

// size returns the number of values in a block of the given shape, or
// *ErrModelShape when it is negative or exceeds limit.
func (lr *lineReader) size(limit int64, shape ...int64) (int, error) {
	total := int64(1)
	for _, d := range shape {
		if d < 0 || (d > 0 && total > limit/d) {
			return 0, &ErrModelShape{Line: lr.line, Shape: shape}
		}
		total *= d
	}
	return int(total), nil
}

// preallocLimit caps the values a loader allocates on a header's word
// alone (8 MiB of float64s). Past it storage grows with the lines that
// actually arrive, so memory follows the input's size, not its claims.
const preallocLimit = 1 << 20

// values reads rows lines of cols values each into one row-major slice;
// the caller has checked rows*cols with size.
func (lr *lineReader) values(rows, cols int) ([]float64, error) {
	data := make([]float64, 0, min(rows*cols, preallocLimit))
	for i := 0; i < rows; i++ {
		var err error
		if data, err = lr.appendFloats(data, cols); err != nil {
			return nil, err
		}
	}
	return data, nil
}

func (lr *lineReader) readMatrix() (*matrix.Matrix, error) {
	header, err := lr.next()
	if err != nil {
		return nil, err
	}
	var rows, cols int64
	if _, err := fmt.Sscanf(header, "matrix %d %d", &rows, &cols); err != nil {
		return nil, fmt.Errorf("haten2: line %d: bad matrix header %q", lr.line, header)
	}
	if _, err := lr.size(math.MaxInt, rows, cols); err != nil {
		return nil, err
	}
	data, err := lr.values(int(rows), int(cols))
	if err != nil {
		return nil, err
	}
	return &matrix.Matrix{Rows: int(rows), Cols: int(cols), Data: data}, nil
}

// Save writes the PARAFAC model so it can be reloaded with LoadParafac.
func (r *ParafacResult) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, parafacMagic)
	fmt.Fprintf(bw, "rank %d\n", len(r.Lambda))
	for i, v := range r.Lambda {
		if i > 0 {
			bw.WriteByte(' ')
		}
		bw.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
	bw.WriteByte('\n')
	for _, f := range r.model.Factors {
		if err := writeMatrix(bw, f); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadParafac reloads a model written by ParafacResult.Save. Iteration
// metadata (Iters, Fits) is not persisted; the factors and weights are.
func LoadParafac(rd io.Reader) (*ParafacResult, error) {
	lr := newLineReader(rd)
	magic, err := lr.next()
	if err != nil {
		return nil, err
	}
	if magic != parafacMagic {
		return nil, fmt.Errorf("haten2: not a PARAFAC model (got %q)", magic)
	}
	header, err := lr.next()
	if err != nil {
		return nil, err
	}
	var rank int
	if _, err := fmt.Sscanf(header, "rank %d", &rank); err != nil || rank <= 0 {
		return nil, fmt.Errorf("haten2: bad rank header %q", header)
	}
	lambda, err := lr.appendFloats(nil, rank)
	if err != nil {
		return nil, err
	}
	model := &tensor.Kruskal{Lambda: lambda}
	for m := 0; m < 3; m++ {
		f, err := lr.readMatrix()
		if err != nil {
			return nil, err
		}
		if f.Cols != rank {
			return nil, fmt.Errorf("haten2: factor %d has %d columns, want rank %d", m, f.Cols, rank)
		}
		model.Factors = append(model.Factors, f)
	}
	return wrapParafac2(model), nil
}

func wrapParafac2(model *tensor.Kruskal) *ParafacResult {
	return &ParafacResult{
		Lambda: model.Lambda,
		Factors: [3]*Matrix{
			{m: model.Factors[0]},
			{m: model.Factors[1]},
			{m: model.Factors[2]},
		},
		model: model,
	}
}

// Save writes the Tucker model so it can be reloaded with LoadTucker.
func (r *TuckerResult) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, tuckerMagic)
	p, q, rr := r.Core.Dims()
	fmt.Fprintf(bw, "core %d %d %d\n", p, q, rr)
	for _, v := range r.model.Core.Data {
		bw.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		bw.WriteByte('\n')
	}
	for _, f := range r.model.Factors {
		if err := writeMatrix(bw, f); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadTucker reloads a model written by TuckerResult.Save.
func LoadTucker(rd io.Reader) (*TuckerResult, error) {
	lr := newLineReader(rd)
	magic, err := lr.next()
	if err != nil {
		return nil, err
	}
	if magic != tuckerMagic {
		return nil, fmt.Errorf("haten2: not a Tucker model (got %q)", magic)
	}
	header, err := lr.next()
	if err != nil {
		return nil, err
	}
	var p, q, r int64
	if _, err := fmt.Sscanf(header, "core %d %d %d", &p, &q, &r); err != nil || p <= 0 || q <= 0 || r <= 0 {
		return nil, fmt.Errorf("haten2: bad core header %q", header)
	}
	n, err := lr.size(tensor.MaxDense, p, q, r)
	if err != nil {
		return nil, err
	}
	data, err := lr.values(n, 1)
	if err != nil {
		return nil, err
	}
	// Shaped only now that every value has arrived; the zeroed storage
	// NewDense brings is replaced by what was read.
	g := tensor.NewDense(p, q, r)
	g.Data = data
	model := &tensor.TuckerModel{Core: g}
	for m := 0; m < 3; m++ {
		f, err := lr.readMatrix()
		if err != nil {
			return nil, err
		}
		model.Factors = append(model.Factors, f)
	}
	dims := []int64{p, q, r}
	for m, f := range model.Factors {
		if int64(f.Cols) != dims[m] {
			return nil, fmt.Errorf("haten2: factor %d has %d columns, core mode has %d", m, f.Cols, dims[m])
		}
	}
	return &TuckerResult{
		Core: &CoreTensor{g: g},
		Factors: [3]*Matrix{
			{m: model.Factors[0]},
			{m: model.Factors[1]},
			{m: model.Factors[2]},
		},
		model: model,
	}, nil
}
