package haten2

// Model persistence: decompositions of big tensors are expensive, so
// results can be written to a stream and reloaded later with full
// Fit/Predict capability. The format is a line-oriented text format
// (stable, diffable, and byte-exact for float64 via %g round-tripping
// with strconv.ParseFloat). Values are formatted into and parsed from
// byte buffers, never through a string of their own, so a round trip
// allocates per model, not per value.

import (
	"bufio"
	"bytes"
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

// appendRow appends vals to b as one line of space-separated values in
// the shortest form that parses back to the same bits.
func appendRow(b []byte, vals []float64) []byte {
	for j, v := range vals {
		if j > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, '\n')
}

// writeMatrix writes m's header and rows, each row built in the scratch
// line b and written with one call; it returns b for reuse. Errors stay
// in w until Flush.
func writeMatrix(w *bufio.Writer, b []byte, m *matrix.Matrix) []byte {
	fmt.Fprintf(w, "matrix %d %d\n", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		b = appendRow(b[:0], m.Row(i))
		w.Write(b)
	}
	return b
}

type lineReader struct {
	sc     *bufio.Scanner
	line   int
	bounds []int // fieldBounds' scratch, reused line to line
}

func newLineReader(r io.Reader) *lineReader {
	sc := bufio.NewScanner(r)
	// Lines of up to 16 MiB are accepted; the buffer starts at the
	// scanner's default and grows to fit, so loading a 50 KB model does
	// not allocate and clear a megabyte first.
	sc.Buffer(make([]byte, 0, bufio.MaxScanTokenSize), 1<<24)
	return &lineReader{sc: sc}
}

// next returns the next line that is not all whitespace, trimmed. It
// points into the scanner's buffer and is valid until the next call.
func (lr *lineReader) next() ([]byte, error) {
	for lr.sc.Scan() {
		lr.line++
		if s := bytes.TrimSpace(lr.sc.Bytes()); len(s) > 0 {
			return s, nil
		}
	}
	if err := lr.sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("haten2: unexpected end of model data at line %d", lr.line)
}

// asciiSpace marks the ASCII bytes unicode.IsSpace reports as spaces.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// fieldBounds appends to dst the start and end offsets of each field of
// line, cut on asciiSpace. ascii is false when the line holds a byte ≥
// 0x80: Unicode spaces then separate fields too, which these bounds do
// not see.
func fieldBounds(dst []int, line []byte) (_ []int, ascii bool) {
	wide := byte(0)
	for i := 0; i < len(line); i++ {
		if asciiSpace[line[i]] {
			continue
		}
		start := i
		for ; i < len(line) && !asciiSpace[line[i]]; i++ {
			wide |= line[i]
		}
		dst = append(dst, start, i)
	}
	return dst, wide < 0x80
}

// appendFloats parses the next line as exactly n values onto dst. The
// count is checked against the line before any value is parsed. Fields
// are what unicode.IsSpace separates: fieldBounds cuts an all-ASCII line
// in place, and any other line is first respaced so that each separator
// it holds is one ASCII space.
func (lr *lineReader) appendFloats(dst []float64, n int) ([]float64, error) {
	line, err := lr.next()
	if err != nil {
		return nil, err
	}
	bounds, ascii := fieldBounds(lr.bounds[:0], line)
	if !ascii {
		line = []byte(strings.Join(strings.Fields(string(line)), " "))
		bounds, _ = fieldBounds(bounds[:0], line)
	}
	lr.bounds = bounds
	if len(bounds)/2 != n {
		return nil, fmt.Errorf("haten2: line %d: want %d values, got %d", lr.line, n, len(bounds)/2)
	}
	for k := 0; k < len(bounds); k += 2 {
		v, err := strconv.ParseFloat(string(line[bounds[k]:bounds[k+1]]), 64)
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
	if _, err := fmt.Sscanf(string(header), "matrix %d %d", &rows, &cols); err != nil {
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
	b := appendRow(nil, r.Lambda)
	bw.Write(b)
	for _, f := range r.model.Factors {
		b = writeMatrix(bw, b, f)
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
	if string(magic) != parafacMagic {
		return nil, fmt.Errorf("haten2: not a PARAFAC model (got %q)", magic)
	}
	header, err := lr.next()
	if err != nil {
		return nil, err
	}
	var rank int
	if _, err := fmt.Sscanf(string(header), "rank %d", &rank); err != nil || rank <= 0 {
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
	var b []byte
	for i := range r.model.Core.Data {
		b = appendRow(b[:0], r.model.Core.Data[i:i+1])
		bw.Write(b)
	}
	for _, f := range r.model.Factors {
		b = writeMatrix(bw, b, f)
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
	if string(magic) != tuckerMagic {
		return nil, fmt.Errorf("haten2: not a Tucker model (got %q)", magic)
	}
	header, err := lr.next()
	if err != nil {
		return nil, err
	}
	var p, q, r int64
	if _, err := fmt.Sscanf(string(header), "core %d %d %d", &p, &q, &r); err != nil || p <= 0 || q <= 0 || r <= 0 {
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
