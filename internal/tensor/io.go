package tensor

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WriteCOO writes t in the plain-text coordinate format HaTen2's Hadoop
// implementation used: one entry per line, whitespace-separated 0-based
// indices followed by the value. A header line records the shape:
//
//	# tensor <d1> <d2> ... <dN>
//	i j k v
func WriteCOO(w io.Writer, t *Tensor) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# tensor"); err != nil {
		return err
	}
	for _, d := range t.dims {
		if _, err := fmt.Fprintf(bw, " %d", d); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(bw); err != nil {
		return err
	}
	o := t.Order()
	for p := 0; p < t.NNZ(); p++ {
		idx := t.idx[p*o : (p+1)*o]
		for _, c := range idx {
			if _, err := fmt.Fprintf(bw, "%d ", c); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(bw, "%g\n", t.val[p]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCOO parses the format written by WriteCOO. Lines that are empty or
// start with '#' (other than the shape header) are skipped. If no shape
// header is present, the shape is inferred as max-index+1 per mode.
// Values must be finite: NaN and ±Inf are rejected with the line
// number, as are duplicate entries whose sum overflows, since any one
// of them turns every fitted factor into NaN.
func ReadCOO(r io.Reader) (*Tensor, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var dims []int64
	var rows [][]int64
	var vals []float64
	order := -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(strings.TrimPrefix(line, "#"))
			if len(fields) >= 2 && fields[0] == "tensor" {
				dims = dims[:0]
				for _, f := range fields[1:] {
					d, err := strconv.ParseInt(f, 10, 64)
					if err != nil {
						return nil, fmt.Errorf("tensor: line %d: bad shape header: %v", lineNo, err)
					}
					if d <= 0 {
						return nil, fmt.Errorf("tensor: line %d: nonpositive dimension %d in shape header", lineNo, d)
					}
					dims = append(dims, d)
				}
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("tensor: line %d: want at least one index and a value, got %q", lineNo, line)
		}
		if order == -1 {
			order = len(fields) - 1
		} else if len(fields)-1 != order {
			return nil, fmt.Errorf("tensor: line %d: inconsistent order %d (want %d)", lineNo, len(fields)-1, order)
		}
		coords := make([]int64, order)
		for m := 0; m < order; m++ {
			c, err := strconv.ParseInt(fields[m], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("tensor: line %d: bad index %q: %v", lineNo, fields[m], err)
			}
			if c < 0 {
				return nil, fmt.Errorf("tensor: line %d: negative index %d", lineNo, c)
			}
			if c == math.MaxInt64 {
				// No dimension can hold it: the inferred size c+1
				// would overflow.
				return nil, fmt.Errorf("tensor: line %d: index %d out of range", lineNo, c)
			}
			coords[m] = c
		}
		v, err := strconv.ParseFloat(fields[order], 64)
		if err != nil {
			return nil, fmt.Errorf("tensor: line %d: bad value %q: %v", lineNo, fields[order], err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("tensor: line %d: non-finite value %q", lineNo, fields[order])
		}
		rows = append(rows, coords)
		vals = append(vals, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if order == -1 && dims == nil {
		return nil, fmt.Errorf("tensor: empty input with no shape header")
	}
	if dims == nil {
		dims = make([]int64, order)
		for _, coords := range rows {
			for m, c := range coords {
				if c+1 > dims[m] {
					dims[m] = c + 1
				}
			}
		}
	}
	if order != -1 && len(dims) != order {
		return nil, fmt.Errorf("tensor: header declares order %d but entries have order %d", len(dims), order)
	}
	t := New(dims...)
	for i, coords := range rows {
		for m, c := range coords {
			if c >= dims[m] {
				return nil, fmt.Errorf("tensor: index %d exceeds declared dim %d on mode %d", c, dims[m], m)
			}
		}
		t.Append(vals[i], coords...)
	}
	t.Coalesce()
	for p := 0; p < t.NNZ(); p++ {
		if v := t.val[p]; math.IsInf(v, 0) {
			return nil, fmt.Errorf("tensor: duplicate entries at %v sum to %v", t.Index(p), v)
		}
	}
	return t, nil
}
