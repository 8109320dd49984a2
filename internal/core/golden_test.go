package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/haten2/haten2/internal/gen"
	"github.com/haten2/haten2/internal/matrix"
)

var update = flag.Bool("update", false, "rewrite testdata/factors.golden")

// factorDigest is SHA-256 over the IEEE-754 bits of head (λ or the
// Tucker core) followed by every factor matrix in mode order.
func factorDigest(head []float64, factors []*matrix.Matrix) string {
	h := sha256.New()
	var b [8]byte
	write := func(vs []float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	write(head)
	for _, f := range factors {
		write(f.Data)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestFactorsGolden pins the output bits of every decomposition entry
// point absolutely: the golden traces pin counters and schedules, the
// cross-variant tests compare to a tolerance, but only this file says
// that the factors a given (tensor, seed) produces never move. Rerun
// with -update only for a change that is meant to alter arithmetic.
func TestFactorsGolden(t *testing.T) {
	x3 := gen.Random(21, [3]int64{9, 8, 7}, 150)
	x4 := random4Way(rand.New(rand.NewSource(22)), [4]int64{6, 5, 4, 3}, 120)
	opt := Options{MaxIters: 3, Tol: 1e-12, Seed: 5}

	var got bytes.Buffer
	parafac := func(name string, res *ParafacResult, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&got, "%s %s\n", name, factorDigest(res.Model.Lambda, res.Model.Factors))
	}
	tucker := func(name string, res *TuckerResult, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&got, "%s %s\n", name, factorDigest(res.Model.Core.Data, res.Model.Factors))
	}
	for _, v := range Variants {
		o := opt
		o.Variant = v
		res, err := ParafacALS(testCluster(), x3, 3, o)
		parafac("parafac3-"+v.String(), res, err)
		tres, err := TuckerALS(testCluster(), x3, []int{3, 2, 2}, o)
		tucker("tucker3-"+v.String(), tres, err)
	}
	o := opt
	o.Variant = DRI
	res, err := ParafacALS(testCluster(), x4, 3, o)
	parafac("parafac4-DRI", res, err)
	tres, err := TuckerALS(testCluster(), x4, []int{3, 2, 2, 2}, o)
	tucker("tucker4-DRI", tres, err)
	res, err = NonnegativeParafac(testCluster(), x3, 3, o)
	parafac("nonnegative3-DRI", res, err)
	missing := [][3]int64{{0, 1, 2}, {3, 3, 3}, {8, 7, 6}, {4, 0, 5}}
	res, err = MaskedParafacALS(testCluster(), x3, missing, 3, o)
	parafac("masked3-DRI", res, err)

	path := filepath.Join("testdata", "factors.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/core -run FactorsGolden -update` to create)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("factor bits moved:\n got:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}
