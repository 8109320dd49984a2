package baseline

import (
	"math"
	"math/rand"
	"testing"

	"github.com/haten2/haten2/internal/matrix"
	"github.com/haten2/haten2/internal/tensor"
)

func TestParafacTopKObjectsOrderAndClamp(t *testing.T) {
	// q = λ ∗ A(1,:) ∗ C(0,:) = [2·1·0.5, 1·3·1] = [1, 3], so the objects
	// score B·q = [1, 3, 3, 2]: objects 1 and 2 tie and the lower index
	// ranks first.
	lambda := []float64{2, 1}
	factors := [3]*matrix.Matrix{
		matrix.FromRows([][]float64{{9, 9}, {1, 3}}),
		matrix.FromRows([][]float64{{1, 0}, {0, 1}, {3, 0}, {-1, 1}}),
		matrix.FromRows([][]float64{{0.5, 1}, {9, 9}}),
	}
	want := []TopKResult{{1, 3}, {2, 3}, {3, 2}, {0, 1}}
	for _, tc := range []struct{ k, n int }{{-1, 0}, {0, 0}, {2, 2}, {4, 4}, {10, 4}} {
		got := ParafacTopKObjects(lambda, factors, 1, 0, tc.k)
		if len(got) != tc.n {
			t.Fatalf("k=%d: %d results, want %d", tc.k, len(got), tc.n)
		}
		for i, r := range got {
			if r != want[i] {
				t.Fatalf("k=%d: result %d = %+v, want %+v", tc.k, i, r, want[i])
			}
		}
	}
}

func TestTuckerTopKObjectsDiagonalCoreMatchesParafac(t *testing.T) {
	// A superdiagonal core 𝒢(r,r,r) = λ_r makes the Tucker model the
	// PARAFAC model. Every off-diagonal term adds an exact zero, so the
	// two references must agree bit for bit, scores and order.
	const rank = 3
	rng := rand.New(rand.NewSource(5))
	factors := [3]*matrix.Matrix{
		matrix.Random(4, rank, rng),
		matrix.Random(50, rank, rng),
		matrix.Random(3, rank, rng),
	}
	lambda := []float64{1.5, 0.25, 4}
	core := tensor.NewDense(rank, rank, rank)
	for r, l := range lambda {
		core.Set(l, int64(r), int64(r), int64(r))
	}
	for s := int64(0); s < 4; s++ {
		for p := int64(0); p < 3; p++ {
			want := ParafacTopKObjects(lambda, factors, s, p, 7)
			got := TuckerTopKObjects(core, factors, s, p, 7)
			if len(got) != len(want) {
				t.Fatalf("(%d,%d): %d results, want %d", s, p, len(got), len(want))
			}
			for i := range want {
				if got[i].Index != want[i].Index || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
					t.Fatalf("(%d,%d) result %d: Tucker %+v, PARAFAC %+v", s, p, i, got[i], want[i])
				}
			}
		}
	}
}
