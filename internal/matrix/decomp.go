package matrix

import (
	"math"
	"sort"
)

// QR computes the thin Householder QR factorization a = q·r where q is
// a.Rows×k with orthonormal columns, r is k×a.Cols upper triangular, and
// k = min(a.Rows, a.Cols).
func QR(a *Matrix) (q, r *Matrix) {
	m, n := a.Rows, a.Cols
	k := m
	if n < k {
		k = n
	}
	// Work on a copy; accumulate the Householder vectors in-place below
	// the diagonal, as in LAPACK's geqrf.
	w := a.Clone()
	tau := make([]float64, k)
	for j := 0; j < k; j++ {
		// Compute the Householder reflector for column j.
		var normx float64
		for i := j; i < m; i++ {
			v := w.At(i, j)
			normx += v * v
		}
		normx = math.Sqrt(normx)
		if normx == 0 {
			tau[j] = 0
			continue
		}
		alpha := w.At(j, j)
		beta := -math.Copysign(normx, alpha)
		tau[j] = (beta - alpha) / beta
		scale := 1 / (alpha - beta)
		for i := j + 1; i < m; i++ {
			w.Set(i, j, w.At(i, j)*scale)
		}
		w.Set(j, j, beta)
		// Apply the reflector to the trailing columns.
		for c := j + 1; c < n; c++ {
			s := w.At(j, c)
			for i := j + 1; i < m; i++ {
				s += w.At(i, j) * w.At(i, c)
			}
			s *= tau[j]
			w.Set(j, c, w.At(j, c)-s)
			for i := j + 1; i < m; i++ {
				w.Set(i, c, w.At(i, c)-s*w.At(i, j))
			}
		}
	}
	r = New(k, n)
	for i := 0; i < k; i++ {
		for j := i; j < n; j++ {
			r.Set(i, j, w.At(i, j))
		}
	}
	// Form thin Q by applying the reflectors to the first k columns of I.
	q = New(m, k)
	for i := 0; i < k; i++ {
		q.Set(i, i, 1)
	}
	for j := k - 1; j >= 0; j-- {
		if tau[j] == 0 {
			continue
		}
		for c := 0; c < k; c++ {
			s := q.At(j, c)
			for i := j + 1; i < m; i++ {
				s += w.At(i, j) * q.At(i, c)
			}
			s *= tau[j]
			q.Set(j, c, q.At(j, c)-s)
			for i := j + 1; i < m; i++ {
				q.Set(i, c, q.At(i, c)-s*w.At(i, j))
			}
		}
	}
	return q, r
}

// JacobiEigen computes the eigendecomposition of a symmetric matrix using
// the cyclic Jacobi method. It returns the eigenvalues in descending order
// and a matrix whose columns are the corresponding orthonormal
// eigenvectors. The input must be square and symmetric; only the values on
// and above the diagonal are read.
func JacobiEigen(a *Matrix) (vals []float64, vecs *Matrix) {
	n := a.Rows
	if a.Cols != n {
		panic("matrix: JacobiEigen requires a square matrix")
	}
	w := a.Clone()
	// Symmetrize defensively so tiny asymmetries from accumulated
	// floating point error do not break convergence.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s := (w.At(i, j) + w.At(j, i)) / 2
			w.Set(i, j, s)
			w.Set(j, i, s)
		}
	}
	v := Identity(n)
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += w.At(i, j) * w.At(i, j)
			}
		}
		if off < 1e-28*float64(n*n) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if apq == 0 {
					continue
				}
				app, aqq := w.At(p, p), w.At(q, q)
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				// Apply the rotation G(p,q,θ) on both sides of w
				// and accumulate it into v.
				for k := 0; k < n; k++ {
					akp, akq := w.At(k, p), w.At(k, q)
					w.Set(k, p, c*akp-s*akq)
					w.Set(k, q, s*akp+c*akq)
				}
				for k := 0; k < n; k++ {
					apk, aqk := w.At(p, k), w.At(q, k)
					w.Set(p, k, c*apk-s*aqk)
					w.Set(q, k, s*apk+c*aqk)
				}
				for k := 0; k < n; k++ {
					vkp, vkq := v.At(k, p), v.At(k, q)
					v.Set(k, p, c*vkp-s*vkq)
					v.Set(k, q, s*vkp+c*vkq)
				}
			}
		}
	}
	vals = make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = w.At(i, i)
	}
	// Sort eigenpairs by descending eigenvalue.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool { return vals[order[x]] > vals[order[y]] })
	sortedVals := make([]float64, n)
	sortedVecs := New(n, n)
	for c, idx := range order {
		sortedVals[c] = vals[idx]
		for r := 0; r < n; r++ {
			sortedVecs.Set(r, c, v.At(r, idx))
		}
	}
	return sortedVals, sortedVecs
}

// PseudoInverse returns the Moore-Penrose pseudo-inverse of a symmetric
// positive semi-definite matrix (such as the Gram/Hadamard products that
// PARAFAC-ALS inverts, e.g. CᵀC ∗ BᵀB in Algorithm 1). Eigenvalues below
// a relative tolerance are treated as zero.
func PseudoInverse(a *Matrix) *Matrix {
	vals, vecs := JacobiEigen(a)
	n := a.Rows
	tol := 1e-12
	if len(vals) > 0 && vals[0] > 0 {
		tol = vals[0] * 1e-12 * float64(n)
	}
	out := New(n, n)
	for k, lam := range vals {
		if lam <= tol {
			continue
		}
		inv := 1 / lam
		for i := 0; i < n; i++ {
			vik := vecs.At(i, k)
			if vik == 0 {
				continue
			}
			row := out.Row(i)
			w := inv * vik
			for j := 0; j < n; j++ {
				row[j] += w * vecs.At(j, k)
			}
		}
	}
	return out
}

// SVDThin computes the thin singular value decomposition a = u·diag(s)·vᵀ
// via the eigendecomposition of the small Gram matrix aᵀa. It is intended
// for tall-skinny matrices where a.Cols is small (the shape of every
// matricized intermediate tensor in Tucker-ALS: I×QR with QR ≤ 80²).
// u is a.Rows×k, s has length k, v is a.Cols×k where k = a.Cols.
func SVDThin(a *Matrix) (u *Matrix, s []float64, v *Matrix) {
	g := Gram(a)
	vals, vecs := JacobiEigen(g)
	k := a.Cols
	s = make([]float64, k)
	for i, lam := range vals {
		if lam > 0 {
			s[i] = math.Sqrt(lam)
		}
	}
	v = vecs
	u = Mul(a, vecs) // columns are a·v_i = σ_i·u_i
	for j := 0; j < k; j++ {
		if s[j] > 1e-300 {
			inv := 1 / s[j]
			for i := 0; i < u.Rows; i++ {
				u.Data[i*u.Cols+j] *= inv
			}
		}
	}
	return u, s, v
}

// LeadingLeftSingularVectors returns the p leading left singular vectors
// of a as the columns of an a.Rows×p matrix with orthonormal columns.
// This is the factor update step in Tucker-ALS (Algorithm 2 lines 4/6/8).
//
// If a has rank below p, the remaining columns are completed with an
// arbitrary orthonormal basis of the complement so the returned factor is
// always a valid orthonormal frame.
func LeadingLeftSingularVectors(a *Matrix, p int) *Matrix {
	if p > a.Rows {
		p = a.Rows
	}
	u, s, _ := SVDThin(a)
	out := New(a.Rows, p)
	// The Gram route resolves an eigenvalue of aᵀa only to about
	// λ₀·cols·ε, so a singular value below s₀·√(cols·ε) is rounding
	// noise, and its vector is not orthogonal to the leading ones: it is
	// zero, and completion supplies the rest of the frame.
	tol := 0.0
	if len(s) > 0 {
		tol = s[0] * math.Sqrt(float64(a.Cols)*0x1p-52)
	}
	have := 0
	for j := 0; j < u.Cols && have < p; j++ {
		if s[j] <= tol {
			break
		}
		for i := 0; i < a.Rows; i++ {
			out.Set(i, have, u.At(i, j))
		}
		have++
	}
	completeOrthonormal(out, have)
	return out
}

// completeOrthonormal fills columns [have, out.Cols) of out with unit
// vectors orthogonal to the existing columns using Gram-Schmidt against
// the canonical basis.
func completeOrthonormal(out *Matrix, have int) {
	n := out.Rows
	next := 0
	for c := have; c < out.Cols; c++ {
		for ; next <= n; next++ {
			// Candidate: canonical basis vector e_next.
			v := make([]float64, n)
			if next < n {
				v[next] = 1
			} else {
				// Degenerate fallback; cannot happen when p <= n.
				v[0] = 1
			}
			// Orthogonalize against all previous columns (twice for
			// numerical safety).
			for pass := 0; pass < 2; pass++ {
				for k := 0; k < c; k++ {
					var dot float64
					for i := 0; i < n; i++ {
						dot += v[i] * out.At(i, k)
					}
					for i := 0; i < n; i++ {
						v[i] -= dot * out.At(i, k)
					}
				}
			}
			var norm float64
			for _, x := range v {
				norm += x * x
			}
			norm = math.Sqrt(norm)
			if norm > 1e-8 {
				inv := 1 / norm
				for i := 0; i < n; i++ {
					out.Set(i, c, v[i]*inv)
				}
				next++
				break
			}
		}
	}
}
