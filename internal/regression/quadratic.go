package regression

import (
	"cdfpoison/internal/keys"
)

// Quadratic second-stage models are the mitigation the paper's Discussion
// weighs and rejects on cost grounds: "future learned index structures may
// choose more complex final-stage models which is a design choice that
// might negatively affect the storage overhead" (Section VI). This file
// provides the closed-form degree-2 least-squares fit so that the trade-off
// — robustness gained vs. parameters stored and multiplications spent — can
// be measured instead of asserted (lisbench extension, "quad" ablation).

// Quad is a fitted parabola over affinely normalized keys:
//
//	rank ≈ A·x² + B·x + C,  x = (key − Origin) / Scale.
//
// The normalized representation is not cosmetic: expanding to raw-key
// coefficients at key magnitudes ~10⁹ cancels catastrophically when the
// parabola is evaluated. A zero-valued Scale is treated as 1, so simple
// literals like Quad{B: 0.1, C: 1} behave as raw-key parabolas.
type Quad struct {
	A, B, C float64
	Origin  int64
	Scale   float64
}

// Predict returns the predicted (fractional) rank of key k.
func (q Quad) Predict(k int64) float64 {
	s := q.Scale
	if s == 0 {
		s = 1
	}
	x := float64(k-q.Origin) / s
	return (q.A*x+q.B)*x + q.C
}

// QuadModel is the result of a quadratic CDF fit.
type QuadModel struct {
	Quad
	Loss float64
}

// FitQuadCDF fits rank ≈ a·k² + b·k + c by least squares on the key set's
// CDF, via the 3×3 normal equations over keys centered at the set minimum
// (same stability rationale as FitCDF). n == 1 and n == 2 degenerate to the
// exact linear/constant fits with zero loss.
func FitQuadCDF(ks keys.Set) (QuadModel, error) {
	n := ks.Len()
	if n == 0 {
		return QuadModel{}, ErrTooFew
	}
	if n <= 2 {
		lin, err := FitCDF(ks)
		if err != nil {
			return QuadModel{}, err
		}
		return QuadModel{Quad: Quad{A: 0, B: lin.W, C: lin.B, Scale: 1}, Loss: 0}, nil
	}
	origin := ks.Min()
	span := float64(ks.Max() - origin)
	if span <= 0 {
		span = 1
	}
	// Normalize x to [0, 1] so the 3×3 normal matrix is well conditioned
	// (raw moments up to Σx⁴ would span ~15 orders of magnitude otherwise):
	//   [S4 S3 S2] [a]   [Sx2y]
	//   [S3 S2 S1] [b] = [Sxy ]
	//   [S2 S1 S0] [c]   [Sy  ]
	var s0, s1, s2, s3, s4, sy, sxy, sx2y float64
	s0 = float64(n)
	for i := 0; i < n; i++ {
		x := float64(ks.At(i)-origin) / span
		y := float64(i + 1)
		x2 := x * x
		s1 += x
		s2 += x2
		s3 += x2 * x
		s4 += x2 * x2
		sy += y
		sxy += x * y
		sx2y += x2 * y
	}
	a, b, c, ok := solve3(
		s4, s3, s2, sx2y,
		s3, s2, s1, sxy,
		s2, s1, s0, sy,
	)
	if !ok {
		// Singular system (e.g. keys forming a degenerate pattern): fall
		// back to the linear fit, which always exists for distinct keys.
		lin, err := FitCDF(ks)
		if err != nil {
			return QuadModel{}, err
		}
		return QuadModel{Quad: Quad{A: 0, B: lin.W, C: lin.B, Scale: 1}, Loss: lin.Loss}, nil
	}
	m := QuadModel{Quad: Quad{A: a, B: b, C: c, Origin: origin, Scale: span}}
	var ss float64
	for i := 0; i < n; i++ {
		d := m.Predict(ks.At(i)) - float64(i+1)
		ss += d * d
	}
	m.Loss = ss / float64(n)
	return m, nil
}

// solve3 solves a 3×3 linear system by Cramer's rule; ok is false when the
// determinant vanishes (relative to the matrix scale).
func solve3(a11, a12, a13, b1, a21, a22, a23, b2, a31, a32, a33, b3 float64) (x, y, z float64, ok bool) {
	det := a11*(a22*a33-a23*a32) - a12*(a21*a33-a23*a31) + a13*(a21*a32-a22*a31)
	scale := abs(a11) + abs(a22) + abs(a33)
	if abs(det) <= 1e-12*scale*scale*scale {
		return 0, 0, 0, false
	}
	dx := b1*(a22*a33-a23*a32) - a12*(b2*a33-a23*b3) + a13*(b2*a32-a22*b3)
	dy := a11*(b2*a33-a23*b3) - b1*(a21*a33-a23*a31) + a13*(a21*b3-b2*a31)
	dz := a11*(a22*b3-b2*a32) - a12*(a21*b3-b2*a31) + b1*(a21*a32-a22*a31)
	return dx / det, dy / det, dz / det, true
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
