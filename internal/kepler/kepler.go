// Package kepler solves Kepler's equation M = E − e·sin E for the eccentric
// anomaly E on elliptical orbits (0 ≤ e < 1).
//
// The primary solver is the contour-integration method of Philcox, Goodman &
// Slepian, "Kepler's Goat Herd: An Exact Solution to Kepler's Equation for
// Elliptical Orbits" (MNRAS 2021) — the solver the paper adapted for its GPU
// propagation kernel. The root of f(z) = z − e·sin z − M is expressed as the
// ratio of two contour integrals over a circle known to enclose exactly the
// one real root:
//
//	E = ∮ z·f′(z)/f(z) dz ⁄ ∮ f′(z)/f(z) dz
//
// For mean anomaly ℓ ∈ (0, π) the root satisfies E ∈ (ℓ, ℓ+e), so the circle
// with centre ℓ + e/2 and radius e/2 encloses it; both integrals are
// evaluated with the trapezoidal rule, which converges geometrically on
// periodic integrands. Symmetry E(2π − ℓ) = 2π − E(ℓ) reduces the general
// case to ℓ ∈ [0, π].
//
// Newton–Raphson and Danby (quartic-convergence) iterations are provided as
// baselines: the paper's evaluation of the solver swap and our ablation
// benchmark (DESIGN.md §5) compare all three.
package kepler

import (
	"math"

	"repro/internal/mathx"
)

// contourSamples returns cos/sin of the N trapezoidal sample angles,
// precomputed once per N (the default N is served from a package table).
func contourSamples(n int) (cosT, sinT []float64) {
	if n == DefaultContourPoints {
		return defaultCosT[:], defaultSinT[:]
	}
	cosT = make([]float64, n)
	sinT = make([]float64, n)
	fillSamples(cosT, sinT)
	return cosT, sinT
}

func fillSamples(cosT, sinT []float64) {
	n := len(cosT)
	for j := 0; j < n; j++ {
		sinT[j], cosT[j] = math.Sincos(mathx.TwoPi * float64(j) / float64(n))
	}
}

var defaultCosT, defaultSinT [DefaultContourPoints]float64

func init() {
	fillSamples(defaultCosT[:], defaultSinT[:])
}

// Solver computes the eccentric anomaly from mean anomaly M (rad) and
// eccentricity e ∈ [0, 1). Implementations must accept any finite M and
// return E normalised to [0, 2π).
type Solver interface {
	Solve(m, e float64) float64
	Name() string
}

// Contour is the goat-herd contour-integration solver.
type Contour struct {
	// N is the number of trapezoidal sample points on the contour.
	// Zero selects DefaultContourPoints. N=16 already reaches ~1e-13
	// residuals for e ≤ 0.95.
	N int
}

// DefaultContourPoints is the default trapezoidal sample count.
const DefaultContourPoints = 16

// Name implements Solver.
func (Contour) Name() string { return "contour" }

// Solve implements Solver.
func (c Contour) Solve(m, e float64) float64 {
	n := c.N
	if n <= 0 {
		n = DefaultContourPoints
	}
	m = mathx.NormalizeAngle(m)
	if e < 1e-14 {
		return m
	}
	// Exploit the symmetry E(2π−ℓ) = 2π−E(ℓ) to reduce to ℓ ∈ [0, π].
	if m > math.Pi {
		return mathx.NormalizeAngle(mathx.TwoPi - c.Solve(mathx.TwoPi-m, e))
	}
	// At ℓ = 0 and ℓ = π the root is exactly ℓ and sits on the contour;
	// very close to those points the enclosing circle degenerates, so fall
	// back to the (locally excellent) Newton iteration.
	const edge = 1e-6
	if m < edge || math.Pi-m < edge {
		return newtonSolve(m, e)
	}

	center := m + e/2
	radius := e / 2

	// Trapezoidal rule over θ_j = 2πj/N. The common factor i·ρ·Δθ of
	// dz = i·ρ·e^{iθ}dθ cancels in the ratio, leaving weights e^{iθ_j}.
	//
	// The complex sine/cosine at z = x+iy are expanded by hand —
	// sin z = sin x·cosh y + i·cos x·sinh y, cos z = cos x·cosh y −
	// i·sin x·sinh y — so one Sincos and one Exp serve both f and f′;
	// this is the hot path of every propagation step.
	cosT, sinT := contourSamples(n)
	var num, den complex128
	for j := 0; j < n; j++ {
		x := center + radius*cosT[j]
		y := radius * sinT[j]
		sx, cx := math.Sincos(x)
		ey := math.Exp(y)
		cosh := 0.5 * (ey + 1/ey)
		sinh := 0.5 * (ey - 1/ey)
		z := complex(x, y)
		f := complex(x-e*sx*cosh-m, y-e*cx*sinh)
		fp := complex(1-e*cx*cosh, e*sx*sinh)
		w := fp / f * complex(cosT[j], sinT[j])
		num += z * w
		den += w
	}
	ecc := real(num / den)
	if math.IsNaN(ecc) || math.IsInf(ecc, 0) {
		// Pathological cancellation (den = 0), or the root sits on a sample
		// point of the contour itself (f = 0 there: at tiny e the circle
		// through ℓ + e touches the root whenever sin E rounds to 1). The
		// Newton fallback is always safe.
		return newtonSolve(m, e)
	}
	// The contour result is exact to roundoff for interior roots; a short
	// Newton polish guards the rare near-boundary cases (root close to the
	// circle at extreme eccentricity) at negligible cost and makes the
	// solver uniformly ≤1e-12 in residual.
	for i := 0; i < 3; i++ {
		se, ce := math.Sincos(ecc)
		f := ecc - e*se - m
		if math.Abs(f) < 1e-13 {
			break
		}
		ecc -= f / (1 - e*ce)
	}
	return mathx.NormalizeAngle(ecc)
}

// Newton is the classical Newton–Raphson iteration with Danby's starter.
type Newton struct {
	// Tol is the residual tolerance; zero selects 1e-13.
	Tol float64
	// MaxIter bounds the iterations; zero selects 50.
	MaxIter int
}

// Name implements Solver.
func (Newton) Name() string { return "newton" }

// Solve implements Solver.
func (nw Newton) Solve(m, e float64) float64 {
	return mathx.NormalizeAngle(newtonSolveTol(mathx.NormalizeAngle(m), e, nw.tol(), nw.maxIter()))
}

func (nw Newton) tol() float64 {
	if nw.Tol <= 0 {
		return 1e-13
	}
	return nw.Tol
}

func (nw Newton) maxIter() int {
	if nw.MaxIter <= 0 {
		return 50
	}
	return nw.MaxIter
}

func newtonSolve(m, e float64) float64 {
	return newtonSolveTol(m, e, 1e-13, 50)
}

func newtonSolveTol(m, e, tol float64, maxIter int) float64 {
	if e < 1e-14 {
		return m
	}
	// Danby's starter: E₀ = M + 0.85·e·sign(sin M) is within the Newton
	// convergence basin for all e < 1.
	ecc := m + 0.85*e*math.Copysign(1, math.Sin(m))
	for i := 0; i < maxIter; i++ {
		se, ce := math.Sincos(ecc)
		f := ecc - e*se - m
		if math.Abs(f) < tol {
			break
		}
		ecc -= f / (1 - e*ce)
	}
	return ecc
}

// Danby is Danby's 1987 iteration using first through third derivatives for
// quartic convergence; typically 2–3 iterations suffice even at high e.
type Danby struct {
	// Tol is the residual tolerance; zero selects 1e-13.
	Tol float64
	// MaxIter bounds the iterations; zero selects 20.
	MaxIter int
}

// Name implements Solver.
func (Danby) Name() string { return "danby" }

// Solve implements Solver.
func (d Danby) Solve(m, e float64) float64 {
	tol := d.Tol
	if tol <= 0 {
		tol = 1e-13
	}
	maxIter := d.MaxIter
	if maxIter <= 0 {
		maxIter = 20
	}
	m = mathx.NormalizeAngle(m)
	if e < 1e-14 {
		return m
	}
	ecc := m + 0.85*e*math.Copysign(1, math.Sin(m))
	for i := 0; i < maxIter; i++ {
		se, ce := math.Sincos(ecc)
		f := ecc - e*se - m
		if math.Abs(f) < tol {
			break
		}
		f1 := 1 - e*ce
		f2 := e * se
		f3 := e * ce
		d1 := -f / f1
		d2 := -f / (f1 + 0.5*d1*f2)
		d3 := -f / (f1 + 0.5*d2*f2 + d2*d2*f3/6)
		ecc += d3
	}
	return mathx.NormalizeAngle(ecc)
}

// SolveFrom solves Kepler's equation starting from an explicit guess of the
// eccentric anomaly — the warm-start entry point for samplers whose
// consecutive mean anomalies differ by a small fixed delta (the previous
// step's E advanced by n·s_ps lands within ~e·n·s_ps of the root). It is
// SolveFromSincos without the sine and cosine.
func SolveFrom(m, e, guess float64) float64 {
	ecc, _, _ := SolveFromSincos(m, e, guess)
	return ecc
}

// SolveFromSincos is the warm-started solve, returning sin E and cos E with
// the root: the Newton iteration evaluates them anyway, and every caller that
// wants a position needs exactly that pair next, so handing them back saves
// the second sincos of an object-step.
//
// The guess is re-centred to within π of the normalised mean anomaly (the
// root always satisfies |E − M| ≤ e < π, so this also heals the wrap when M
// crosses 2π between steps), then refined by Newton to the same 1e-13
// residual the contour solver polishes to. A guess too cold to converge in a
// few iterations falls back to Default(), so accuracy never degrades below
// the cold-start solver.
func SolveFromSincos(m, e, guess float64) (ecc, sinE, cosE float64) {
	mn := mathx.NormalizeAngle(m)
	if e < 1e-14 {
		sinE, cosE = math.Sincos(mn)
		return mn, sinE, cosE
	}
	g := mathx.NormalizeAngle(guess)
	switch {
	case g-mn > math.Pi:
		g -= mathx.TwoPi
	case mn-g > math.Pi:
		g += mathx.TwoPi
	}
	const tol = 1e-13
	for i := 0; i < 8; i++ {
		se, ce := math.Sincos(g)
		f := g - e*se - mn
		if math.Abs(f) < tol {
			return mathx.NormalizeAngle(g), se, ce
		}
		d := f / (1 - e*ce)
		g -= d
		// Accept the corrected iterate without a confirming evaluation when
		// the quadratic remainder already guarantees convergence: Newton
		// leaves f(g−d) ≈ (f″/2)·d² with |f″| = e·|sin g| ≤ e, so the next
		// residual is bounded by (e/2)·d². Skipping the verify saves one
		// sincos per solve — the dominant cost of a warm solve.
		if 0.5*e*d*d < tol {
			// sin and cos of the accepted iterate g−d follow from the pair
			// just evaluated by angle addition. For |d| < 1e-3 the series
			// below truncate at d⁷/5040 < 2e-25 and d⁶/720 < 2e-21, far
			// under one ulp; a larger last step (only near-circular orbits
			// pass the remainder test with one) pays a real sincos.
			if math.Abs(d) < 1e-3 {
				d2 := d * d
				sd := d * (1 - d2/6*(1-d2/20))
				cd := 1 - d2/2*(1-d2/12)
				se, ce = se*cd-ce*sd, ce*cd+se*sd
			} else {
				se, ce = math.Sincos(g)
			}
			return mathx.NormalizeAngle(g), se, ce
		}
	}
	if Residual(g, mn, e) < 1e-12 {
		ecc = mathx.NormalizeAngle(g)
	} else {
		ecc = Default().Solve(mn, e)
	}
	sinE, cosE = math.Sincos(ecc)
	return ecc, sinE, cosE
}

// Residual returns |E − e·sin E − M| with both sides angle-normalised; the
// measure all accuracy tests and the solver ablation report use.
func Residual(ecc, m, e float64) float64 {
	return mathx.AngleDiff(ecc-e*math.Sin(ecc), mathx.NormalizeAngle(m))
}

// Default returns the solver the detectors use: the contour method with
// default sampling.
func Default() Solver { return Contour{} }
