// Package mathx collects the small numerical utilities shared across the
// repository: angle normalisation, dense linear least squares (used by the
// Extra-P-style conjunction-count model fit), and a SplitMix64 PRNG stream
// for deterministic, independently seedable parallel random number
// generation.
package mathx

import (
	"errors"
	"fmt"
	"math"
)

// TwoPi is 2π.
const TwoPi = 2 * math.Pi

// NormalizeAngle reduces a to the half-open interval [0, 2π).
//
// Angles already in [0, 4π) — every mean anomaly of a screen shorter than
// one orbit, every Newton iterate — reduce by a compare and at most one
// subtraction. That is bit-identical to the math.Mod reduction: Mod is exact,
// and so is a − 2π for a ∈ [2π, 4π) (Sterbenz), so both produce the same
// float64. Everything else takes the Mod path.
func NormalizeAngle(a float64) float64 {
	if a >= 0 {
		if a < TwoPi {
			return a
		}
		if a < 2*TwoPi {
			return a - TwoPi
		}
	}
	return normalizeAngleMod(a)
}

func normalizeAngleMod(a float64) float64 {
	a = math.Mod(a, TwoPi)
	if a < 0 {
		a += TwoPi
	}
	return a
}

// WrapPi reduces a to the half-open interval [-π, π).
func WrapPi(a float64) float64 {
	a = NormalizeAngle(a)
	if a >= math.Pi {
		a -= TwoPi
	}
	return a
}

// AngleDiff returns the smallest absolute angular difference between a and b,
// in [0, π].
func AngleDiff(a, b float64) float64 {
	return math.Abs(WrapPi(a - b))
}

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// ErrSingular is returned when a linear system has no unique solution.
var ErrSingular = errors.New("mathx: singular matrix")

// SolveLinear solves the dense n×n system A·x = b in place using Gaussian
// elimination with partial pivoting. A and b are overwritten; the solution
// is returned. A is row-major: A[i] is row i.
func SolveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 || len(b) != n {
		return nil, fmt.Errorf("mathx: bad system dimensions %dx%d vs %d", n, n, len(b))
	}
	for i := range a {
		if len(a[i]) != n {
			return nil, fmt.Errorf("mathx: row %d has %d columns, want %d", i, len(a[i]), n)
		}
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		piv := col
		best := math.Abs(a[col][col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r][col]); v > best {
				best, piv = v, r
			}
		}
		if best == 0 { //lint:floateq-ok — exact-zero pivot means singular
			return nil, ErrSingular
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		// Eliminate below.
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			if f == 0 { //lint:floateq-ok — exact-zero skip is an optimisation
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	// Back substitution.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for c := i + 1; c < n; c++ {
			s -= a[i][c] * x[c]
		}
		x[i] = s / a[i][i]
	}
	return x, nil
}

// LeastSquares fits coefficients β minimising ‖X·β − y‖₂ for the design
// matrix X (rows = observations, columns = features) by solving the normal
// equations XᵀX·β = Xᵀy. Adequate for the small, well-conditioned systems
// produced by the power-law model fits.
func LeastSquares(x [][]float64, y []float64) ([]float64, error) {
	m := len(x)
	if m == 0 {
		return nil, errors.New("mathx: no observations")
	}
	if len(y) != m {
		return nil, fmt.Errorf("mathx: %d rows but %d targets", m, len(y))
	}
	n := len(x[0])
	if m < n {
		return nil, fmt.Errorf("mathx: underdetermined system: %d observations for %d unknowns", m, n)
	}
	xtx := make([][]float64, n)
	for i := range xtx {
		xtx[i] = make([]float64, n)
	}
	xty := make([]float64, n)
	for r := 0; r < m; r++ {
		row := x[r]
		if len(row) != n {
			return nil, fmt.Errorf("mathx: row %d has %d features, want %d", r, len(row), n)
		}
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				xtx[i][j] += row[i] * row[j]
			}
			xty[i] += row[i] * y[r]
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			xtx[i][j] = xtx[j][i]
		}
	}
	return SolveLinear(xtx, xty)
}

// SplitMix64 is a tiny, fast, splittable PRNG (Steele et al. 2014). Each
// satellite/time-step tuple can derive an independent deterministic stream
// from (seed, index) without any shared state, which keeps parallel
// population generation reproducible regardless of scheduling.
type SplitMix64 struct {
	state    uint64
	spare    float64
	hasSpare bool
}

// NewSplitMix64 returns a generator seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 { return &SplitMix64{state: seed} }

// Uint64 returns the next 64 random bits.
func (s *SplitMix64) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (s *SplitMix64) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// UniformRange returns a uniform value in [lo, hi).
func (s *SplitMix64) UniformRange(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// NormFloat64 returns a standard normal variate (Box–Muller; the second
// variate of each pair is cached).
func (s *SplitMix64) NormFloat64() float64 {
	if s.hasSpare {
		s.hasSpare = false
		return s.spare
	}
	for {
		u := s.Float64()
		if u == 0 { //lint:floateq-ok — guard before log(0)
			continue
		}
		v := s.Float64()
		r := math.Sqrt(-2 * math.Log(u))
		s.spare = r * math.Sin(TwoPi*v)
		s.hasSpare = true
		return r * math.Cos(TwoPi*v)
	}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0, matching
// math/rand semantics.
func (s *SplitMix64) Intn(n int) int {
	if n <= 0 {
		panic("mathx: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}
