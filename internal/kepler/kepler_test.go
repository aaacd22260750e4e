package kepler

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
)

var allSolvers = []Solver{Contour{}, Newton{}, Danby{}}

func TestSolversZeroEccentricity(t *testing.T) {
	for _, s := range allSolvers {
		for _, m := range []float64{0, 0.5, math.Pi, 4, 6.2} {
			if got := s.Solve(m, 0); math.Abs(got-m) > 1e-12 {
				t.Errorf("%s: Solve(%v, 0) = %v, want %v", s.Name(), m, got, m)
			}
		}
	}
}

func TestSolversResidualGrid(t *testing.T) {
	// Dense grid over mean anomaly × eccentricity including the hard
	// high-eccentricity corner.
	eccs := []float64{0, 1e-6, 0.0025, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99}
	for _, s := range allSolvers {
		worst := 0.0
		for _, e := range eccs {
			for k := 0; k <= 200; k++ {
				m := mathx.TwoPi * float64(k) / 200
				ecc := s.Solve(m, e)
				if r := Residual(ecc, m, e); r > worst {
					worst = r
				}
			}
		}
		if worst > 1e-10 {
			t.Errorf("%s: worst residual %.3e > 1e-10", s.Name(), worst)
		}
	}
}

func TestSolversAgree(t *testing.T) {
	c, n, d := Contour{}, Newton{}, Danby{}
	for _, e := range []float64{0.001, 0.2, 0.6, 0.9} {
		for k := 1; k < 40; k++ {
			m := mathx.TwoPi * float64(k) / 40
			ec, en, ed := c.Solve(m, e), n.Solve(m, e), d.Solve(m, e)
			if mathx.AngleDiff(ec, en) > 1e-9 || mathx.AngleDiff(ec, ed) > 1e-9 {
				t.Errorf("solvers disagree at m=%v e=%v: contour=%v newton=%v danby=%v", m, e, ec, en, ed)
			}
		}
	}
}

func TestSolveExactPoints(t *testing.T) {
	// E = π/2, e arbitrary → M = π/2 − e. Closed-form check.
	for _, s := range allSolvers {
		for _, e := range []float64{0.1, 0.5, 0.9} {
			m := math.Pi/2 - e
			if got := s.Solve(m, e); math.Abs(got-math.Pi/2) > 1e-10 {
				t.Errorf("%s: Solve(π/2−e, %v) = %v, want π/2", s.Name(), e, got)
			}
		}
	}
}

func TestSolveSymmetry(t *testing.T) {
	// E(2π − M) = 2π − E(M).
	s := Contour{}
	for _, e := range []float64{0.2, 0.8} {
		for _, m := range []float64{0.3, 1.5, 2.9} {
			a := s.Solve(m, e)
			b := s.Solve(mathx.TwoPi-m, e)
			if math.Abs((mathx.TwoPi-a)-b) > 1e-10 {
				t.Errorf("symmetry broken at m=%v e=%v: E=%v, E'=%v", m, e, a, b)
			}
		}
	}
}

func TestSolveEdgeMeanAnomalies(t *testing.T) {
	// M = 0 and M = π map to E = M exactly; points just off the edges must
	// remain accurate (the contour solver falls back to Newton there).
	s := Contour{}
	for _, e := range []float64{0.1, 0.9, 0.99} {
		for _, m := range []float64{0, 1e-9, 1e-7, math.Pi - 1e-7, math.Pi, math.Pi + 1e-7, mathx.TwoPi - 1e-9} {
			ecc := s.Solve(m, e)
			if r := Residual(ecc, m, e); r > 1e-10 {
				t.Errorf("edge m=%v e=%v residual %.3e", m, e, r)
			}
		}
	}
}

func TestContourRootOnSamplePoint(t *testing.T) {
	// At tiny e the root E = M + e·sin E lands on the contour's θ = 0 sample
	// wherever sin E rounds to 1, f vanishes there and the trapezoid sum
	// divides by zero; the solver must fall back, not return NaN.
	s := Contour{}
	for _, e := range []float64{1e-13, 1e-12, 1e-11} {
		for _, m := range []float64{math.Pi / 2, 1.564450908391925, 3 * math.Pi / 2, 4.713325099182625} {
			ecc := s.Solve(m, e)
			if math.IsNaN(ecc) || Residual(ecc, m, e) > 1e-12 {
				t.Errorf("m=%v e=%v: E = %v", m, e, ecc)
			}
		}
	}
}

func TestSolveUnnormalizedInput(t *testing.T) {
	s := Contour{}
	a := s.Solve(1.0, 0.3)
	b := s.Solve(1.0+mathx.TwoPi*3, 0.3)
	c := s.Solve(1.0-mathx.TwoPi*2, 0.3)
	if mathx.AngleDiff(a, b) > 1e-10 || mathx.AngleDiff(a, c) > 1e-10 {
		t.Errorf("period reduction failed: %v %v %v", a, b, c)
	}
}

func TestContourPointCountConvergence(t *testing.T) {
	// More contour points must not make results worse; very few points must
	// still be rescued by the Newton polish to reasonable accuracy.
	m, e := 2.2, 0.8
	for _, n := range []int{8, 16, 32, 64} {
		ecc := Contour{N: n}.Solve(m, e)
		if r := Residual(ecc, m, e); r > 1e-9 {
			t.Errorf("N=%d residual %.3e", n, r)
		}
	}
}

func TestPropResidualAlwaysSmall(t *testing.T) {
	f := func(mRaw, eRaw float64) bool {
		if math.IsNaN(mRaw) || math.IsInf(mRaw, 0) {
			return true
		}
		m := mathx.NormalizeAngle(mRaw)
		e := math.Mod(math.Abs(eRaw), 0.99)
		if math.IsNaN(e) {
			e = 0.5
		}
		for _, s := range allSolvers {
			if Residual(s.Solve(m, e), m, e) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropMonotoneInMeanAnomaly(t *testing.T) {
	// E is strictly increasing in M for fixed e.
	s := Contour{}
	for _, e := range []float64{0.1, 0.5, 0.9} {
		prev := s.Solve(0.001, e)
		for k := 2; k < 500; k++ {
			m := mathx.TwoPi * float64(k) / 500
			cur := s.Solve(m, e)
			if cur <= prev-1e-12 {
				t.Fatalf("E not monotone at m=%v e=%v: %v then %v", m, e, prev, cur)
			}
			prev = cur
		}
	}
}

func TestDefaultIsContour(t *testing.T) {
	if Default().Name() != "contour" {
		t.Errorf("Default() = %s, want contour", Default().Name())
	}
}

func BenchmarkContour(b *testing.B)  { benchSolver(b, Contour{}) }
func BenchmarkNewton(b *testing.B)   { benchSolver(b, Newton{}) }
func BenchmarkDanby(b *testing.B)    { benchSolver(b, Danby{}) }
func BenchmarkContour8(b *testing.B) { benchSolver(b, Contour{N: 8}) }

func benchSolver(b *testing.B, s Solver) {
	b.ReportAllocs()
	var acc float64
	for i := 0; i < b.N; i++ {
		m := math.Mod(float64(i)*0.618033988, mathx.TwoPi)
		e := 0.0025 + 0.9*math.Mod(float64(i)*0.381966, 1)*0 // typical LEO e
		acc += s.Solve(m, e+0.0025)
	}
	sink = acc
}

var sink float64
