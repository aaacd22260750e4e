package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormalizeAngle(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{math.Pi, math.Pi},
		{2 * math.Pi, 0},
		{-math.Pi / 2, 3 * math.Pi / 2},
		{5 * math.Pi, math.Pi},
		{-7 * math.Pi, math.Pi},
	}
	for _, c := range cases {
		if got := NormalizeAngle(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("NormalizeAngle(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// The compare-and-subtract fast path must return the very float64 the Mod
// reduction does: the detectors' cell keys depend on it bit for bit.
func TestNormalizeAngleFastPathBitIdentical(t *testing.T) {
	edges := []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64,
		math.Nextafter(TwoPi, 0), TwoPi, math.Nextafter(TwoPi, 10),
		math.Nextafter(2*TwoPi, 0), 2 * TwoPi, math.Nextafter(2*TwoPi, 100),
		-math.SmallestNonzeroFloat64, -TwoPi, 1e9, -1e9,
	}
	rng := NewSplitMix64(7)
	for i := 0; i < 100000; i++ {
		edges = append(edges, (rng.Float64()*3-0.5)*2*TwoPi) // [-2π, 10π)
	}
	for _, a := range edges {
		got, want := NormalizeAngle(a), normalizeAngleMod(a)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("NormalizeAngle(%v) = %v, Mod reduction gives %v", a, got, want)
		}
	}
}

func TestWrapPi(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{math.Pi, -math.Pi},
		{-math.Pi, -math.Pi},
		{math.Pi / 2, math.Pi / 2},
		{3 * math.Pi / 2, -math.Pi / 2},
	}
	for _, c := range cases {
		if got := WrapPi(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("WrapPi(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestAngleDiff(t *testing.T) {
	if got := AngleDiff(0.1, TwoPi-0.1); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("AngleDiff wraparound = %v, want 0.2", got)
	}
	if got := AngleDiff(1, 2); math.Abs(got-1) > 1e-12 {
		t.Errorf("AngleDiff(1,2) = %v, want 1", got)
	}
}

func TestPropNormalizeAngleRange(t *testing.T) {
	f := func(a float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return true
		}
		n := NormalizeAngle(a)
		return n >= 0 && n < TwoPi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClamp(t *testing.T) {
	if got := Clamp(5, 0, 1); got != 1 {
		t.Errorf("Clamp(5,0,1) = %v", got)
	}
	if got := Clamp(-5, 0, 1); got != 0 {
		t.Errorf("Clamp(-5,0,1) = %v", got)
	}
	if got := Clamp(0.5, 0, 1); got != 0.5 {
		t.Errorf("Clamp(0.5,0,1) = %v", got)
	}
}

func TestSolveLinear(t *testing.T) {
	// 2x + y = 5 ; x - y = 1  → x=2, y=1
	a := [][]float64{{2, 1}, {1, -1}}
	b := []float64{5, 1}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-12 || math.Abs(x[1]-1) > 1e-12 {
		t.Errorf("x = %v, want [2 1]", x)
	}
}

func TestSolveLinearNeedsPivot(t *testing.T) {
	// Leading zero forces a row swap.
	a := [][]float64{{0, 1}, {1, 0}}
	b := []float64{3, 7}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-7) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("x = %v, want [7 3]", x)
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	b := []float64{1, 2}
	if _, err := SolveLinear(a, b); err != ErrSingular {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

func TestSolveLinearBadDims(t *testing.T) {
	if _, err := SolveLinear([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Error("expected error for non-square matrix")
	}
	if _, err := SolveLinear(nil, nil); err == nil {
		t.Error("expected error for empty system")
	}
}

func TestLeastSquaresExact(t *testing.T) {
	// y = 3 + 2x fit through exact points.
	x := [][]float64{{1, 0}, {1, 1}, {1, 2}, {1, 3}}
	y := []float64{3, 5, 7, 9}
	beta, err := LeastSquares(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(beta[0]-3) > 1e-10 || math.Abs(beta[1]-2) > 1e-10 {
		t.Errorf("beta = %v, want [3 2]", beta)
	}
}

func TestLeastSquaresOverdetermined(t *testing.T) {
	// Noisy y = 1 + 0.5x; check recovery within noise scale.
	rng := NewSplitMix64(99)
	var xs [][]float64
	var ys []float64
	for i := 0; i < 200; i++ {
		v := rng.UniformRange(0, 10)
		xs = append(xs, []float64{1, v})
		ys = append(ys, 1+0.5*v+0.01*rng.NormFloat64())
	}
	beta, err := LeastSquares(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(beta[0]-1) > 0.02 || math.Abs(beta[1]-0.5) > 0.01 {
		t.Errorf("beta = %v, want ≈[1 0.5]", beta)
	}
}

func TestLeastSquaresErrors(t *testing.T) {
	if _, err := LeastSquares(nil, nil); err == nil {
		t.Error("expected error for no observations")
	}
	if _, err := LeastSquares([][]float64{{1, 2}}, []float64{1, 2}); err == nil {
		t.Error("expected error for row/target mismatch")
	}
	if _, err := LeastSquares([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Error("expected error for underdetermined system")
	}
}

func TestSplitMix64Deterministic(t *testing.T) {
	a := NewSplitMix64(42)
	b := NewSplitMix64(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewSplitMix64(43)
	if NewSplitMix64(42).Uint64() == c.Uint64() {
		t.Error("different seeds produced identical first output")
	}
}

func TestSplitMix64Float64Range(t *testing.T) {
	r := NewSplitMix64(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestSplitMix64UniformRange(t *testing.T) {
	r := NewSplitMix64(7)
	lo, hi := -3.0, 5.0
	sum := 0.0
	const n = 50000
	for i := 0; i < n; i++ {
		v := r.UniformRange(lo, hi)
		if v < lo || v >= hi {
			t.Fatalf("UniformRange = %v out of [%v,%v)", v, lo, hi)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-1) > 0.05 {
		t.Errorf("uniform mean = %v, want ≈1", mean)
	}
}

func TestSplitMix64Normal(t *testing.T) {
	r := NewSplitMix64(11)
	const n = 100000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ≈0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ≈1", variance)
	}
}

func TestSplitMix64Intn(t *testing.T) {
	r := NewSplitMix64(5)
	counts := make([]int, 4)
	for i := 0; i < 40000; i++ {
		counts[r.Intn(4)]++
	}
	for i, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("bucket %d count %d far from uniform", i, c)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}
