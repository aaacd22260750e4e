// Package model implements the empirical performance models of §V-B: the
// Extra-P-style power-law fit of the conjunction count
//
//	c′(n, s, t, d) = C · n^α · s^β · t^γ · d^δ
//
// (the paper's Eqs. 3 and 4 are two instances of this family), the
// conjunction-hash sizing rule built on it, and the memory planner that
// computes how many sampling steps fit into a device's memory at once
// (p, o, r_c) and auto-reduces the hybrid variant's seconds-per-sample
// until the parallelisation factor reaches the CUDA block width.
package model

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mathx"
)

// PowerLaw is a fitted (or paper-supplied) conjunction-count model.
type PowerLaw struct {
	C          float64 // leading coefficient
	N, S, T, D float64 // exponents of satellites, s_ps, span, threshold
}

// PaperGrid is Eq. 3: c′ = 2.32e-9 · n² · s^(4/3) · t · d^(7/4).
var PaperGrid = PowerLaw{C: 2.32e-9, N: 2, S: 4.0 / 3.0, T: 1, D: 7.0 / 4.0}

// PaperHybrid is Eq. 4: c′ = 2.14e-9 · n² · s^(5/3) · t · d.
var PaperHybrid = PowerLaw{C: 2.14e-9, N: 2, S: 5.0 / 3.0, T: 1, D: 1}

// Predict evaluates the model.
func (m PowerLaw) Predict(n, s, t, d float64) float64 {
	return m.C * math.Pow(n, m.N) * math.Pow(s, m.S) * math.Pow(t, m.T) * math.Pow(d, m.D)
}

// String renders the model in the paper's form.
func (m PowerLaw) String() string {
	return fmt.Sprintf("c' = %.3g · n^%.3g · s^%.3g · t^%.3g · d^%.3g", m.C, m.N, m.S, m.T, m.D)
}

// Observation is one measured conjunction count at a parameter point.
type Observation struct {
	N, S, T, D float64 // parameters
	Count      float64 // measured conjunctions (must be positive to fit)
}

// Fit performs the log–log least-squares fit of the power law over the
// observations — the Extra-P substitution (DESIGN.md §7). Observations with
// non-positive counts are skipped (log undefined); at least five usable
// observations spanning more than one value per varied parameter are needed.
func Fit(obs []Observation) (PowerLaw, error) {
	var x [][]float64
	var y []float64
	for _, o := range obs {
		if o.Count <= 0 || o.N <= 0 || o.S <= 0 || o.T <= 0 || o.D <= 0 {
			continue
		}
		x = append(x, []float64{1, math.Log(o.N), math.Log(o.S), math.Log(o.T), math.Log(o.D)})
		y = append(y, math.Log(o.Count))
	}
	if len(x) < 5 {
		return PowerLaw{}, errors.New("model: need at least 5 positive observations to fit")
	}
	beta, err := mathx.LeastSquares(x, y)
	if err != nil {
		return PowerLaw{}, fmt.Errorf("model: %w (vary each parameter across observations)", err)
	}
	return PowerLaw{C: math.Exp(beta[0]), N: beta[1], S: beta[2], T: beta[3], D: beta[4]}, nil
}

// FitNOnly fits c′ = C·n^α with the other parameters fixed — enough for the
// population-size sweeps where s, t, d are constant (a full fit would be
// singular there).
func FitNOnly(obs []Observation) (PowerLaw, error) {
	var x [][]float64
	var y []float64
	for _, o := range obs {
		if o.Count <= 0 || o.N <= 0 {
			continue
		}
		x = append(x, []float64{1, math.Log(o.N)})
		y = append(y, math.Log(o.Count))
	}
	if len(x) < 2 {
		return PowerLaw{}, errors.New("model: need at least 2 positive observations")
	}
	beta, err := mathx.LeastSquares(x, y)
	if err != nil {
		return PowerLaw{}, fmt.Errorf("model: %w", err)
	}
	// The fixed parameters are folded into the coefficient; the returned
	// model has zero exponents for them (their factors evaluate to 1).
	return PowerLaw{C: math.Exp(beta[0]), N: beta[1]}, nil
}

// ConjunctionSlots applies the §V-B sizing rule to a model estimate:
// c = max(c′, 10,000) · 2 (insertion headroom) · 2 (population variance).
func ConjunctionSlots(estimate float64) int {
	c := math.Max(estimate, 10000)
	return int(math.Ceil(c)) * 2 * 2
}

// Structure sizes in bytes (§V-B's data-structure sizes for our layouts).
const (
	// SatelliteBytes is a_s-per-object: elements plus identifiers.
	SatelliteBytes = 64
	// KeplerDataBytes is a_k-per-object: the cached propagation data
	// (mean motion, semi-latus rectum, basis vectors, velocity factor).
	KeplerDataBytes = 64
	// GridSlotBytes is one grid hash slot: 8-byte key + 4-byte list head.
	GridSlotBytes = 12
	// EntryBytes is a_l-per-object: one Fig. 6 satellite entry
	// (id, next, 3×float64 position).
	EntryBytes = 32
	// PairSlotBytes is one conjunction hash slot (§V-B: 16 B).
	PairSlotBytes = 16
)

// Plan is the §V-B memory plan for a run.
type Plan struct {
	// P is the number of sampling steps whose grids fit in memory at once
	// (the parallelisation factor p), capped at O — more grids than
	// samples is pointless.
	P int
	// MemoryP is the memory-limited parallelisation factor before the O
	// cap; the auto-tuner targets this, because a short span (small O)
	// is not memory pressure.
	MemoryP int
	// O is the total number of samples to process (o = t / s_ps).
	O int
	// Rounds is r_c = ⌈o / p⌉.
	Rounds int
	// SecondsPerSample is the (possibly auto-reduced) s_ps the plan is for.
	SecondsPerSample float64
	// ConjunctionSlotCount is the planned conjunction hash capacity.
	ConjunctionSlotCount int
	// FixedBytes is a_s + a_k + a_ch.
	FixedBytes int64
	// PerGridBytes is a_gh + a_l for one sampling step.
	PerGridBytes int64
}

// Planner computes memory plans.
type Planner struct {
	// MemoryBytes is the available memory m.
	MemoryBytes int64
	// GridSlotFactor is the hash-set slot multiple (the paper's 2×).
	GridSlotFactor float64
	// Model estimates the conjunction count (Eq. 3 or 4).
	Model PowerLaw
}

// ErrNoMemory is returned when the fixed allocations plus a single grid do
// not fit in the budget at the requested sampling step.
var ErrNoMemory = errors.New("model: population does not fit in memory with a single grid")

// Plan computes p, o and r_c for a run of n objects over span seconds with
// the given threshold and sampling step.
func (pl Planner) Plan(n int, span, threshold, sps float64) (Plan, error) {
	if n <= 0 || span <= 0 || sps <= 0 || threshold <= 0 {
		return Plan{}, fmt.Errorf("model: invalid plan parameters n=%d span=%g d=%g sps=%g", n, span, threshold, sps)
	}
	slotFactor := pl.GridSlotFactor
	if slotFactor <= 0 {
		slotFactor = 2
	}
	cSlots := ConjunctionSlots(pl.Model.Predict(float64(n), sps, span, threshold))
	fixed := int64(n)*(SatelliteBytes+KeplerDataBytes) + int64(cSlots)*PairSlotBytes
	perGrid := int64(float64(n)*slotFactor)*GridSlotBytes + int64(n)*EntryBytes

	free := pl.MemoryBytes - fixed
	if free < perGrid {
		return Plan{}, fmt.Errorf("%w: fixed %d B + grid %d B > budget %d B", ErrNoMemory, fixed, perGrid, pl.MemoryBytes)
	}
	memP := int(free / perGrid)
	o := int(math.Ceil(span / sps))
	if o < 1 {
		o = 1
	}
	p := memP
	if p > o {
		p = o
	}
	return Plan{
		P:                    p,
		MemoryP:              memP,
		O:                    o,
		Rounds:               (o + p - 1) / p,
		SecondsPerSample:     sps,
		ConjunctionSlotCount: cSlots,
		FixedBytes:           fixed,
		PerGridBytes:         perGrid,
	}, nil
}

// TargetParallelism is the block width the hybrid auto-tuner aims for
// ("a parallelization factor p … approximately 512").
const TargetParallelism = 512

// AutoTuneHybrid reduces seconds-per-sample from startSps (halving, with a
// floor of 1 s) until the plan's parallelisation factor reaches
// TargetParallelism or the floor is hit — the §V-B behaviour that degrades
// the hybrid variant at 512k/1M satellites in Fig. 10c. It returns the
// final plan; a plan is returned even when the target is not reached, as
// long as at least one grid fits.
func (pl Planner) AutoTuneHybrid(n int, span, threshold, startSps float64) (Plan, error) {
	sps := startSps
	if sps <= 0 {
		sps = 9
	}
	for {
		plan, err := pl.Plan(n, span, threshold, sps)
		switch {
		case errors.Is(err, ErrNoMemory) && sps > 1:
			// The conjunction map itself does not fit; shrinking s_ps
			// shrinks the estimate (Eq. 4's s^(5/3) factor) — this is the
			// paper's 9 → 4 → 1 reduction at 512k/1M satellites.
		case err != nil:
			return Plan{}, err
		case plan.MemoryP >= TargetParallelism || sps <= 1:
			return plan, nil
		}
		sps = math.Max(1, sps/2)
	}
}
