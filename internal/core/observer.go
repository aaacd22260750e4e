package core

// Streaming and observability contracts of the screening pipeline. The
// detectors historically materialised the full conjunction set and reported
// nothing until Screen returned; production screenings run for minutes, so
// the pipeline instead emits conjunctions as refinement confirms them (Sink)
// and surfaces per-step and per-phase progress while the run is in flight
// (Observer). Both hooks are optional: a nil Sink/Observer adds zero work
// and zero allocations to the hot path — the allocation-budget test in
// alloc_test.go gates that.

import "time"

// Sink receives conjunctions as soon as the refinement phase confirms them,
// before the run's Result is assembled. Emissions arrive in refinement
// completion order, not the (A, B, TCA, Step) order of Result.Conjunctions; a
// caller that needs the sorted view uses the returned Result instead (or in
// addition — the Result always carries the full set).
type Sink interface {
	// Emit is called once per confirmed conjunction. Calls are serialised
	// by the pipeline — implementations need no internal locking — but they
	// run on the pipeline's goroutines: a slow Emit stalls refinement.
	Emit(Conjunction)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Conjunction)

// Emit implements Sink.
func (f SinkFunc) Emit(c Conjunction) { f(c) }

// Phase names one pipeline stage (the four-step structure of §III).
type Phase string

// The pipeline phases, in execution order. The grid variant reports
// allocate, sample and refine; the hybrid adds filter before refine. The
// legacy baseline reports no phase, only steps. registry_battery_test.go
// pins these sequences.
const (
	PhaseAllocate Phase = "allocate" // step 1: validation + upfront allocation
	PhaseSample   Phase = "sample"   // step 2: propagate + key + candidates
	PhaseFreeze   Phase = "freeze"   // never reported; kept because bench/ reads it
	PhaseFilter   Phase = "filter"   // step 3: orbital filter chain (hybrid)
	PhaseRefine   Phase = "refine"   // step 4: PCA/TCA determination
)

// StepInfo reports one completed sampling step.
type StepInfo struct {
	Step        int    // index of the step that just finished
	Steps       int    // total steps of the run
	Completed   int    // steps finished so far
	GridEntries int    // objects inside the cube at this step, the scan's entry count
	Candidates  int    // candidate (pair, step) keys emitted so far (a delta pass's include the pairs with no dirty member that its collect drops)
	OutOfBounds uint64 // cumulative out-of-cube samples
}

// PhaseInfo reports one completed pipeline phase. Counters are cumulative
// run totals at the instant the phase ended; fields a phase cannot know yet
// are zero.
type PhaseInfo struct {
	Phase   Phase
	Elapsed time.Duration // wall time of the phase

	Candidates        int // distinct (pair, step) candidates (PhaseSample on)
	FilterRejected    int // candidates dropped by the filters (PhaseFilter)
	PrefilterRejected int // candidates rejected analytically before Brent (PhaseRefine)
	Refinements       int // Brent searches performed (PhaseRefine)
	RefineBatches     int // warm-refiner satellite batches (PhaseRefine)
	Conjunctions      int // conjunctions confirmed (PhaseRefine)
}

// Observer receives pipeline progress while a run is in flight. Method
// calls are serialised by the pipeline; implementations need no internal
// locking but run on the pipeline's goroutines, so they must be quick.
type Observer interface {
	// OnStep is called after every completed sampling step.
	OnStep(StepInfo)
	// OnPhase is called after every completed pipeline phase.
	OnPhase(PhaseInfo)
}

// ObserverFuncs adapts optional callbacks to the Observer interface; nil
// fields are skipped.
type ObserverFuncs struct {
	Step  func(StepInfo)
	Phase func(PhaseInfo)
}

// OnStep implements Observer.
func (o ObserverFuncs) OnStep(s StepInfo) {
	if o.Step != nil {
		o.Step(s)
	}
}

// OnPhase implements Observer.
func (o ObserverFuncs) OnPhase(p PhaseInfo) {
	if o.Phase != nil {
		o.Phase(p)
	}
}
