// Package a is the sinklock fixture: Sink/Observer shapes mirroring
// internal/core/observer.go, with want-comments on every delivery the
// analyzer must flag.
package a

import "sync"

type Conjunction struct{ A, B int32 }

type Sink interface{ Emit(Conjunction) }

type SinkFunc func(Conjunction)

func (f SinkFunc) Emit(c Conjunction) { f(c) }

type StepInfo struct{ Step int }
type PhaseInfo struct{ Phase int }

type Observer interface {
	OnStep(StepInfo)
	OnPhase(PhaseInfo)
}

type ObserverFuncs struct {
	OnStepF  func(StepInfo)
	OnPhaseF func(PhaseInfo)
}

func (o ObserverFuncs) OnStep(s StepInfo) {
	if o.OnStepF != nil {
		o.OnStepF(s)
	}
}

func (o ObserverFuncs) OnPhase(p PhaseInfo) {
	if o.OnPhaseF != nil {
		o.OnPhaseF(p)
	}
}

type emitter struct {
	mu   sync.Mutex
	sink Sink
	obs  Observer
}

var (
	mu   sync.Mutex
	rw   sync.RWMutex
	sink Sink
	obs  Observer
)

// --- serialised deliveries that must stay silent ---

func lockedEmit(c Conjunction) {
	mu.Lock()
	sink.Emit(c)
	mu.Unlock()
}

func lockDeferUnlock(c Conjunction) {
	mu.Lock()
	defer mu.Unlock()
	sink.Emit(c)
}

func rwWriteLockEmit(c Conjunction) {
	rw.Lock()
	sink.Emit(c)
	rw.Unlock()
}

func fieldMutexEmit(e *emitter, c Conjunction) {
	e.mu.Lock()
	e.sink.Emit(c)
	e.obs.OnStep(StepInfo{Step: 1})
	e.mu.Unlock()
}

func lockedInsideClosure(c Conjunction) func() {
	return func() {
		mu.Lock()
		defer mu.Unlock()
		sink.Emit(c)
	}
}

func lockedLoopBody(cs []Conjunction) {
	for _, c := range cs {
		mu.Lock()
		sink.Emit(c)
		mu.Unlock()
	}
}

// --- unserialised deliveries ---

func bareEmit(c Conjunction) {
	sink.Emit(c) // want "Emit on Sink without a lock held on every path"
}

func sinkFuncEmit(c Conjunction) {
	var f SinkFunc = func(Conjunction) {}
	f.Emit(c) // want "Emit on SinkFunc without a lock held on every path"
}

func unlockThenEmit(c Conjunction) {
	mu.Lock()
	mu.Unlock()
	sink.Emit(c) // want "Emit on Sink without a lock"
}

func lockOnOneArmOnly(c Conjunction, cond bool) {
	if cond {
		mu.Lock()
	}
	sink.Emit(c) // want "Emit on Sink without a lock"
	if cond {
		mu.Unlock()
	}
}

func readLockIsNotSerialisation(c Conjunction) {
	rw.RLock()
	sink.Emit(c) // want "Emit on Sink without a lock"
	rw.RUnlock()
}

func bareObserver() {
	obs.OnStep(StepInfo{Step: 2})    // want "OnStep on Observer without a lock"
	obs.OnPhase(PhaseInfo{Phase: 1}) // want "OnPhase on Observer without a lock"
}

func observerFuncsAdapter(o ObserverFuncs) {
	o.OnStep(StepInfo{Step: 3}) // want "OnStep on ObserverFuncs without a lock"
}

// suppressedEmit models the pre-run single-goroutine phase emission whose
// serialisation is inherited from the caller, not a mutex.
func suppressedEmit(c Conjunction) {
	sink.Emit(c) //lint:sinklock-ok pre-run single-goroutine emission; no concurrent deliverer exists yet
}
