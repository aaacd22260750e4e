package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"time"

	satconj "repro"
	"repro/internal/brent"
	"repro/internal/catalog"
	"repro/internal/filters"
	"repro/internal/httpapi"
	"repro/internal/kepler"
	"repro/internal/lockfree"
	"repro/internal/propagation"
	"repro/internal/serve"
	"repro/internal/spatial"
	"repro/internal/store"
)

// The probes time one exported call of one layer over fixed inputs: the
// shell population drawn with probeSeed, whatever -seed says, so that a
// probe's number moves only when its layer's code does. Each probe repeats
// a fixed batch for at least budget.probe and reports the median batch.

const (
	probeSeed    = 1
	probeObjects = 4096
	// probeCatalogObjects and deltaObjects are the service workload's own
	// sizes, so catalog.apply_delta_us is the cost inside freshness.
	probeCatalogObjects = 8000
	probeConjunctions   = 256 // conjunctions per synthetic snapshot or stored run
)

// probeSink keeps results alive so the compiler cannot drop the probed call.
var probeSink float64

// timeBatches runs batch, which returns the time its measured section
// took, until at least d has been measured; it returns ns per op, one
// sample per batch.
func timeBatches(d time.Duration, opsPerBatch int, batch func() time.Duration) []float64 {
	var out []float64
	for total := time.Duration(0); total < d || len(out) < 3; {
		el := batch()
		total += el
		out = append(out, float64(el.Nanoseconds())/float64(opsPerBatch))
	}
	return out
}

// timed adapts a batch that is measured whole.
func timed(f func()) func() time.Duration {
	return func() time.Duration {
		t0 := time.Now()
		f()
		return time.Since(t0)
	}
}

// runProbes fills every isolated-probe metric. smoke shrinks the inputs.
func runProbes(budget runBudget, smoke bool, r *workloadResult) error {
	n, catN := probeObjects, probeCatalogObjects
	if smoke {
		n, catN = n/8, catN/8
	}
	sats, err := satconj.GeneratePopulation(satconj.PopulationConfig{N: n, Seed: probeSeed})
	if err != nil {
		return fmt.Errorf("probe population: %w", err)
	}
	d := budget.probe
	workers := screenWorkers()

	// kepler: cold contour solve, and the warm-started solve one 1 s step on.
	solver := kepler.Default()
	ecc0 := make([]float64, n)
	for i := range sats {
		ecc0[i] = solver.Solve(sats[i].Elements.MeanAnomaly, sats[i].Elements.Eccentricity)
	}
	r.set("kepler.solve_ns", summarize(timeBatches(d, n, timed(func() {
		for i := range sats {
			probeSink += solver.Solve(sats[i].Elements.MeanAnomaly, sats[i].Elements.Eccentricity)
		}
	})), 0.5, 1))
	r.set("kepler.solve_from_ns", summarize(timeBatches(d, n, timed(func() {
		for i := range sats {
			dm := sats[i].MeanMotion()
			probeSink += kepler.SolveFrom(sats[i].Elements.MeanAnomaly+dm, sats[i].Elements.Eccentricity, ecc0[i]+dm)
		}
	})), 0.5, 1))

	// propagation: one warm-started state, and the parallel sweep.
	prop := propagation.TwoBody{}
	r.set("propagation.state_warm_ns", summarize(timeBatches(d, n, timed(func() {
		for i := range sats {
			pos, _, _ := prop.StateWarm(&sats[i], 1, ecc0[i]+sats[i].MeanMotion())
			probeSink += pos.X
		}
	})), 0.5, 1))
	states := make([]propagation.State, n)
	step := 0.0
	r.set("propagation.propagate_all_ns_per_object", summarize(timeBatches(d, n, timed(func() {
		step++
		propagation.PropagateAll(prop, sats, step, workers, states)
	})), 0.5, 1))

	// spatial: position → packed cell key, on the grid variant's cell size.
	grid, err := spatial.NewGrid(spatial.CellSize(thresholdKm, 1), 0)
	if err != nil {
		return fmt.Errorf("probe grid: %w", err)
	}
	propagation.PropagateAll(prop, sats, 0, workers, states)
	keys := make([]uint64, n)
	r.set("spatial.key_of_ns", summarize(timeBatches(d, n, timed(func() {
		for i := range states {
			keys[i], _ = grid.KeyOf(states[i].Pos)
		}
	})), 0.5, 1))

	// lockfree: grid insert (one goroutine, no contention), freeze, pair insert.
	gs := lockfree.NewGridSet(2*n, n)
	var insertErr error
	fill := func() {
		for i := range states {
			if err := gs.Insert(keys[i], int32(i), sats[i].ID, states[i].Pos); err != nil {
				insertErr = err
			}
		}
	}
	r.set("lockfree.grid_insert_ns", summarize(timeBatches(d, n, func() time.Duration {
		gs.Reset()
		return timed(fill)()
	}), 0.5, 1))
	if insertErr != nil {
		return fmt.Errorf("probe grid insert: %w", insertErr)
	}
	snap := lockfree.NewGridSnapshot(gs.Slots(), n)
	r.set("lockfree.freeze_ns_per_entry", summarize(timeBatches(d, n, timed(func() {
		snap.Freeze(gs, workers)
	})), 0.5, 1))
	ps := lockfree.NewPairSet(4 * n)
	r.set("lockfree.pair_insert_ns", summarize(timeBatches(d, n, func() time.Duration {
		ps.Reset()
		return timed(func() {
			for i := 0; i < n; i++ {
				if _, err := ps.Insert(int32(i), int32((i+1)%n), uint32(i%64)); err != nil {
					insertErr = err
				}
			}
		})()
	}), 0.5, 1))
	if insertErr != nil {
		return fmt.Errorf("probe pair insert: %w", insertErr)
	}

	// filters: the geometric chain on neighbouring pairs of the population.
	fcfg := filters.Config{}.WithThreshold(thresholdKm)
	r.set("filters.classify_ns", summarize(timeBatches(d, n, timed(func() {
		for i := range sats {
			g := filters.Classify(sats[i].Elements, sats[(i+1)%n].Elements, fcfg)
			probeSink += g.RelInc
		}
	})), 0.5, 1))

	// brent: one refinement-shaped minimisation — squared distance of a
	// pair over a ±4.5 s window at the refiner's tolerance — propagation
	// included, since that is what a refined pair costs.
	const brentPairs = 256
	evals, minimisations := 0, 0
	var brentErr error
	r.set("brent.minimize_ns", summarize(timeBatches(d, brentPairs, timed(func() {
		for i := 0; i < brentPairs; i++ {
			a, b := &sats[i%n], &sats[(i+1)%n]
			res, err := brent.Minimize(func(dt float64) float64 {
				evals++
				pa, _ := prop.State(a, 300+dt)
				pb, _ := prop.State(b, 300+dt)
				return pa.Dist2(pb)
			}, -4.5, 4.5, 1e-4, 100)
			if err != nil {
				brentErr = err
			}
			minimisations++
			probeSink += res.F
		}
	})), 0.5, 1))
	if brentErr != nil {
		return fmt.Errorf("probe brent: %w", brentErr)
	}
	r.set("brent.evals_per_minimize", single(float64(evals)/float64(minimisations)))

	return runServiceProbes(budget, catN, r)
}

// runServiceProbes times the write- and read-side layers below httpapi,
// in process.
func runServiceProbes(budget runBudget, catN int, r *workloadResult) error {
	d := budget.probe
	sats, err := satconj.GeneratePopulation(satconj.PopulationConfig{N: catN, Seed: probeSeed})
	if err != nil {
		return fmt.Errorf("probe catalogue population: %w", err)
	}
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

	// catalog: a deltaObjects-object update, copy-on-write over catN.
	cat, err := catalog.New(sats, epoch, catalog.Options{})
	if err != nil {
		return fmt.Errorf("probe catalog: %w", err)
	}
	updates := append([]satconj.Satellite(nil), sats[:deltaObjects]...)
	var applyErr error
	r.set("catalog.apply_delta_us", summarize(timeBatches(d, 1, timed(func() {
		if _, err := cat.ApplyDelta(catalog.Delta{Updates: updates}); err != nil {
			applyErr = err
		}
	})), 0.5, 1e-3))
	if applyErr != nil {
		return fmt.Errorf("probe apply delta: %w", applyErr)
	}

	// store: one fsynced append of a run the size the service persists.
	conjs := make([]satconj.Conjunction, probeConjunctions)
	for i := range conjs {
		conjs[i] = satconj.Conjunction{A: int32(i), B: int32(i + 1), Step: uint32(i % 64), TCA: float64(i), PCA: 1 + float64(i%10)/10}
	}
	dir, err := os.MkdirTemp(workDir, "probe-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return fmt.Errorf("probe store: %w", err)
	}
	defer st.Close()
	var appendErr error
	r.set("store.append_ms", summarize(timeBatches(d, 1, timed(func() {
		if _, err := st.Append(store.Run{Objects: catN, Variant: "probe", Conjunctions: conjs}); err != nil {
			appendErr = err
		}
	})), 0.5, 1e-6))
	if appendErr != nil {
		return fmt.Errorf("probe store append: %w", appendErr)
	}

	// serve: snapshot construction, and a publish that diffs two snapshots
	// differing in four conjunctions, to no subscriber and to 64.
	r.set("serve.snapshot_build_us", summarize(timeBatches(d, 1, timed(func() {
		s := serve.NewSnapshot(2, epoch, epoch, catN, true, conjs)
		probeSink += float64(len(s.ETag))
	})), 0.5, 1e-3))
	small := serve.NewSnapshot(1, epoch, epoch, catN, true, conjs[:probeConjunctions-4])
	full := serve.NewSnapshot(2, epoch, epoch, catN, true, conjs)
	for _, subs := range []int{0, 64} {
		hub := serve.NewHub(serve.HubConfig{})
		var open []*serve.Subscriber
		for i := 0; i < subs; i++ {
			// The last conjunctions are the ones that come and go.
			sub, err := hub.Subscribe(conjs[probeConjunctions-1-i%4].A, 0)
			if err != nil {
				return fmt.Errorf("probe subscribe: %w", err)
			}
			open = append(open, sub)
		}
		name := fmt.Sprintf("serve.publish_%dsub_us", subs)
		r.set(name, summarize(timeBatches(d, 2, func() time.Duration {
			el := timed(func() { hub.Publish(small); hub.Publish(full) })()
			for _, sub := range open { // untimed: empty the queues so nobody is evicted
				for drained := false; !drained; {
					select {
					case <-sub.Events():
					default:
						drained = true
					}
				}
			}
			return el
		}), 0.5, 1e-3))
		for _, sub := range open {
			sub.Close()
		}
		hub.Close()
	}

	// httpapi and observability: the 304 revalidation and a /metrics
	// scrape straight into the handler, no socket.
	h := httpapi.NewServer(httpapi.Config{Catalog: cat})
	rs := httpapi.NewRescreener(h, screenOptions(satconj.VariantHybrid, screenWorkers()), time.Hour, nil)
	if !rs.RunOnce(context.Background()) || h.Snapshot() == nil {
		return fmt.Errorf("probe handler: priming pass published no snapshot")
	}
	defer h.Drain()
	rw := &discardWriter{hdr: make(http.Header)}
	read, err := http.NewRequest(http.MethodGet, "/v1/conjunctions", nil)
	if err != nil {
		return err
	}
	read.RemoteAddr = "127.0.0.1:9"
	read.Header.Set("If-None-Match", h.Snapshot().ETag)
	const readsPerBatch = 1000
	r.set("httpapi.read304_inproc_ns", summarize(timeBatches(d, readsPerBatch, timed(func() {
		for i := 0; i < readsPerBatch; i++ {
			rw.status = 0
			h.ServeHTTP(rw, read)
		}
	})), 0.5, 1))
	if rw.status != http.StatusNotModified {
		return fmt.Errorf("probe read: status %d, want 304", rw.status)
	}
	scrape, err := http.NewRequest(http.MethodGet, "/metrics", nil)
	if err != nil {
		return err
	}
	r.set("observability.scrape_us", summarize(timeBatches(d, 1, timed(func() {
		rw.status = 0
		h.ServeHTTP(rw, scrape)
	})), 0.5, 1e-3))
	if rw.status != http.StatusOK {
		return fmt.Errorf("probe scrape: status %d, want 200", rw.status)
	}
	return nil
}

// discardWriter is a ResponseWriter that keeps the status and drops the body.
type discardWriter struct {
	hdr    http.Header
	status int
}

func (w *discardWriter) Header() http.Header { return w.hdr }
func (w *discardWriter) WriteHeader(c int)   { w.status = c }
func (w *discardWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return len(b), nil
}
