package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	satconj "repro"
	"repro/internal/catalog"
	"repro/internal/httpapi"
	"repro/internal/store"
)

// serviceStack is the in-process stack cmd/conjserver assembles — catalogue,
// store, handler, rescreen loop — behind a real loopback listener.
type serviceStack struct {
	cat  *catalog.Catalog
	st   *store.Store
	h    *httpapi.Handler
	rs   *httpapi.Rescreener
	srv  *http.Server
	base string
	opts satconj.Options

	stopLoop context.CancelFunc
	loopDone chan error
	serveErr chan error
}

// startService brings the stack up and returns once the priming pass has
// published its snapshot. storeDir must exist and be empty.
func startService(sats []satconj.Satellite, variant satconj.Variant, storeDir string) (*serviceStack, error) {
	cat, err := catalog.New(sats, time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC), catalog.Options{})
	if err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	st, err := store.Open(storeDir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &serviceStack{cat: cat, st: st, opts: screenOptions(variant, screenWorkers())}
	s.h = httpapi.NewServer(httpapi.Config{Catalog: cat, Store: st})
	// conjserver's only trigger is its interval tick; the benchmark nudges
	// instead, because tick wait is configuration, not program speed.
	s.rs = httpapi.NewRescreener(s.h, s.opts, time.Hour, nil)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = st.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: s.h}
	s.serveErr = make(chan error, 1)
	go func() { s.serveErr <- s.srv.Serve(ln) }()

	ctx, cancel := context.WithCancel(context.Background())
	s.stopLoop = cancel
	s.loopDone = make(chan error, 1)
	go func() { s.loopDone <- s.rs.Run(ctx) }()

	client := &http.Client{}
	defer client.CloseIdleConnections()
	poll, err := longPoll(client, s.base, 0, 0)
	if err != nil || poll.TimedOut || poll.Version == 0 {
		_ = s.stop()
		return nil, fmt.Errorf("priming pass published no snapshot: %v", err)
	}
	return s, nil
}

// stop drains subscribers, shuts the listener, ends the rescreen loop and
// closes the store, waiting for each goroutine it started.
func (s *serviceStack) stop() error {
	s.h.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shutdownErr := s.srv.Shutdown(ctx)
	if err := <-s.serveErr; !errors.Is(err, http.ErrServerClosed) {
		shutdownErr = errors.Join(shutdownErr, err)
	}
	s.stopLoop()
	<-s.loopDone
	return errors.Join(shutdownErr, s.st.Close())
}

// longPoll is GET /v1/subscribe in poll mode.
func longPoll(client *http.Client, base string, object int32, since uint64) (httpapi.PollResponse, error) {
	var out httpapi.PollResponse
	url := fmt.Sprintf("%s/v1/subscribe?object=%d&mode=poll&since_version=%d&timeout_seconds=10", base, object, since)
	resp, err := client.Get(url)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("poll: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, fmt.Errorf("poll: %w", err)
	}
	return out, nil
}

// deltaClient is the closed-loop writer: one delta in flight at a time.
type deltaClient struct {
	s       *serviceStack
	client  *http.Client
	rng     *rand.Rand
	elems   []httpapi.ElementsJSON // the client's copy of the catalogue
	version uint64                 // snapshot version of the last poll reply
	tr      *tracer
}

func newDeltaClient(s *serviceStack, sats []satconj.Satellite, seed uint64, tr *tracer) *deltaClient {
	elems := make([]httpapi.ElementsJSON, len(sats))
	for i, sat := range sats {
		el := sat.Elements
		elems[i] = httpapi.ElementsJSON{
			ID: sat.ID, SemiMajorAxis: el.SemiMajorAxis, Eccentricity: el.Eccentricity,
			Inclination: el.Inclination, RAAN: el.RAAN, ArgPerigee: el.ArgPerigee, MeanAnomaly: el.MeanAnomaly,
		}
	}
	return &deltaClient{
		s: s, client: &http.Client{}, rng: rand.New(rand.NewSource(int64(seed))),
		elems: elems, version: uint64(s.cat.Version()), tr: tr,
	}
}

// deltaTiming splits one delta's freshness: POST round trip, POST reply →
// snapshot produced (nudge, wait for the loop, the pass), snapshot
// produced → poll reply read off the socket.
type deltaTiming struct {
	fresh, post, pass, wake float64 // seconds
}

// one sends a delta updating deltaObjects random objects and waits until a
// long-poll shows a snapshot at least as new as the delta.
func (c *deltaClient) one(op string) (deltaTiming, error) {
	var dt deltaTiming
	req := httpapi.DeltaRequest{}
	picked := make(map[int]bool, deltaObjects)
	for len(req.Updates) < deltaObjects {
		idx := c.rng.Intn(len(c.elems))
		if picked[idx] {
			continue
		}
		picked[idx] = true
		e := &c.elems[idx]
		e.MeanAnomaly = math.Mod(e.MeanAnomaly+1e-3*float64(len(req.Updates)+1), 2*math.Pi)
		req.Updates = append(req.Updates, *e)
	}
	body, err := json.Marshal(req)
	if err != nil {
		return dt, err
	}

	sent := time.Now()
	resp, err := c.client.Post(c.s.base+"/v1/catalog/delta", "application/json", bytes.NewReader(body))
	if err != nil {
		return dt, err
	}
	var dr httpapi.DeltaResponse
	decodeErr := json.NewDecoder(resp.Body).Decode(&dr)
	resp.Body.Close()
	posted := time.Now()
	if resp.StatusCode != http.StatusOK {
		return dt, fmt.Errorf("delta: status %d", resp.StatusCode)
	}
	if decodeErr != nil {
		return dt, fmt.Errorf("delta: %w", decodeErr)
	}

	c.s.rs.Nudge()
	poll, err := longPoll(c.client, c.s.base, req.Updates[0].ID, c.version)
	seen := time.Now()
	if err != nil {
		return dt, err
	}
	if poll.TimedOut || poll.Draining {
		return dt, fmt.Errorf("delta: poll for version %d timed out", dr.Version)
	}
	if poll.Version < dr.Version || poll.ProducedAt == nil {
		return dt, fmt.Errorf("delta: poll returned stale version %d, delta was %d", poll.Version, dr.Version)
	}
	c.version = poll.Version

	root := c.tr.add("delta", op, -1, sent, seen)
	c.tr.add("post", op, root, sent, posted)
	c.tr.add("rescreen", op, root, posted, *poll.ProducedAt)
	c.tr.add("wake", op, root, *poll.ProducedAt, seen)
	return deltaTiming{
		fresh: seen.Sub(sent).Seconds(),
		post:  posted.Sub(sent).Seconds(),
		pass:  poll.ProducedAt.Sub(posted).Seconds(),
		wake:  seen.Sub(*poll.ProducedAt).Seconds(),
	}, nil
}

// reader is the open-loop conditional reader: one connection, one request
// every 1/rate seconds whether or not the last one has returned.
type reader struct {
	base   string
	client *http.Client
	etag   string
	tr     *tracer
	tally  tally
	lat    []float64 // seconds from the request's due time to its reply
	late   []float64 // seconds the generator sent it after its due time
}

func newReader(base string, tr *tracer) *reader {
	tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &reader{base: base, client: &http.Client{Transport: tp}, tr: tr}
}

// read issues one conditional GET /v1/conjunctions, learning the ETag anew
// from every 200.
func (rd *reader) read() error {
	req, err := http.NewRequest(http.MethodGet, rd.base+"/v1/conjunctions", nil)
	if err != nil {
		return err
	}
	if rd.etag != "" {
		req.Header.Set("If-None-Match", rd.etag)
	}
	resp, err := rd.client.Do(req)
	if err != nil {
		return err
	}
	_, copyErr := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch {
	case copyErr != nil:
		return copyErr
	case resp.StatusCode == http.StatusOK:
		rd.etag = resp.Header.Get("ETag")
	case resp.StatusCode != http.StatusNotModified:
		return fmt.Errorf("read: status %d", resp.StatusCode)
	}
	return nil
}

// run reads on schedule until stop closes. Latency counts from the due
// time, so a stall is charged to every request it delayed.
func (rd *reader) run(stop <-chan struct{}) {
	interval := time.Second / readRate
	start := time.Now()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		select {
		case <-stop:
			return
		case <-time.After(time.Until(due)): // at once when the reader is behind schedule
		}
		t0 := time.Now()
		err := rd.read()
		t1 := time.Now()
		rd.tally.check(err)
		rd.tr.add("read", "read"+strconv.Itoa(k), -1, t0, t1)
		rd.lat = append(rd.lat, t1.Sub(due).Seconds())
		rd.late = append(rd.late, t0.Sub(due).Seconds())
	}
}

// serviceRun is what one run of the service stack measured.
type serviceRun struct {
	setup   float64
	cpu     float64
	deltas  []deltaTiming
	reads   *reader
	metrics map[string]float64 // /metrics diff over the timed section
}

// driveService sets the stack up over sats, warms it, then sends timed
// deltas beside the reader until the budget is spent, and finally checks
// the published snapshot against a from-scratch screen of the catalogue.
func driveService(sats []satconj.Satellite, variant satconj.Variant, seed uint64, minDeltas int, timed time.Duration, tr *tracer, t *tally) (*serviceRun, error) {
	dir, err := os.MkdirTemp(workDir, "store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	s, err := startService(sats, variant, dir)
	if err != nil {
		return nil, err
	}
	dc := newDeltaClient(s, sats, seed, tr)
	rd := newReader(s.base, tr)
	defer func() {
		dc.client.CloseIdleConnections()
		rd.client.CloseIdleConnections()
		t.check(s.stop())
	}()

	for i := 0; i < warmupDeltas; i++ {
		if _, err := dc.one(fmt.Sprintf("warmup%d", i)); err != nil {
			return nil, fmt.Errorf("warm-up delta %d: %w", i, err)
		}
	}
	if err := rd.read(); err != nil {
		return nil, fmt.Errorf("priming read: %w", err)
	}
	run := &serviceRun{reads: rd, setup: time.Since(processStart).Seconds()}

	before, err := scrapeMetrics(s.base)
	if err != nil {
		return nil, err
	}
	stop, readerDone := make(chan struct{}), make(chan struct{})
	go func() { defer close(readerDone); rd.run(stop) }()
	cpu0, deadline := cpuSeconds(), time.Now().Add(timed)
	for i := 0; i < minDeltas || time.Now().Before(deadline); i++ {
		dt, err := dc.one(fmt.Sprintf("delta%d", i))
		t.check(err)
		if err == nil {
			run.deltas = append(run.deltas, dt)
		}
	}
	run.cpu = cpuSeconds() - cpu0
	close(stop)
	<-readerDone
	t.merge(rd.tally)
	after, err := scrapeMetrics(s.base)
	if err != nil {
		return nil, err
	}
	run.metrics = make(map[string]float64, len(after))
	for k, v := range after {
		run.metrics[k] = v - before[k]
	}
	if len(run.deltas) == 0 {
		return nil, errors.New("every timed delta failed")
	}

	// The chain of delta passes must have arrived where a fresh screen of
	// the final catalogue arrives.
	snap, rev := s.h.Snapshot(), s.cat.Latest()
	switch {
	case snap == nil || snap.Version != uint64(rev.Version()):
		t.fail("final snapshot is not of the final catalogue version %d", rev.Version())
	default:
		res, err := satconj.Screen(rev.Satellites(), s.opts)
		if err != nil {
			t.fail("from-scratch screen of the final catalogue: %v", err)
		} else {
			t.check(sameConjunctions(snap.Conjunctions, res.Conjunctions, thresholdKm/4))
		}
	}
	return run, nil
}

// sameConjunctions checks two screens of one population report the same
// unique pairs, each with its closest approach within tolKm.
func sameConjunctions(a, b []satconj.Conjunction, tolKm float64) error {
	pa, pb := closestByPair(a), closestByPair(b)
	for pair, pca := range pa {
		other, ok := pb[pair]
		if !ok {
			return fmt.Errorf("pair %d/%d (PCA %.4f km) is missing from the second set", pair[0], pair[1], pca)
		}
		if math.Abs(pca-other) > tolKm {
			return fmt.Errorf("pair %d/%d: PCA %.4f km vs %.4f km", pair[0], pair[1], pca, other)
		}
	}
	for pair, pca := range pb {
		if _, ok := pa[pair]; !ok {
			return fmt.Errorf("pair %d/%d (PCA %.4f km) is missing from the first set", pair[0], pair[1], pca)
		}
	}
	return nil
}

func closestByPair(conjs []satconj.Conjunction) map[[2]int32]float64 {
	out := make(map[[2]int32]float64, len(conjs))
	for _, c := range conjs {
		k := [2]int32{c.A, c.B}
		if pca, ok := out[k]; !ok || c.PCA < pca {
			out[k] = c.PCA
		}
	}
	return out
}

// scrapeMetrics reads GET /metrics into series → value; labelled series
// keep their label set in the key, as exposed.
func scrapeMetrics(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: status %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[cut+1:], 64); err == nil {
			out[line[:cut]] = v
		}
	}
	return out, sc.Err()
}

// runServiceUntraced is the end-to-end run of the service workload.
func runServiceUntraced(spec workloadSpec, seed uint64, budget runBudget, r *workloadResult) error {
	sats, err := generatePopulation(spec, seed)
	if err != nil {
		return err
	}
	run, err := driveService(sats, spec.Variant, seed, budget.minDeltas, budget.timed, nil, &r.tally)
	if err != nil {
		return err
	}
	fresh := make([]float64, len(run.deltas))
	for i, d := range run.deltas {
		fresh[i] = d.fresh
	}
	r.set("setup_s", single(run.setup))
	r.set("op_p50_ms", summarize(fresh, 0.5, 1e3))
	r.set("op_p90_ms", summarize(fresh, 0.9, 1e3))
	r.set("cpu_s_per_op", single(run.cpu/float64(len(fresh))))
	return nil
}

// setServiceLayers fills every httpapi.* metric of the traced run.
func setServiceLayers(run *serviceRun, r *workloadResult) {
	pick := func(f func(deltaTiming) float64) []float64 {
		xs := make([]float64, len(run.deltas))
		for i, d := range run.deltas {
			xs[i] = f(d)
		}
		return xs
	}
	r.set("httpapi.delta_post_ms", summarize(pick(func(d deltaTiming) float64 { return d.post }), 0.5, 1e3))
	r.set("httpapi.rescreen_pass_ms", summarize(pick(func(d deltaTiming) float64 { return d.pass }), 0.5, 1e3))
	r.set("httpapi.poll_wake_ms", summarize(pick(func(d deltaTiming) float64 { return d.wake }), 0.5, 1e3))

	// Mean per pass, from the program's own phase counters.
	passes := run.metrics["conjserver_rescreen_seconds_count"]
	for _, phase := range []string{"insertion", "freeze", "detection", "refine", "filter"} {
		total := run.metrics[`conjserver_rescreen_phase_seconds_total{phase="`+phase+`"}`]
		v := 0.0
		if passes > 0 {
			v = 1e3 * total / passes
		}
		s := single(v)
		s.N = int(passes)
		r.set("httpapi.pass_"+phase+"_ms", s)
	}

	r.set("httpapi.read_p50_us", summarize(run.reads.lat, 0.5, 1e6))
	r.set("httpapi.read_p99_us", summarize(run.reads.lat, 0.99, 1e6))
	r.set("httpapi.read_late_p50_us", summarize(run.reads.late, 0.5, 1e6))
}
