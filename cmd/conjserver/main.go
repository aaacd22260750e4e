// Command conjserver runs the conjunction-screening HTTP service.
//
// Usage:
//
//	conjserver -addr :8080 -max-objects 100000
//	conjserver -addr :8080 -store-dir /var/lib/conjserver -rescreen-interval 60s
//
// Endpoints:
//
//	GET  /v1/health         liveness
//	GET  /v1/version        build/paper info
//	GET  /v1/pool           buffer-pool counters (reuse/leak observability)
//	GET  /v1/runs           in-flight/recent runs (+ persisted history)
//	POST /v1/screen         screen a population (JSON; see internal/httpapi)
//	GET  /v1/catalog        versioned catalogue state
//	POST /v1/catalog/delta  apply adds/updates/removes to the catalogue
//	GET  /v1/conjunctions   live conjunction snapshot (ETag/304) or run history
//	GET  /v1/subscribe      per-object conjunction events (SSE, or mode=poll)
//	GET  /healthz           readiness with snapshot-staleness gating
//	GET  /metrics           Prometheus text exposition
//
// Screening requests draw their grid/pair/state structures from the shared
// process pool (internal/pool), so back-to-back and concurrent requests
// reuse warm buffers instead of re-allocating per run; /v1/pool exposes the
// hit and balance counters.
//
// Continuous operation: the server always holds a versioned catalogue that
// operators evolve via POST /v1/catalog/delta. With -rescreen-interval set,
// a background loop re-screens whenever the catalogue has moved — using the
// incremental delta path (work proportional to the changed objects) when
// the dirty journal covers the window, a full screen otherwise. With
// -store-dir set, every completed run is persisted to an append-only
// crash-safe log, so /v1/conjunctions and the /v1/runs history survive
// restarts.
//
// Read-side fan-out (DESIGN.md §4): every successful rescreen pass
// publishes an immutable snapshot of the conjunction set, so cached
// readers revalidate /v1/conjunctions with If-None-Match (304s never
// touch screening state), /v1/subscribe pushes per-object conjunction
// events over SSE with a long-poll fallback, /healthz lets load
// balancers gate on snapshot staleness (-stale-after), /metrics exports
// the whole operation in Prometheus text format, and -rate-limit-rps
// bounds what any single client IP can ask of the read endpoints.
//
// Example:
//
//	curl -s localhost:8080/v1/screen -d '{
//	  "generate": {"n": 5000, "seed": 1},
//	  "variant": "hybrid",
//	  "threshold_km": 10,
//	  "duration_seconds": 3600,
//	  "event_tol_seconds": 10
//	}'
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os/signal"
	"strings"
	"syscall"
	"time"

	satconj "repro"
	"repro/internal/catalog"
	"repro/internal/httpapi"
	"repro/internal/store"
)

// deltaVariantNames lists the registered variants a background re-screen
// can run: those that accept incremental passes.
func deltaVariantNames() []string {
	var names []string
	for _, d := range satconj.Variants() {
		if d.Incremental {
			names = append(names, string(d.Name))
		}
	}
	return names
}

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		maxObjects = flag.Int("max-objects", 100000, "largest accepted population")
		maxBody    = flag.Int64("max-body-bytes", 0, "request body byte limit (0 = 64 MiB default)")
		recentRuns = flag.Int("recent-runs", 0, "finished runs kept visible in /v1/runs (0 = 32 default)")
		drain      = flag.Duration("drain", 15*time.Second, "graceful-shutdown drain deadline before in-flight screens are cancelled")

		storeDir          = flag.String("store-dir", "", "directory for the persistent run/conjunction store (empty = no persistence)")
		rescreenInterval  = flag.Duration("rescreen-interval", 0, "background catalogue re-screen cadence (0 = disabled)")
		rescreenVariant   = flag.String("rescreen-variant", "grid", "detector for background re-screens: "+strings.Join(deltaVariantNames(), " | "))
		rescreenDuration  = flag.Float64("rescreen-duration", 3600, "screened window for background re-screens (seconds)")
		rescreenThreshold = flag.Float64("rescreen-threshold", 0, "screening threshold for background re-screens (km, 0 = 2 km default)")

		rateLimitRPS    = flag.Float64("rate-limit-rps", 0, "per-client sustained request rate on read endpoints (0 = unlimited)")
		rateLimitBurst  = flag.Int("rate-limit-burst", 0, "per-client burst allowance (0 = max(8, 2x rate))")
		maxSubscribers  = flag.Int("max-subscribers", 0, "concurrent /v1/subscribe consumers (0 = 1024 default)")
		subscriberQueue = flag.Int("subscriber-queue", 0, "buffered events per subscriber before slow-consumer eviction (0 = 64 default)")
		heartbeat       = flag.Duration("sse-heartbeat", 0, "SSE keepalive cadence (0 = 15s default)")
		staleAfter      = flag.Duration("stale-after", 0, "/healthz answers 503 when the snapshot is older than this (0 = 3x rescreen interval; -1ns disables)")
	)
	flag.Parse()

	cfg := httpapi.Config{
		MaxObjects:      *maxObjects,
		MaxBody:         *maxBody,
		RecentRuns:      *recentRuns,
		RateLimit:       httpapi.RateLimit{PerClientRPS: *rateLimitRPS, Burst: *rateLimitBurst},
		MaxSubscribers:  *maxSubscribers,
		SubscriberQueue: *subscriberQueue,
		Heartbeat:       *heartbeat,
	}
	// Staleness gating defaults to three missed rescreen intervals; a
	// server that is not rescreening has no freshness contract to gate on.
	switch {
	case *staleAfter > 0:
		cfg.StaleAfter = *staleAfter
	case *staleAfter == 0 && *rescreenInterval > 0:
		cfg.StaleAfter = 3 * *rescreenInterval
	}

	// The catalogue is always attached (it starts empty at version 1);
	// continuous mode is just a matter of feeding it deltas.
	cat, err := catalog.New(nil, time.Now().UTC(), catalog.Options{})
	if err != nil {
		log.Fatalf("conjserver: catalogue: %v", err)
	}
	cfg.Catalog = cat

	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			log.Fatalf("conjserver: store: %v", err)
		}
		defer func() {
			if err := st.Close(); err != nil {
				log.Printf("conjserver: store close: %v", err)
			}
		}()
		cfg.Store = st
		log.Printf("conjserver: store at %s with %d persisted runs", st.Path(), st.Len())
	}

	handler := httpapi.NewServer(cfg)

	// Two-stage shutdown: SIGINT/SIGTERM stops accepting connections and
	// lets in-flight screens drain; past the drain deadline baseCancel
	// cancels every request context, which unwinds running screens through
	// the pipeline's cooperative-cancellation plumbing (pool balance holds
	// on that path too).
	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	baseCtx, baseCancel := context.WithCancel(context.Background())
	defer baseCancel()

	// The background rescreener gets its own context, cancelled at the
	// start of shutdown so the drain window is spent on client requests —
	// the interrupted pass simply reruns after the next start.
	var rescreenDone chan struct{}
	rsCtx, rsCancel := context.WithCancel(context.Background())
	defer rsCancel()
	if *rescreenInterval > 0 {
		rs := httpapi.NewRescreener(handler, satconj.Options{
			Variant:         satconj.Variant(*rescreenVariant),
			ThresholdKm:     *rescreenThreshold,
			DurationSeconds: *rescreenDuration,
		}, *rescreenInterval, log.Printf)
		rescreenDone = make(chan struct{})
		go func() {
			defer close(rescreenDone)
			_ = rs.Run(rsCtx) // returns its context's cancellation at shutdown
		}()
		log.Printf("conjserver: rescreening every %v (%s, %gs window)", *rescreenInterval, *rescreenVariant, *rescreenDuration)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return baseCtx },
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("conjserver %s listening on %s (max objects %d)", httpapi.Version, *addr, *maxObjects)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-sigCtx.Done():
	}
	stop() // restore default signal behaviour: a second signal kills immediately
	log.Printf("conjserver: shutting down, draining for up to %v", *drain)

	rsCancel()
	if rescreenDone != nil {
		<-rescreenDone
	}

	// Close the fan-out hub before Shutdown: SSE streams never end on
	// their own, so without this the drain deadline would always expire
	// while subscribers are connected.
	handler.Drain()

	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	err = srv.Shutdown(shutdownCtx)
	if errors.Is(err, context.DeadlineExceeded) {
		// Drain expired: cancel the in-flight screens' contexts and give
		// them a moment to unwind cleanly.
		log.Printf("conjserver: drain deadline passed, cancelling in-flight screens")
		baseCancel()
		shutdownCtx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel2()
		err = srv.Shutdown(shutdownCtx2)
	}
	if err != nil {
		log.Fatalf("conjserver: shutdown: %v", err)
	}
	log.Printf("conjserver: stopped")
	// The deferred store.Close then seals the log (runs persisted by the
	// rescreener and in-flight requests are already fsynced per append).
}
