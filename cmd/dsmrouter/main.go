// Command dsmrouter is the fleet front door: an HTTP router that spreads
// the spec keyspace across N dsmserve backends with a consistent-hash
// ring, sends each request to its key's owner in one upstream call, and
// coalesces concurrent identical requests fleet-wide. It exposes the same
// /v1 surface as a single dsmserve, byte-identical.
//
//	dsmserve -addr :8081 & dsmserve -addr :8082 &
//	dsmrouter -addr :8080 -backends http://localhost:8081,http://localhost:8082
//
//	curl -s 'localhost:8080/v1/sim?app=counter&policy=UNC&prim=FAP&procs=16&c=8'
//	curl -s localhost:8080/metrics
//
// SIGINT/SIGTERM drain gracefully: /healthz flips to 503 (so a balancer
// stops sending), the listener stops accepting, in-flight relays finish,
// then the process exits 0. The backends drain themselves.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // profiling endpoints on the -pprof listener only
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dsm/internal/fleet"
)

func main() {
	var (
		addr     = flag.String("addr", ":8090", "listen address")
		backends = flag.String("backends", "", "comma-separated dsmserve base URLs (required)")
		timeout  = flag.Duration("timeout", 0, "per-upstream-request budget (0 = 60s)")
		drain    = flag.Duration("drain", 30*time.Second, "graceful shutdown budget")
		pprof    = flag.String("pprof", "", "serve /debug/pprof on this address (e.g. localhost:6061; empty disables)")
	)
	flag.Parse()
	log.SetPrefix("dsmrouter: ")
	log.SetFlags(0)

	if *pprof != "" {
		// Separate listener: profiling stays off the routing address, so
		// exposing it never widens the public API surface.
		go func() {
			log.Printf("pprof on http://%s/debug/pprof/", *pprof)
			log.Printf("pprof listener: %v", http.ListenAndServe(*pprof, nil))
		}()
	}

	var list []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			list = append(list, b)
		}
	}
	rt, err := fleet.New(fleet.Config{Backends: list, Timeout: *timeout})
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: rt.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("routing %d backends on %s", len(list), *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatalf("listen: %v", err)
	case <-ctx.Done():
	}

	// Drain: refuse new routing work (healthz goes 503 first, so a
	// load balancer can eject this router), then let in-flight relays
	// and sweep streams finish.
	log.Printf("draining (budget %s)", *drain)
	rt.Close()
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("shutdown: %v", err)
		os.Exit(1)
	}
	m := rt.Metrics()
	fmt.Fprintf(os.Stderr,
		"dsmrouter: routed %d requests (%d hits, %d coalesced, %d misses), clean exit\n",
		m.Requests, m.Hits, m.Coalesced, m.Misses)
}
