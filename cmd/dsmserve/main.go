// Command dsmserve runs the simulation service: an HTTP API over
// internal/serve that executes simulation specs on a bounded worker pool
// with a content-addressed result cache and single-flight coalescing.
//
//	dsmserve -addr :8080 -workers 8 -queue 64 -cache 1024
//
//	curl -s 'localhost:8080/v1/sim?app=counter&policy=UNC&prim=FAP&procs=16&c=8'
//	curl -s localhost:8080/v1/sim -d '{"app":"mcs","policy":"INV","prim":"CAS","ldex":true}'
//	curl -s localhost:8080/metrics
//
// SIGINT/SIGTERM drain gracefully: the listener stops accepting, in-flight
// requests and queued simulations complete, then the process exits 0. A
// negative -workers, -queue, -cache, -timeout or -drain, or an argument
// that is not a flag, exits 2 with usage; 0 means the default.
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
	"syscall"
	"time"

	"dsm/internal/serve"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		workers = flag.Int("workers", 0, "simulation workers (0 = GOMAXPROCS)")
		queue   = flag.Int("queue", 0, "queued simulations beyond the workers (0 = 64)")
		cache   = flag.Int("cache", 0, "result cache entries, LRU beyond (0 = 1024)")
		timeout = flag.Duration("timeout", 0, "per-request deadline (0 = 30s)")
		drain   = flag.Duration("drain", 30*time.Second, "graceful shutdown budget")
		pprof   = flag.String("pprof", "", "serve /debug/pprof on this address (e.g. localhost:6060; empty disables)")
	)
	flag.Parse()
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "dsmserve: "+format+"\n", args...)
		flag.Usage()
		os.Exit(2)
	}
	switch {
	case flag.NArg() > 0:
		fail("unexpected argument %q", flag.Arg(0))
	case *workers < 0:
		fail("-workers %d negative", *workers)
	case *queue < 0:
		fail("-queue %d negative", *queue)
	case *cache < 0:
		fail("-cache %d negative", *cache)
	case *timeout < 0:
		fail("-timeout %v negative", *timeout)
	case *drain < 0:
		fail("-drain %v negative", *drain)
	}
	log.SetPrefix("dsmserve: ")
	log.SetFlags(0)

	if *pprof != "" {
		// Separate listener: profiling stays off the serving address, so
		// exposing it never widens the public API surface.
		go func() {
			log.Printf("pprof on http://%s/debug/pprof/", *pprof)
			log.Printf("pprof listener: %v", http.ListenAndServe(*pprof, nil))
		}()
	}

	s := serve.New(serve.Config{
		Workers:      *workers,
		Queue:        *queue,
		CacheEntries: *cache,
		Timeout:      *timeout,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("listening on %s", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatalf("listen: %v", err)
	case <-ctx.Done():
	}

	// Drain: stop accepting, let in-flight handlers finish, then drain the
	// worker pool so every accepted simulation gets its response.
	log.Printf("draining (budget %s)", *drain)
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("shutdown: %v", err)
		os.Exit(1)
	}
	s.Close()
	m := s.Metrics()
	fmt.Fprintf(os.Stderr, "dsmserve: served %d requests (%d hits, %d coalesced, %d runs), clean exit\n",
		m.Requests, m.CacheHits, m.Coalesced, m.Runs)
}
