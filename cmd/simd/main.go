// Command simd serves simulation campaigns over HTTP: the same YAML/JSON
// specs cmd/campaign runs from files, submitted as jobs, streamed as
// Server-Sent Events and collected as byte-deterministic artifacts.
//
// Usage:
//
//	simd [-addr :8080] [-data simd-data] [-budget N]
//
// Endpoints (see README "Simulation as a service"):
//
//	POST   /v1/campaigns                       submit a spec, get a job ID
//	GET    /v1/campaigns                       list jobs
//	GET    /v1/campaigns/{id}                  job status/summary
//	GET    /v1/campaigns/{id}/events           per-cell rows over SSE
//	GET    /v1/campaigns/{id}/artifacts/{name} summary.csv | results.json | power.csv
//	DELETE /v1/campaigns/{id}                  cancel the job
//
// -budget caps concurrent simulations across all jobs. Job state lives
// under -data; killing the server mid-campaign loses nothing — on restart
// every unfinished job resumes from its manifest checkpoint.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"insomnia/internal/cli"
	"insomnia/internal/runner"
	"insomnia/internal/simd"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("simd: ")
	addr := flag.String("addr", ":8080", "listen address")
	data := flag.String("data", "simd-data", "data directory (one subdirectory per job)")
	budget := flag.Int("budget", 0, "max concurrent simulations across all jobs (0 = GOMAXPROCS)")
	flag.Parse()
	if err := cli.RejectArgs("simd", flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}

	// SIGTERM is what `docker stop` sends the shipped container.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv, err := simd.New(ctx, *data, runner.NewBudget(*budget))
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	go func() {
		<-ctx.Done()
		// Jobs first: cancellation leaves their manifests resumable, and
		// in-flight SSE streams end with the jobs. Then drain HTTP.
		srv.Close()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(shutdownCtx)
	}()
	log.Printf("listening on %s (data: %s, budget: %d)", *addr, *data, runner.NewBudget(*budget).Slots())
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	log.Printf("shut down; unfinished jobs resume on restart")
}
