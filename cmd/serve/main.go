// Command serve runs batch RICD detection over a click table and serves
// the resulting verdicts as an online query API — the deployment shape of
// the paper's Fig 1, where the recommender's risk-control layer asks "is
// this user / item / co-click forged?" on the impression path.
//
// Usage:
//
//	serve -in clicks.csv -addr :8080
//	      [-k1 10] [-k2 10] [-alpha 1.0]
//	      [-thot 0] [-tclick 0]          # 0 derives thresholds from the data
//	      [-resweep 0]                   # re-detect and republish at this interval
//	      [-max-inflight 256]            # concurrent queries before 429 shedding
//	      [-trace out.json] [-audit out.jsonl] [-runs]
//	      [-debug-addr :6060]            # pprof/expvar/metrics sidecar
//
// The verdict index is immutable and epoch-swapped: the initial detection
// publishes epoch 1, and each -resweep re-detection publishes a fresh
// epoch atomically, so queries never observe a half-built index. The
// process serves until SIGINT/SIGTERM, then drains in-flight queries
// before tearing down observability (query server first — see
// shutdownSteps in cmd/stream for the ordering rationale; this command
// has no WAL or buffer, so its order is drain → debug stop → audit
// close).
//
// Endpoints: /v1/user/{id}, /v1/item/{id}, /v1/pair?u=&i=,
// /v1/group/{id}, POST /v1/check (batch), /healthz.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	fakeclick "repro"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("serve: ")
	os.Exit(run())
}

func run() int {
	var (
		in        = flag.String("in", "", "input click-table CSV (required)")
		addr      = flag.String("addr", ":8080", "address for the verdict query API")
		k1        = flag.Int("k1", 10, "minimum users per attack group")
		k2        = flag.Int("k2", 10, "minimum items per attack group")
		alpha     = flag.Float64("alpha", 1.0, "extension tolerance α in (0,1]")
		thot      = flag.Uint64("thot", 0, "hot-item threshold (0 = derive from data)")
		tclick    = flag.Uint("tclick", 0, "abnormal-click threshold (0 = derive via Eq 4)")
		resweep   = flag.Duration("resweep", 0, "re-run detection and publish a fresh epoch at this interval (0 = detect once)")
		inflight  = flag.Int("max-inflight", 256, "max concurrent queries before 429 shedding (0 = unlimited)")
		workers   = flag.Int("workers", 0, "worker goroutines for the sharded detection pipeline (0 = GOMAXPROCS)")
		tracePath = flag.String("trace", "", "write the run's stage trace to this file as JSON")
		traceTree = flag.Bool("trace-tree", false, "print the human-readable stage tree after the run")
		auditPath = flag.String("audit", "", "write the explainable audit trail to this file as JSON Lines")
		runsFlag  = flag.Bool("runs", false, "print the run ledger as JSON at exit")
		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof, expvar, Prometheus /metrics and /debug/runs on this address (e.g. :6060)")
	)
	flag.Parse()
	if *in == "" {
		flag.Usage()
		log.Print("missing -in")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cli, err := obs.StartCLI(obs.CLIConfig{
		Namespace: "serve",
		TracePath: *tracePath,
		TraceTree: *traceTree,
		AuditPath: *auditPath,
		Runs:      *runsFlag,
		DebugAddr: *debugAddr,
	})
	if err != nil {
		log.Print(err)
		return 1
	}
	defer cli.Shutdown()
	observer := cli.Obs()

	g, err := loadGraph(*in)
	if err != nil {
		log.Print(err)
		return 1
	}
	fmt.Printf("loaded %s: %d users, %d items, %d edges, %d clicks\n",
		*in, g.NumUsers(), g.NumItems(), g.NumEdges(), g.TotalClicks())

	// Config.Serve makes every successful batch detection publish its
	// verdicts into the store as a fresh epoch.
	verdicts := fakeclick.NewVerdictStore(observer)
	cfg := fakeclick.Config{
		K1:       *k1,
		K2:       *k2,
		Alpha:    *alpha,
		THot:     *thot,
		TClick:   uint32(*tclick),
		Workers:  *workers,
		Observer: observer,
		Serve:    verdicts,
	}
	if *resweep > 0 {
		// Shared across the resweep loop: components whose subgraph did not
		// change since the previous detection replay their cached verdict.
		// A detect-once run has no second detection to replay into.
		cfg.Cache = fakeclick.NewVerdictCache(0)
	}

	detect := func() error {
		rep, derr := fakeclick.DetectContext(ctx, g, cfg)
		if derr != nil {
			return derr
		}
		fmt.Printf("detection finished in %v: %d groups, %d suspicious users, %d suspicious items (epoch %d)\n",
			rep.Elapsed, len(rep.Groups), len(rep.Users), len(rep.Items), verdicts.Epoch())
		return nil
	}
	if err := detect(); err != nil {
		log.Print(err)
		return 1
	}

	handler := fakeclick.NewVerdictServer(verdicts, serve.Options{
		Obs:         observer,
		MaxInflight: *inflight,
	})
	srv := &http.Server{Addr: *addr, Handler: handler}
	go func() {
		if serr := srv.ListenAndServe(); serr != nil && serr != http.ErrServerClosed {
			log.Printf("verdict server: %v", serr)
			stop() // a dead listener means serving is over; unwind cleanly
		}
	}()
	fmt.Printf("verdict server on %s (/v1/user/{id}, /v1/item/{id}, /v1/pair, /v1/group/{id}, /v1/check, /healthz)\n", *addr)

	if *resweep > 0 {
		go func() {
			tick := time.NewTicker(*resweep)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					if derr := detect(); derr != nil && ctx.Err() == nil {
						log.Printf("resweep: %v", derr)
					}
				}
			}
		}()
	}

	<-ctx.Done()

	// Teardown order: drain the query server first, while its state is
	// whole; observability last so the drain itself stays in the audit
	// trail (cli.Shutdown via defer).
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if serr := srv.Shutdown(sctx); serr != nil {
		log.Printf("verdict server shutdown: %v", serr)
	}
	cli.Finish()
	return 0
}

// loadGraph reads a click-table CSV into a facade graph.
func loadGraph(path string) (*fakeclick.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g := fakeclick.NewGraph()
	if err := g.LoadCSV(f); err != nil {
		return nil, err
	}
	return g, nil
}
