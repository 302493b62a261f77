// Command stream replays a day-stamped click-event CSV through the
// incremental RICD detector, sweeping at the end of every day — the
// paper's Section VIII "apply online to dynamic graphs" future-work
// direction as a command-line tool.
//
// Usage:
//
//	synthgen -out clicks.csv -labels labels.csv -events events.csv
//	stream -events events.csv [-thot 1000] [-tclick 12] [-labels labels.csv]
//	       [-wal-dir state/] [-snapshot-every 5000] [-fsync]
//	       [-buffer 4096] [-shed-policy block|oldest|newest]
//	       [-serve-addr :8080] [-serve-inflight 256]
//	       [-timeout 1m] [-trace out.json] [-trace-tree] [-audit out.jsonl]
//	       [-runs] [-debug-addr :6060] [-hold 30s]
//
// -serve-addr starts the online verdict query service: every committed
// sweep compiles an immutable verdict index and publishes it atomically
// under a new epoch, and the HTTP endpoints (/v1/user/{id}, /v1/item/{id},
// /v1/pair?u=&i=, /v1/group/{id}, POST /v1/check, /healthz) answer the
// recommender's per-impression "is this forged?" question lock-free from
// the current epoch. -serve-inflight bounds concurrent queries; excess
// requests are shed with 429 (counted, never silent). /healthz reports the
// index epoch, its staleness, and the durability-degraded flag. On
// SIGTERM the query server drains FIRST (see shutdownSteps). An address
// that cannot be bound (-serve-addr or -debug-addr) is a start-up error:
// exit status 1, nothing replayed.
//
// -wal-dir enables durable state: every click and sweep commit is written
// ahead to a checksummed WAL under the directory, with periodic atomic
// snapshots (-snapshot-every records; 0 disables). Restarting with the
// same -wal-dir recovers exactly where the previous run stopped — even
// after kill -9 — replaying the WAL tail behind the newest valid snapshot
// and truncating any torn trailing record. With -wal-dir, -events is
// optional: omitting it recovers the persisted state and runs one sweep
// over it. -fsync makes appends survive power loss, not just process
// death.
//
// Per-sweep graph preparation is delta-maintained: each sweep patches only
// the clicks since the last sweep onto the previous graph, compacting with
// a full rebuild once the pending tail exceeds half the aggregated base.
// Detection itself is incremental too: after the first (full) sweep, each
// sweep extracts only around the users touched since the last one and
// re-screens the groups it carried over.
//
// -buffer inserts a bounded pending-click queue between the reader and
// the detector; when it fills, -shed-policy decides between backpressure
// (block) and load shedding (oldest/newest). Sheds are counted and
// audited, never silent.
//
// -audit streams one JSONL audit event per pipeline decision (prune
// removals, screening drops, feedback widenings, sweep boundaries,
// verdicts, recovery and shed decisions) to the given file. -runs prints
// the bounded per-sweep run ledger after the replay. With -debug-addr the
// debug server also exposes Prometheus text-format metrics at /metrics
// and the run ledger at /debug/runs; -hold keeps it scrapeable after the
// replay finishes.
//
// SIGINT/SIGTERM (and -timeout expiry) cancel the in-flight sweep
// cooperatively and run the ordered shutdown: pending clicks are flushed,
// the WAL is snapshotted and closed, THEN the debug server stops, and the
// audit sink closes last — so durable state is safe before the process
// stops looking alive, and the shutdown itself stays audited. The process
// exits with status 2 so scripts can tell a cut-short replay from a
// complete one (status 0) or a hard failure (status 1).
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
	"sync"
	"syscall"
	"time"

	"repro/internal/bipartite"
	"repro/internal/clicktable"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/durable"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/synth"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("stream: ")
	os.Exit(run())
}

func run() int {
	var (
		eventsPath = flag.String("events", "", "input event-stream CSV (required unless -wal-dir has state to recover)")
		k1         = flag.Int("k1", 10, "minimum users per attack group")
		k2         = flag.Int("k2", 10, "minimum items per attack group")
		alpha      = flag.Float64("alpha", 1.0, "extension tolerance α")
		thot       = flag.Uint64("thot", 1000, "hot-item threshold")
		tclick     = flag.Uint("tclick", 12, "abnormal-click threshold")
		labelsPath = flag.String("labels", "", "optional ground-truth label CSV for per-day evaluation")
		walDir     = flag.String("wal-dir", "", "durable-state directory (WAL + snapshots); enables crash recovery")
		snapEvery  = flag.Int("snapshot-every", 5000, "with -wal-dir: snapshot after this many WAL records (0 = only at shutdown)")
		fsyncFlag  = flag.Bool("fsync", false, "with -wal-dir: fsync every WAL append (survive power loss, not just process death)")
		bufferCap  = flag.Int("buffer", 0, "bounded pending-click buffer between reader and detector (0 = ingest directly)")
		shedPolStr = flag.String("shed-policy", "block", "full-buffer policy: block (backpressure), oldest or newest (load shedding)")
		serveAddr  = flag.String("serve-addr", "", "serve the online verdict query API (/v1/*, /healthz) on this address (e.g. :8080)")
		serveInfl  = flag.Int("serve-inflight", 256, "with -serve-addr: max concurrent queries before 429 shedding (0 = unlimited)")
		tracePath  = flag.String("trace", "", "write the replay's stage trace to this file as JSON")
		traceTree  = flag.Bool("trace-tree", false, "print the human-readable stage tree after the replay")
		auditPath  = flag.String("audit", "", "write the explainable audit trail to this file as JSONL (one event per pipeline decision)")
		runsFlag   = flag.Bool("runs", false, "print the per-sweep run ledger (JSON) after the replay")
		debugAddr  = flag.String("debug-addr", "", "serve net/http/pprof, expvar, /metrics (Prometheus text) and /debug/runs on this address (e.g. :6060)")
		hold       = flag.Duration("hold", 0, "keep the debug server running this long after the replay (for scraping); interrupted by SIGINT")
		timeout    = flag.Duration("timeout", 0, "wall-clock budget for the whole replay; on expiry the exit status is 2")
		workers    = flag.Int("workers", 0, "worker goroutines for the sharded sweep pipeline (0 = GOMAXPROCS)")
	)
	flag.Parse()
	if *eventsPath == "" && *walDir == "" {
		flag.Usage()
		log.Print("missing -events (or -wal-dir to recover persisted state)")
		return 2
	}
	shedPolicy, err := stream.ParseShedPolicy(*shedPolStr)
	if err != nil {
		log.Print(err)
		return 2
	}

	// SIGINT/SIGTERM cancel the in-flight sweep cooperatively; a second
	// signal kills the process the default way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var events []synth.Event
	if *eventsPath != "" {
		events, err = loadEvents(*eventsPath)
		if err != nil {
			log.Print(err)
			return 1
		}
		if len(events) == 0 {
			log.Print("event stream is empty")
			return 1
		}
		fmt.Printf("replaying %d events over %d days\n", len(events), events[len(events)-1].Day)
	} else {
		fmt.Printf("no -events: recovering state from %s and sweeping once\n", *walDir)
	}

	var truth *detect.Labels
	if *labelsPath != "" {
		truth, err = loadLabels(*labelsPath)
		if err != nil {
			log.Print(err)
			return 1
		}
	}

	params := core.DefaultParams()
	params.K1, params.K2 = *k1, *k2
	params.Alpha = *alpha
	params.THot = *thot
	params.TClick = uint32(*tclick)
	params.Workers = *workers

	cli, err := obs.StartCLI(obs.CLIConfig{
		Namespace: "stream",
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
	observer := cli.Obs()

	var det *stream.Detector
	if *walDir != "" {
		sync := durable.SyncNever
		if *fsyncFlag {
			sync = durable.SyncAlways
		}
		var info *stream.RecoveryInfo
		det, info, err = stream.Open(stream.Durability{
			Dir:           *walDir,
			Sync:          sync,
			SnapshotEvery: *snapEvery,
		}, params, observer)
		if err == nil {
			fmt.Printf("durable state: cold_start=%v snapshot_clock=%d replayed=%d truncated_bytes=%d seq=%d\n",
				info.ColdStart, info.SnapshotClock, info.Replayed, info.TruncatedBytes, info.Seq)
		}
	} else {
		det, err = stream.New(nil, params)
		if det != nil {
			det.Obs = observer
		}
	}
	if err != nil {
		log.Print(err)
		cli.Shutdown()
		return 1
	}
	// Online verdict serving: every committed sweep compiles the sweep's
	// result into an immutable index and publishes it under a new epoch;
	// queries answer lock-free from whichever epoch is current.
	var verdicts *serve.Store
	var serveSrv *http.Server
	if *serveAddr != "" {
		verdicts = serve.NewStore(observer)
		det.OnCommit = func(res *detect.Result, g *bipartite.Graph) {
			_ = verdicts.Publish(serve.Compile(g, res, params.THot, params.TClick))
		}
		handler := serve.NewServer(verdicts, serve.Options{
			Obs:         observer,
			MaxInflight: *serveInfl,
			Degraded:    func() bool { return det.DurabilityErr() != nil },
		})
		serveSrv, err = obs.StartServer("verdict server", *serveAddr, handler, serve.Endpoints)
		if err != nil {
			// Nothing was replayed; release what opening the detector took.
			log.Print(err)
			if cerr := det.Close(); cerr != nil {
				log.Printf("wal close: %v", cerr)
			}
			cli.Shutdown()
			return 1
		}
	}

	var buf *stream.Buffer
	if *bufferCap > 0 {
		buf = stream.NewBuffer(det, stream.BufferConfig{Capacity: *bufferCap, Policy: shedPolicy})
	}

	// Ordered teardown; runs exactly once, on every exit path below. A
	// fresh context bounds it so shutdown completes even when the replay
	// context is already cancelled (that IS the SIGTERM path).
	var shutdownOnce sync.Once
	shutdown := func() {
		shutdownOnce.Do(func() {
			sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			for _, step := range shutdownSteps(
				func() { // 0: drain the query server — refuse new verdict
					// reads, finish in-flight ones, while state is intact
					if serveSrv == nil {
						return
					}
					if err := serveSrv.Shutdown(sctx); err != nil {
						log.Printf("verdict server shutdown: %v", err)
					}
				},
				func() { // 1: stop intake, flush pending clicks into the detector
					if buf == nil {
						return
					}
					if err := buf.Close(sctx); err != nil {
						log.Printf("buffer flush: %v", err)
					}
					accepted, shed := buf.Stats()
					if shed > 0 {
						fmt.Printf("ingest buffer: accepted=%d shed=%d\n", accepted, shed)
					}
				},
				func() { // 2: make accepted state durable, then release the WAL
					if *walDir == "" {
						return
					}
					if err := det.Snapshot(); err != nil {
						log.Printf("shutdown snapshot: %v", err)
					}
					if err := det.Close(); err != nil {
						log.Printf("wal close: %v", err)
					}
				},
				cli.StopServer, // 3: stop looking alive
				cli.CloseAudit, // 4: audit captured steps 0–3
			) {
				step()
			}
		})
	}
	defer shutdown()

	day := 0
	if len(events) > 0 {
		day = events[0].Day
	}
	// flush sweeps the day; it reports whether the replay should continue
	// (false once the context is cancelled or a sweep fails hard).
	interrupted := false
	flush := func(day int) bool {
		if buf != nil {
			if err := buf.Flush(ctx); err != nil {
				interrupted = true
				return false
			}
		}
		t0 := time.Now()
		res, err := det.SweepContext(ctx)
		if err != nil && res == nil {
			log.Print(err)
			interrupted = true
			return false
		}
		line := fmt.Sprintf("day %2d: %2d groups, %4d suspicious nodes, sweep %v",
			day, len(res.Groups), res.NumNodes(), time.Since(t0).Round(time.Millisecond))
		if res.Partial {
			line += fmt.Sprintf("  PARTIAL (interrupted during %q: %v)", res.StageReached, err)
		}
		if truth != nil {
			ev := metrics.Evaluate(res, truth)
			line += fmt.Sprintf("  [%v]", ev)
		}
		fmt.Println(line)
		if err != nil {
			interrupted = true
			return false
		}
		return true
	}
	for _, e := range events {
		if e.Day != day {
			if !flush(day) {
				break
			}
			day = e.Day
		}
		if buf != nil {
			buf.Offer(clicktable.Record{UserID: e.UserID, ItemID: e.ItemID, Clicks: e.Clicks})
		} else {
			det.AddClick(e.UserID, e.ItemID, e.Clicks)
		}
	}
	if !interrupted {
		flush(day)
	}
	if derr := det.DurabilityErr(); derr != nil {
		log.Printf("durability degraded mid-replay (state is memory-only from the failure point): %v", derr)
	}

	cli.Finish()
	holdServers(ctx, *hold, cli, serveSrv)
	shutdown()
	if interrupted {
		log.Print("replay interrupted — results above are incomplete")
		return 2
	}
	return 0
}

// shutdownSteps returns the pipeline teardown in its one correct order:
//
//  0. drain the verdict query server — new queries are refused and
//     in-flight ones finish while the state they read is still whole;
//  1. stop intake and flush the pending buffer — no state left in queues;
//  2. snapshot and close the WAL — everything accepted is durable;
//  3. stop the debug server — the process may now stop looking alive,
//     and metrics stayed scrapeable while 0–2 ran;
//  4. close the audit sink — steps 0–3 remain in the audit trail.
//
// Draining the query server any later would leave the load balancer
// routing verdict reads at a process tearing its state down; closing the
// WAL after the debug server would open a window where operators see the
// process as gone while it still owns the log; closing audit any earlier
// would lose the shutdown's own events. The 3–4 tail is the shared
// obs.CLIShutdownSteps order. TestShutdownStepOrder pins all five.
func shutdownSteps(drainServe, flushBuffer, closeWAL, stopDebug, closeAudit func()) []func() {
	return []func(){drainServe, flushBuffer, closeWAL, stopDebug, closeAudit}
}

// holdServers keeps the process alive for d while either long-lived
// server (debug or verdict) is up, so operators can scrape and query
// after the replay; SIGINT/SIGTERM (ctx) ends the hold early.
func holdServers(ctx context.Context, d time.Duration, cli *obs.CLI, serveSrv *http.Server) {
	if serveSrv == nil {
		cli.Hold(ctx, d)
		return
	}
	if d <= 0 {
		return
	}
	fmt.Printf("holding verdict server for %v (interrupt to exit sooner)\n", d)
	select {
	case <-ctx.Done():
	case <-time.After(d):
	}
}

// loadEvents reads a day-stamped event-stream CSV.
func loadEvents(path string) ([]synth.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return synth.ReadEvents(f)
}

// loadLabels reads a ground-truth label CSV.
func loadLabels(path string) (*detect.Labels, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	truth, _, err := synth.ReadLabels(f)
	return truth, err
}
