// Command ricd runs the RICD "Ride Item's Coattails" attack detector on a
// click table and prints the detected attack groups and the risk-ranked
// suspicious users and items.
//
// Usage:
//
//	ricd -in clicks.csv [-k1 10] [-k2 10] [-alpha 1.0]
//	     [-thot 0] [-tclick 0]         # 0 derives thresholds from the data
//	     [-top 20] [-expect 0]         # expect triggers the feedback loop
//	     [-seed-user id]... via comma list
//	     [-timeout 30s]                # wall-clock budget for the run
//	     [-trace out.json]             # write the stage trace as JSON
//	     [-trace-tree]                 # print the stage tree after the run
//	     [-audit out.jsonl]            # write the explainable audit trail (JSONL)
//	     [-runs]                       # print the run ledger as JSON after the run
//	     [-debug-addr :6060]           # serve /debug/pprof, /debug/vars,
//	                                   # /metrics (Prometheus) and /debug/runs
//	     [-hold 30s]                   # keep the debug server up after the run
//	     [-serve-addr :8080]           # serve the verdicts as a query API
//	     [-serve-inflight 256]         # concurrent queries before 429 shedding
//
// SIGINT/SIGTERM (and -timeout expiry) cancel the in-flight detection
// cooperatively: the partial results computed so far are still printed,
// and the process exits with status 2 so scripts can tell a cut-short run
// from a complete one (status 0) or a hard failure (status 1).
//
// -serve-addr is the deployment shape of the paper's Fig 1, where the
// recommender's risk-control layer asks "is this user / item / co-click
// forged?" on the impression path: the detection's verdicts are published
// as one immutable index epoch and answered over HTTP (/v1/user/{id},
// /v1/item/{id}, /v1/pair?u=&i=, /v1/group/{id}, POST /v1/check, /healthz)
// until SIGINT/SIGTERM, which drains in-flight queries before
// observability is torn down. An address that cannot be bound (-serve-addr
// or -debug-addr) fails the run with status 1 before anything is detected.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	fakeclick "repro"
	"repro/internal/baselines"
	"repro/internal/clicktable"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/synth"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ricd: ")
	os.Exit(run())
}

func run() int {
	var (
		in        = flag.String("in", "", "input click-table CSV (required)")
		k1        = flag.Int("k1", 10, "minimum users per attack group")
		k2        = flag.Int("k2", 10, "minimum items per attack group")
		alpha     = flag.Float64("alpha", 1.0, "extension tolerance α in (0,1]")
		thot      = flag.Uint64("thot", 0, "hot-item threshold (0 = derive from data)")
		tclick    = flag.Uint("tclick", 0, "abnormal-click threshold (0 = derive via Eq 4)")
		top       = flag.Int("top", 20, "how many ranked users/items to print")
		expect    = flag.Int("expect", 0, "expected output node count; > 0 enables the feedback loop")
		rounds    = flag.Int("rounds", 6, "max feedback-loop rounds")
		seedUsers = flag.String("seed-users", "", "comma-separated known abnormal user IDs")
		seedItems = flag.String("seed-items", "", "comma-separated known abnormal item IDs")
		raw       = flag.Bool("raw", false, "skip the screening module (RICD-UI)")
		labels    = flag.String("labels", "", "ground-truth label CSV; prints precision/recall/F1 when set")
		explain   = flag.Int("explain", 0, "print the evidence trail for the N most suspicious groups")
		algo      = flag.String("algo", "", "run a registry detector instead of RICD (see -list-algos); +UI screening applied")
		listAlgos = flag.Bool("list-algos", false, "list available detectors and exit")
		tracePath = flag.String("trace", "", "write the run's stage trace to this file as JSON")
		traceTree = flag.Bool("trace-tree", false, "print the human-readable stage tree after the run")
		auditPath = flag.String("audit", "", "write the explainable audit trail to this file as JSON Lines")
		runsFlag  = flag.Bool("runs", false, "print the run ledger (per-run stage timings and counters) as JSON after the run")
		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof, expvar, Prometheus /metrics and /debug/runs on this address (e.g. :6060)")
		hold      = flag.Duration("hold", 0, "keep the debug server running this long after the run (for scraping); interrupted by SIGINT")
		timeout   = flag.Duration("timeout", 0, "wall-clock budget for the run; on expiry partial results are printed and the exit status is 2")
		workers   = flag.Int("workers", 0, "worker goroutines for the sharded detection pipeline (0 = GOMAXPROCS)")
		serveAddr = flag.String("serve-addr", "", "after the run, serve the verdict query API (/v1/*, /healthz) on this address until interrupted (e.g. :8080)")
		serveInfl = flag.Int("serve-inflight", 256, "with -serve-addr: max concurrent queries before 429 shedding (0 = unlimited)")
	)
	flag.Parse()
	if *listAlgos {
		for _, name := range baselines.Names() {
			fmt.Println(name)
		}
		return 0
	}
	if *in == "" {
		flag.Usage()
		log.Print("missing -in")
		return 2
	}
	ricd := *algo == "" || strings.EqualFold(*algo, "ricd")
	if *serveAddr != "" && !ricd {
		log.Print("-serve-addr serves RICD verdicts; it cannot be combined with -algo")
		return 2
	}

	// SIGINT/SIGTERM cancel the in-flight detection cooperatively; a second
	// signal kills the process the default way (stop() restores default
	// handling once the context is done).
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx := sigCtx
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(sigCtx, *timeout)
		defer cancel()
	}

	cli, err := obs.StartCLI(obs.CLIConfig{
		Namespace: "ricd",
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
	// Pinned teardown (obs.CLIShutdownSteps): debug server stop, then
	// audit close — runs once on every exit path.
	defer cli.Shutdown()
	observer := cli.Obs()

	if !ricd {
		if err := runAlgo(*algo, *in, *labels, *k1, *k2, *alpha, *thot, uint32(*tclick)); err != nil {
			log.Print(err)
			return 1
		}
		cli.Finish()
		cli.Hold(ctx, *hold)
		return 0
	}

	// Config.Serve makes a complete detection publish its verdicts into the
	// store as a fresh epoch; until then queries answer 503.
	var verdicts *fakeclick.VerdictStore
	if *serveAddr != "" {
		verdicts = fakeclick.NewVerdictStore(observer)
		srv, serr := obs.StartServer("verdict server", *serveAddr,
			fakeclick.NewVerdictServer(verdicts, serve.Options{Obs: observer, MaxInflight: *serveInfl}), serve.Endpoints)
		if serr != nil {
			log.Print(serr)
			return 1
		}
		// Deferred after cli.Shutdown, so it runs before it: the query
		// server drains while observability is still whole.
		defer obs.DrainServer("verdict server", srv, 10*time.Second)
	}

	g, err := loadGraph(*in)
	if err != nil {
		log.Print(err)
		return 1
	}
	fmt.Printf("loaded %s: %d users, %d items, %d edges, %d clicks\n",
		*in, g.NumUsers(), g.NumItems(), g.NumEdges(), g.TotalClicks())

	cfg := fakeclick.Config{
		K1:            *k1,
		K2:            *k2,
		Alpha:         *alpha,
		THot:          *thot,
		TClick:        uint32(*tclick),
		SkipScreening: *raw,
		Workers:       *workers,
		Observer:      observer,
		Serve:         verdicts,
	}
	var parseErr error
	cfg.SeedUsers, parseErr = parseIDs(*seedUsers)
	if parseErr != nil {
		log.Printf("-seed-users: %v", parseErr)
		return 2
	}
	cfg.SeedItems, parseErr = parseIDs(*seedItems)
	if parseErr != nil {
		log.Printf("-seed-items: %v", parseErr)
		return 2
	}

	var rep *fakeclick.Report
	if *expect > 0 {
		rep, err = fakeclick.DetectWithExpectationContext(ctx, g, cfg, *expect, *rounds)
	} else {
		rep, err = fakeclick.DetectContext(ctx, g, cfg)
	}
	if err != nil {
		// A stage panic still yields the partial report alongside the
		// error; anything without a report is a hard failure.
		log.Print(err)
		if rep == nil {
			return 1
		}
	}
	if rep.Partial {
		log.Printf("WARNING: run interrupted during %q (%v) — results below are PARTIAL", rep.Stage, rep.Err)
	}

	fmt.Printf("detection finished in %v (T_hot=%d, T_click=%d)\n",
		rep.Elapsed, rep.THot, rep.TClick)
	fmt.Printf("found %d attack groups, %d suspicious users, %d suspicious items\n",
		len(rep.Groups), len(rep.Users), len(rep.Items))
	for i, grp := range rep.Groups {
		fmt.Printf("  group %d: %d users, %d items, risk %.2f, density %.2f, "+
			"mean edge clicks %.1f, organic share %.0f%%\n",
			i+1, len(grp.Users), len(grp.Items), grp.Score,
			grp.Density, grp.MeanEdgeClicks, 100*grp.OutsideShare)
	}

	printRanked := func(label string, nodes []fakeclick.RankedNode) {
		if len(nodes) == 0 {
			return
		}
		fmt.Printf("top %d %s by risk score:\n", len(nodes), label)
		for _, n := range nodes {
			fmt.Printf("  %-10d %.2f\n", n.ID, n.Score)
		}
	}
	printRanked("users", rep.TopUsers(*top))
	printRanked("items", rep.TopItems(*top))

	for i := 0; i < *explain && i < len(rep.Groups); i++ {
		text, eerr := fakeclick.Explain(g, rep, i)
		if eerr != nil {
			log.Print(eerr)
			return 1
		}
		fmt.Printf("--- evidence for group %d ---\n%s", i+1, text)
	}

	if *labels != "" {
		truth, lerr := loadLabels(*labels)
		if lerr != nil {
			log.Print(lerr)
			return 1
		}
		ev := metrics.EvaluateNodes(rep.Users, rep.Items, truth)
		fmt.Printf("against %s (%d labeled abnormal nodes): %v\n",
			*labels, truth.NumAbnormal(), ev)
	}

	cli.Finish()
	complete := err == nil && !rep.Partial
	if verdicts != nil && complete {
		// Only a complete run published an epoch worth serving.
		<-sigCtx.Done()
	}
	cli.Hold(ctx, *hold)
	if !complete {
		return 2 // cut-short or panic-degraded run: results incomplete
	}
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

// loadTable reads a click-table CSV for the registry detectors.
func loadTable(path string) (*clicktable.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return clicktable.ReadCSV(f)
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

// runAlgo runs a registry detector (Fig 8 style: +UI screening unless the
// algorithm embeds its own) on the click table and prints its groups plus
// optional evaluation.
func runAlgo(name, in, labelsPath string, k1, k2 int, alpha float64, thot uint64, tclick uint32) error {
	tbl, err := loadTable(in)
	if err != nil {
		return err
	}
	g := tbl.ToGraph()

	p := core.DefaultParams()
	p.K1, p.K2 = k1, k2
	p.Alpha = alpha
	if thot != 0 {
		p.THot = thot
	}
	if tclick != 0 {
		p.TClick = tclick
	}

	withUI := !strings.HasPrefix(strings.ToLower(name), "ricd")
	d, err := baselines.New(name, p, withUI)
	if err != nil {
		return err
	}
	res, err := d.Detect(g)
	if err != nil {
		return err
	}
	fmt.Printf("%s finished in %v: %d groups, %d suspicious users, %d suspicious items\n",
		d.Name(), res.Elapsed, len(res.Groups), len(res.Users()), len(res.Items()))
	for i, grp := range res.Groups {
		fmt.Printf("  group %d: %d users, %d items\n", i+1, len(grp.Users), len(grp.Items))
	}
	if labelsPath != "" {
		truth, err := loadLabels(labelsPath)
		if err != nil {
			return err
		}
		fmt.Printf("against %s: %v\n", labelsPath, metrics.Evaluate(res, truth))
	}
	return nil
}

func parseIDs(s string) ([]uint32, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []uint32
	for _, part := range strings.Split(s, ",") {
		id, err := strconv.ParseUint(strings.TrimSpace(part), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad ID %q: %w", part, err)
		}
		out = append(out, uint32(id))
	}
	return out, nil
}
