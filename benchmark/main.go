// Command benchmark drives the real click → verdict pipeline, wired the way
// cmd/stream wires it, on seeded synth traffic, and prints every metric of
// BENCHMARK.json by name. See README.md.
//
//	bash benchmark/run.sh --workload market_stream --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh                       # all four workloads, untraced then traced
//	bash benchmark/run.sh -compare A.jsonl B.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

func main() {
	var (
		workload  = flag.String("workload", "all", "one of the four workloads, or all (each in its own subprocess, untraced then traced)")
		seed      = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds   = flag.Float64("seconds", runSeconds, "how long to measure: the run makes as many laps as take this long on the reference box")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, harness spans off; 1: per-layer metrics, spans and layer replay on")
		scale     = flag.Float64("scale", 1, "population and lap-length multiplier (1 is the benchmark; the smoke test uses 0.02)")
		market    = flag.Int64("market-seed", defaultMarketSeed, "which marketplace the synth workloads generate; the gated runs all use the default, results/market2.jsonl another")
		outDir    = flag.String("out", "out", "directory for traces and temporary WAL state")
		record    = flag.String("record", "", "append this run's full result (metrics, sample counts, hardware) to this JSON-lines file")
		compare   = flag.Bool("compare", false, "compare two result files: -compare A.jsonl B.jsonl")
		printSpec = flag.Bool("print-spec", false, "print BENCHMARK.json as this build defines it")
	)
	flag.Parse()

	switch {
	case *printSpec:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(benchmarkSpec()); err != nil {
			fatal(err)
		}
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		clean, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !clean {
			os.Exit(1)
		}
	case *workload == "all":
		if err := runAll(); err != nil {
			fatal(err)
		}
	default:
		cfg := runConfig{Workload: *workload, Seed: *seed, MarketSeed: *market, Seconds: *seconds, Trace: *trace != 0, Scale: *scale, MinLaps: minLaps, OutDir: *outDir}
		res, err := run(cfg)
		if err != nil {
			fatal(err)
		}
		printResult(os.Stdout, res)
		if *record != "" {
			if err := appendRecord(*record, res); err != nil {
				fatal(err)
			}
		}
		line, err := json.Marshal(struct {
			Correct   bool                `json:"correct"`
			Attempted int                 `json:"attempted"`
			Failed    int                 `json:"failed"`
			Metrics   map[string]reported `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, res.Metrics})
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runAll runs every workload in a fresh subprocess of this binary (so that
// peak_rss_mb is the workload's own), untraced and then traced, passing the
// command line through.
func runAll() error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	failed := false
	for _, w := range workloadSpecs {
		for _, tr := range []string{"0", "1"} {
			args := []string{"-workload", w.Name, "-trace", tr}
			flag.Visit(func(f *flag.Flag) {
				if f.Name != "workload" && f.Name != "trace" {
					args = append(args, "-"+f.Name, f.Value.String())
				}
			})
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s (trace %s): %v\n", w.Name, tr, err)
				failed = true
			}
		}
	}
	if failed {
		return fmt.Errorf("at least one workload failed")
	}
	return nil
}

// run executes one workload once and assembles its result.
func run(cfg runConfig) (*runResult, error) {
	h := newHarness(cfg)
	if err := runWorkload(h); err != nil {
		return nil, err
	}
	res := &runResult{
		Workload: cfg.Workload, Seed: cfg.Seed, MarketSeed: cfg.MarketSeed, Trace: cfg.Trace, Scale: cfg.Scale, Seconds: cfg.Seconds,
		Laps: h.laps, Env: readEnv(),
		Correct: h.failed == 0, Attempted: h.attempted, Failed: h.failed,
		Metrics: map[string]reported{}, N: map[string]int{}, PerLap: map[string][]float64{}, Notes: h.notes,
	}
	if cfg.Trace {
		perLayer(h, res)
		if err := h.trace.write(cfg.OutDir, res); err != nil {
			return nil, err
		}
	} else {
		endToEnd(h, res)
	}
	return res, nil
}

func (r *runResult) set(name string, v float64, n int) {
	r.Metrics[name] = reported{Value: v, Unit: unitOf[name]}
	r.N[name] = n
}

// endToEnd fills the metrics a user of the system would see; they come
// from untraced laps only. The _quiet figures estimate what the quiet
// machine does: cycle timings are each cycle's best time over the run's laps
// (see bestOfLaps) with the p50 taken over one lap's worth of cycles, and the
// throughput is a lap's clicks over the sum of its cycles' best times. The
// query client's percentiles, set-up time and allocation are taken inside
// each lap and reported as the median over laps.
func endToEnd(h *harness, r *runResult) {
	p95 := func(xs []float64) float64 { return percentile(xs, 0.95) }
	for _, m := range []struct{ name, key string }{
		{"click_to_verdict_ms_p50_quiet", "c2v_ms"},
		{"full_refresh_ms_p50_quiet", "full_refresh_ms"},
		{"recover_ms_p50_quiet", "recover_ms"},
	} {
		best, n := h.bestOfLaps("", m.key)
		r.set(m.name, median(best), n)
		_, r.PerLap[m.name], _ = h.acrossLaps("", m.key, median)
	}
	cycles, n := h.bestOfLaps("", "cycle_ms")
	if quiet := sum(cycles) / 1e3; quiet > 0 {
		r.set("sustained_clicks_per_s_quiet", h.count["lap_clicks"]/quiet, n)
	}
	_, r.PerLap["sustained_clicks_per_s_quiet"], _ = h.acrossLaps("", "clicks_per_s", median)
	for _, m := range []struct {
		name, key string
		stat      func([]float64) float64
	}{
		{"setup_s", "setup_s", median},
		{"check_us_p50", "check_us", median},
		{"check_us_p95", "check_us", p95},
		{"alloc_mb_per_cycle", "alloc_mb_per_cycle", median},
	} {
		v, perLap, n := h.acrossLaps("", m.key, m.stat)
		r.set(m.name, v, n)
		r.PerLap[m.name] = perLap
	}
	r.set("peak_rss_mb", peakRSSMB(), 1)
}

// perLayer fills the ledger; it comes from the traced laps (and, for the
// obs.* shares, from the plain lap and the two observation passes the
// traced run also makes).
func perLayer(h *harness, r *runResult) {
	s, cnt := h.s, h.count
	// A layer's samples are filed under the metric's name without its _p50.
	for _, metric := range []string{
		"synth.generate_ms", "synth.event_stream_ms",
		"clicktable.delta_us_p50", "clicktable.delta_rows_p50", "clicktable.compact_ms_p50",
		"bipartite.rebuild_ms_p50", "bipartite.patch_us_p50",
		"core.hotset_us_p50", "core.clone_us_p50",
		"core.prune_ms_p50", "core.prune_removed_share", "core.prune_rounds_p50",
		"bipartite.components_us_p50", "bipartite.compact_components_us_p50",
		"bipartite.residual_components_p50", "bipartite.largest_component_share_p50",
		"core.extract_ms_p50", "core.groups_out_p50", "core.screen_us_p50", "core.rank_us_p50",
		"core.detect_ms_p50", "core.detect_w1_ms_p50",
		"stream.dirty_users_p50", "stream.sweep_ms_p50", "stream.full_detect_ms_p50", "stream.sweep_unattributed_share",
		"durable.snapshot_ms_p50", "durable.open_ms_p50", "durable.replayed_records",
		"serve.compile_us_p50", "serve.publish_us_p50", "serve.lookup_ns",
		"metrics.verdict_f1",
	} {
		xs := s[strings.TrimSuffix(metric, "_p50")]
		r.set(metric, median(xs), len(xs))
	}
	for _, metric := range []string{ // means of per-call averages
		"clicktable.append_ns_per_row", "stream.add_batch_ns_per_click", "stream.buffer_offer_ns",
		"durable.append_ns_per_click", "durable.append_fsync_us_per_batch",
	} {
		v := 0.0
		if n := len(s[metric]); n > 0 {
			v = sum(s[metric]) / float64(n)
		}
		r.set(metric, v, len(s[metric]))
	}
	for _, metric := range []string{ // counts over the traced laps
		"core.cache_lookups", "core.cache_evictions", "core.cache_bytes",
		"stream.buffer_shed", "stream.clicks_in", "stream.sweeps", "stream.partial_sweeps",
		"durable.wal_bytes", "durable.errors", "serve.epochs", "serve.non200",
	} {
		r.set(metric, cnt[metric], 1)
	}
	for _, m := range []struct {
		metric, key string
		p           float64
	}{
		{"click_to_verdict_ms_p95", "c2v_ms", 0.95},
		{"stream.sweep_ms_p95", "stream.sweep_ms", 0.95},
		{"serve.check_us_p99", "check_us", 0.99},
		{"serve.check_us_max", "check_us", 1},
		{"serve.wake_late_us_p95", "serve.wake_late_us", 0.95},
	} {
		r.set(m.metric, percentile(s[m.key], m.p), len(s[m.key]))
	}

	hitShare := 0.0
	if cnt["core.cache_lookups"] > 0 {
		hitShare = cnt["core.cache_hits"] / cnt["core.cache_lookups"]
	}
	r.set("core.cache_hit_share", hitShare, int(cnt["core.cache_lookups"]))

	speedup := 0.0
	if w0, w1 := median(s["core.detect_ms"]), median(s["core.detect_w1_ms"]); w0 > 0 && w1 > 0 {
		speedup = w1 / w0
		if r.Env.NumCPU == 1 {
			speedup = 1
		}
	}
	r.set("core.parallel_speedup", speedup, len(s["core.detect_w1_ms"]))

	// Overheads: the same cycles with and without the thing observed. The
	// harness's own tracing is judged on best-of-laps cycle times, traced
	// laps against the plain laps run in turn with them; the program's
	// observation ran one half-lap each, judged against the median plain
	// lap's first half.
	ratio := func(with, without float64) float64 {
		if with > 0 && without > 0 {
			return with/without - 1
		}
		return 0
	}
	tracedBest, n := h.bestOfLaps("", "c2v_ms")
	plainBest, _ := h.bestOfLaps("plain/", "c2v_ms")
	r.set("obs.trace_overhead_share", ratio(median(tracedBest), median(plainBest)), n)
	half := len(s["observed/c2v_ms"])
	var plainHalves []float64
	for _, ls := range h.perLap["plain/"] {
		if xs := ls["c2v_ms"]; len(xs) >= half {
			plainHalves = append(plainHalves, median(xs[:half]))
		}
	}
	base := median(plainHalves)
	r.set("obs.observed_sweep_overhead_share", ratio(median(s["observed/c2v_ms"]), base), half)
	r.set("obs.audited_sweep_overhead_share", ratio(median(s["audited/c2v_ms"]), base), len(s["audited/c2v_ms"]))
}

// printResult lists every metric by name with its unit, sample count and,
// for end-to-end metrics, its regression bound.
func printResult(w *os.File, r *runResult) {
	fmt.Fprintf(w, "workload %s  seed %d  market seed %d  trace %v  scale %g  laps %d\n", r.Workload, r.Seed, r.MarketSeed, r.Trace, r.Scale, r.Laps)
	fmt.Fprintf(w, "  num_cpu %d  gomaxprocs %d  %s  cpu %q  commit %s\n", r.Env.NumCPU, r.Env.GOMAXPROCS, r.Env.GoVersion, r.Env.CPUModel, r.Env.Commit)
	bounds := map[string]string{}
	for _, m := range endToEndSpecs {
		bounds[m.Name] = fmt.Sprintf("bound %g%% (%s is better)", m.Bound*100, m.Better)
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-40s %14s %-9s n=%-7d %s\n", name, strconv.FormatFloat(m.Value, 'f', 4, 64), m.Unit, r.N[name], bounds[name])
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  correct %v\n", r.Attempted, r.Failed, r.Correct)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  MISMATCH: %s\n", n)
	}
}

func appendRecord(path string, r *runResult) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
