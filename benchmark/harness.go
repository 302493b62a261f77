package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

type runConfig struct {
	Workload   string
	Seed       int64
	MarketSeed int64   // which marketplace the synth workloads generate; defaultMarketSeed on every gated run
	Seconds    float64 // sets the number of laps: as many as take this long on the reference box
	Trace      bool
	Scale      float64 // population and lap-length multiplier; 1 is the benchmark
	MinLaps    int     // laps run however short Seconds is; minLaps from the command line
	LapSeconds float64 // what one lap of the workload takes on the reference box; set by runWorkload
	OutDir     string  // traces, result records and temporary WAL directories
}

// minLaps is how many laps a run from the command line makes however short
// --seconds is: setup_s and the query timings are medians over the run's
// laps, the cycle timings each cycle's best over them.
const minLaps = 3

// overrunFactor stops a run that has taken this many times --seconds before
// its laps are done, so a program that got several times slower still ends
// inside the driver's limit; the run then reports fewer laps.
const overrunFactor = 2.5

// env is recorded with every result: a number without its hardware is not
// comparable to anything.
type env struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func readEnv() env {
	e := env{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		Commit:     os.Getenv("BENCH_COMMIT"),
	}
	if e.Commit == "" {
		e.Commit = "unknown"
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

type reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload. The driver reads Correct, Attempted,
// Failed and Metrics from the last line of standard output; the rest goes
// into the result record (-record) that -compare reads.
type runResult struct {
	Workload   string              `json:"workload"`
	Seed       int64               `json:"seed"`
	MarketSeed int64               `json:"market_seed"`
	Trace      bool                `json:"trace"`
	Scale      float64             `json:"scale"`
	Seconds    float64             `json:"seconds"`
	Laps       int                 `json:"laps"`
	Env        env                 `json:"env"`
	Correct    bool                `json:"correct"`
	Attempted  int                 `json:"attempted"`
	Failed     int                 `json:"failed"`
	Metrics    map[string]reported `json:"metrics"`
	N          map[string]int      `json:"n"`
	// PerLap holds, for every end-to-end metric taken from the laps' cycles
	// or queries, each lap's own value (its p50, p95, throughput, ...), so a
	// reader can see what the reported figure was chosen from.
	PerLap map[string][]float64 `json:"per_lap,omitempty"`
	Notes  []string             `json:"notes,omitempty"`
}

type lapMode int

const (
	lapPlain    lapMode = iota // no harness spans, no replay: what end-to-end metrics come from
	lapTraced                  // harness spans + layer replay: what per-layer metrics come from
	lapWarm                    // short plain lap whose samples are dropped
	lapObserved                // short pass with an Observer attached to the program
	lapAudited                 // short pass with an io.Discard audit sink as well
)

// An untraced run is plain laps. A traced run is one warm-up lap, then plain
// and traced laps in turn (the plain ones are the untraced twins the overhead
// shares are taken against, in the same process and the same minutes), then
// the two observation passes.

// prefix keeps the passes of a traced run apart.
func (m lapMode) prefix(traceRun bool) string {
	switch {
	case m == lapWarm:
		return "warm/"
	case m == lapObserved:
		return "observed/"
	case m == lapAudited:
		return "audited/"
	case m == lapPlain && traceRun:
		return "plain/"
	}
	return ""
}

// full reports whether the lap runs its gates and recovery after the timed
// phase; the short passes only time cycles.
func (m lapMode) full() bool { return m == lapPlain || m == lapTraced }

// cycles is how many of a lap's n cycles the mode runs.
func (m lapMode) cycles(n int) int {
	switch m {
	case lapWarm:
		n /= 4
	case lapObserved, lapAudited:
		n /= 2
	}
	if n < 2 {
		n = 2
	}
	return n
}

// harness accumulates what the laps of one run measured.
type harness struct {
	cfg   runConfig
	s     samples
	count map[string]float64
	trace *tracer // nil on an untraced run

	laps      int // plain and traced laps started
	pass      int // traced run: laps of any mode started
	obsPasses int
	attempted int
	failed    int
	notes     []string

	start time.Time // for overrunFactor
	// the samples of each plain and traced lap, by the mode's prefix; ""
	// holds the laps that feed the reported metrics
	perLap map[string][]samples
}

func newHarness(cfg runConfig) *harness {
	h := &harness{cfg: cfg, s: samples{}, count: map[string]float64{}, perLap: map[string][]samples{}, start: time.Now()}
	if cfg.Trace {
		h.trace = newTracer()
	}
	return h
}

// lapTarget is how many plain and traced laps the run makes: the number that
// fills --seconds on the reference box, whatever this machine's or this
// commit's speed, so that two commits are compared on the same number of
// laps (a best-of-laps figure gets lower with every extra lap).
func (h *harness) lapTarget() int {
	n := int(h.cfg.Seconds/h.cfg.LapSeconds + 0.5)
	if n < h.cfg.MinLaps {
		n = h.cfg.MinLaps
	}
	return n
}

// nextLap picks the next lap's mode, or reports that the run is over.
func (h *harness) nextLap() (lapMode, bool) {
	more := h.laps < h.cfg.MinLaps ||
		(h.laps < h.lapTarget() && time.Since(h.start).Seconds() < overrunFactor*h.cfg.Seconds)
	if !h.cfg.Trace {
		if more {
			h.laps++
		}
		return lapPlain, more
	}
	h.pass++
	switch {
	case h.pass == 1:
		return lapWarm, true
	case more || h.laps%2 == 1: // never end on a plain lap without its traced twin
		h.laps++
		if h.laps%2 == 1 {
			return lapPlain, true
		}
		return lapTraced, true
	case h.obsPasses == 0:
		h.obsPasses++
		return lapObserved, true
	case h.obsPasses == 1:
		h.obsPasses++
		return lapAudited, true
	}
	return 0, false
}

// reported says whether the lap's samples feed the metrics the run reports:
// the plain laps of an untraced run, the traced laps of a traced one.
func (h *harness) reported(m lapMode) bool { return m.prefix(h.cfg.Trace) == "" }

func (h *harness) tracerFor(m lapMode) *tracer {
	if m == lapTraced {
		return h.trace
	}
	return nil
}

// mismatch files one correctness failure; any of them fails the run.
func (h *harness) mismatch(format string, args ...any) {
	h.failed++
	if len(h.notes) < 20 {
		h.notes = append(h.notes, fmt.Sprintf(format, args...))
	}
}

// merge folds one lap's samples into the run under the mode's prefix.
func (h *harness) merge(m lapMode, ls samples) {
	if m == lapWarm {
		return
	}
	p := m.prefix(h.cfg.Trace)
	for k, v := range ls {
		h.s[p+k] = append(h.s[p+k], v...)
	}
	if m.full() {
		h.perLap[p] = append(h.perLap[p], ls)
	}
}

// bestOfLaps returns, for every sample position of a lap, the lowest value
// any lap measured there. A lap is fixed work, so position i is the same
// cycle in every lap. The reference box has a quiet state and a contended
// one about 1.5 times slower for memory-bound work, and stays in either for
// seconds to minutes (README, "What the box allows"): a run's median reports
// whichever state most of the run fell into, while the least-disturbed
// instance of a cycle is what the cycle costs on the quiet machine, as long
// as the quiet state shows up once per position in a run. n is the number of
// samples behind the result.
func (h *harness) bestOfLaps(prefix, key string) (best []float64, n int) {
	for _, ls := range h.perLap[prefix] {
		for i, x := range ls[key] {
			switch {
			case i >= len(best):
				best = append(best, x)
			case x < best[i]:
				best[i] = x
			}
		}
		n += len(ls[key])
	}
	return best, n
}

// acrossLaps takes a statistic inside each lap and returns its value per lap
// and the median of those: what a typical lap measured. It is for figures
// whose samples do not line up between laps (the query client's, one per
// millisecond) or that the box's two states move little (set-up is mostly
// generation, allocation does not depend on speed at all).
func (h *harness) acrossLaps(prefix, key string, stat func([]float64) float64) (v float64, perLap []float64, n int) {
	for _, ls := range h.perLap[prefix] {
		if xs := ls[key]; len(xs) > 0 {
			perLap = append(perLap, stat(xs))
			n += len(xs)
		}
	}
	return median(perLap), perLap, n
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// scaled applies the run's scale to a population or cycle count.
func scaled(n int, scale float64, min int) int {
	v := int(float64(n)*scale + 0.5)
	if v < min {
		v = min
	}
	return v
}

// ---- publishing hook --------------------------------------------------------

// publisher is the harness-owned OnCommit hook: compile the sweep's result
// and publish it, exactly what cmd/stream wires, timing both halves.
type publisher struct {
	store  *Store
	params Params
	tr     *tracer
	ls     samples

	parent, cycle int // span context of the sweep in flight
	spent         time.Duration
	publishedAt   time.Time
	failed        int
}

func (p *publisher) publish(res *Result, g *Graph) {
	t0 := time.Now()
	ix := compileIndex(g, res, p.params)
	t1 := time.Now()
	if err := p.store.Publish(ix); err != nil {
		p.failed++
	}
	t2 := time.Now()
	p.tr.record("serve.compile", p.parent, p.cycle, t0, t1)
	p.tr.record("serve.publish", p.parent, p.cycle, t1, t2)
	p.ls.add("serve.compile_us", us(t1.Sub(t0)))
	p.ls.add("serve.publish_us", us(t2.Sub(t1)))
	p.spent = t2.Sub(t0)
	p.publishedAt = t2
}

// ---- query client -----------------------------------------------------------

type checkEntry struct {
	Kind string  `json:"kind"`
	ID   *uint32 `json:"id,omitempty"`
	User *uint32 `json:"user,omitempty"`
	Item *uint32 `json:"item,omitempty"`
}

// idPool is where the check body draws one side's IDs from: ground-truth
// attackers or targets, and a range of IDs known to be clean.
type idPool struct {
	bad                  []uint32
	cleanFrom, cleanSpan uint32
}

func (p idPool) with(clean idPool) idPool {
	p.cleanFrom, p.cleanSpan = clean.cleanFrom, clean.cleanSpan
	return p
}

func (p idPool) pick(rng *rand.Rand, suspicious bool) *uint32 {
	id := p.cleanFrom + uint32(rng.Intn(int(p.cleanSpan)))
	if suspicious && len(p.bad) > 0 {
		id = p.bad[rng.Intn(len(p.bad))]
	}
	return &id
}

// checkBody builds the 16-entry POST /v1/check body: entries alternate
// between ground-truth attackers/targets and clean IDs, and cycle through
// the user, item and pair kinds.
func checkBody(rng *rand.Rand, users, items idPool) (body []byte, entries []checkEntry) {
	for i := 0; i < 16; i++ {
		sus := i%2 == 0
		switch i % 3 {
		case 0:
			entries = append(entries, checkEntry{Kind: "user", ID: users.pick(rng, sus)})
		case 1:
			entries = append(entries, checkEntry{Kind: "item", ID: items.pick(rng, sus)})
		default:
			entries = append(entries, checkEntry{Kind: "pair", User: users.pick(rng, sus), Item: items.pick(rng, sus)})
		}
	}
	body, _ = json.Marshal(entries) // plain structs of strings and integers cannot fail to encode
	return body, entries
}

// nullWriter is the client's side of the wire: it keeps the status and
// drops the body (no sockets: the network stack is not this repo's code).
type nullWriter struct {
	hdr    http.Header
	status int
}

func (w *nullWriter) Header() http.Header         { return w.hdr }
func (w *nullWriter) WriteHeader(code int)        { w.status = code }
func (w *nullWriter) Write(b []byte) (int, error) { return len(b), nil }

// queryClient is the second generator goroutine: a closed loop with 1 ms
// think time calling ServeHTTP directly and timing send → response. It also
// records how late its 1 ms timer fired, which is the wait any runnable
// reader suffers while sweep workers hold every P.
type queryClient struct {
	handler http.Handler
	body    []byte
	stop    chan struct{}
	done    chan struct{}

	latUS  []float64
	lateUS []float64
	non200 int
}

const thinkTime = time.Millisecond

func startQueryClient(handler http.Handler, body []byte) (*queryClient, error) {
	// driver + query client: never more generator goroutines than CPUs, or
	// the load generator would be measuring its own queueing.
	if runtime.NumCPU() < 2 {
		return nil, fmt.Errorf("the load model needs 2 generator goroutines (driver, query client) and this machine has %d CPU", runtime.NumCPU())
	}
	q := &queryClient{handler: handler, body: body, stop: make(chan struct{}), done: make(chan struct{})}
	go q.run()
	return q, nil
}

func (q *queryClient) run() {
	defer close(q.done)
	w := &nullWriter{hdr: http.Header{}}
	for {
		t := time.Now()
		time.Sleep(thinkTime)
		select {
		case <-q.stop:
			return
		default:
		}
		t0 := time.Now()
		q.lateUS = append(q.lateUS, us(t0.Sub(t)-thinkTime))
		req, err := http.NewRequest(http.MethodPost, "/v1/check", bytes.NewReader(q.body))
		if err != nil {
			q.non200++
			continue
		}
		w.status = http.StatusOK
		q.handler.ServeHTTP(w, req)
		q.latUS = append(q.latUS, us(time.Since(t0)))
		if w.status != http.StatusOK {
			q.non200++
		}
	}
}

// finish stops the client, waits for it, and files what it saw.
func (q *queryClient) finish(h *harness, ls samples) {
	close(q.stop)
	<-q.done
	ls["check_us"] = append(ls["check_us"], q.latUS...)
	ls["serve.wake_late_us"] = append(ls["serve.wake_late_us"], q.lateUS...)
	h.attempted += len(q.latUS) + q.non200
	h.failed += q.non200
	h.count["serve.non200"] += float64(q.non200)
}

// verifyCheck asks the server the benchmark's questions once more, after
// the last epoch is in place, and holds every answer against the index read
// directly.
func verifyCheck(h *harness, handler http.Handler, store *Store, body []byte, entries []checkEntry) {
	h.attempted++
	rec := &captureWriter{hdr: http.Header{}, status: http.StatusOK}
	req, err := http.NewRequest(http.MethodPost, "/v1/check", bytes.NewReader(body))
	if err != nil {
		h.mismatch("check request: %v", err)
		return
	}
	handler.ServeHTTP(rec, req)
	if rec.status != http.StatusOK {
		h.mismatch("final /v1/check answered %d", rec.status)
		return
	}
	var answers []struct {
		Suspicious bool `json:"suspicious"`
		InGroup    bool `json:"in_group"`
	}
	if err := json.Unmarshal(rec.buf.Bytes(), &answers); err != nil || len(answers) != len(entries) {
		h.mismatch("final /v1/check body: %d answers for %d entries (%v)", len(answers), len(entries), err)
		return
	}
	ix := store.Current()
	for i, e := range entries {
		var want, got bool
		switch e.Kind {
		case "user":
			want, got = ix.User(*e.ID).Suspicious, answers[i].Suspicious
		case "item":
			want, got = ix.Item(*e.ID).Suspicious, answers[i].Suspicious
		default:
			want, got = ix.Pair(*e.User, *e.Item).InGroup, answers[i].InGroup
		}
		if want != got {
			h.mismatch("/v1/check entry %d (%s): served %v, index says %v", i, e.Kind, got, want)
		}
	}
}

// closeLap runs the checks every full lap ends with, once the last epoch is
// in place: the pinned verdict F1 and the final /v1/check; on traced laps it
// also times the index read path.
func (h *harness) closeLap(ls samples, traced bool, final *Result, truth *Labels, handler http.Handler, store *Store, body []byte, entries []checkEntry) {
	f1 := verdictF1(final, truth)
	ls.add("metrics.verdict_f1", f1)
	if want, ok := committedF1[h.cfg.Workload][h.cfg.MarketSeed]; ok && h.cfg.Scale == 1 {
		h.attempted++
		if f1 != want {
			h.mismatch("verdict_f1 for marketplace %d, seed %d is %v, committed value is %v", h.cfg.MarketSeed, h.cfg.Seed, f1, want)
		}
	}
	verifyCheck(h, handler, store, body, entries)
	if traced {
		ls.add("serve.lookup_ns", lookupNS(store.Current(), entries))
	}
}

type captureWriter struct {
	hdr    http.Header
	status int
	buf    bytes.Buffer
}

func (w *captureWriter) Header() http.Header         { return w.hdr }
func (w *captureWriter) WriteHeader(code int)        { w.status = code }
func (w *captureWriter) Write(b []byte) (int, error) { return w.buf.Write(b) }

// lookupNS times the index read path on its own: user, item and pair
// lookups over the body's IDs, with no JSON around them.
func lookupNS(ix *Index, entries []checkEntry) float64 {
	const rounds = 2000
	n := 0
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, e := range entries {
			switch e.Kind {
			case "user":
				ix.User(*e.ID)
			case "item":
				ix.Item(*e.ID)
			default:
				ix.Pair(*e.User, *e.Item)
			}
			n++
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// ---- correctness helpers ----------------------------------------------------

func equalIDs(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sameGroups compares two detections group for group, in order.
func sameGroups(a, b []Group) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !equalIDs(a[i].Users, b[i].Users) || !equalIDs(a[i].Items, b[i].Items) {
			return false
		}
	}
	return true
}

// ---- process figures --------------------------------------------------------

// peakRSSMB is VmHWM of this process: each workload runs in its own, so the
// figure is the workload's.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil // a file pruned mid-walk is not this figure's concern
	})
	return total
}

// copyDir copies the regular files of a flat directory: the on-disk state a
// dead process left behind, handed to a fresh recovery.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			in.Close()
			return err
		}
		_, err = io.Copy(out, in)
		in.Close()
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}
