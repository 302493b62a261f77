package obs

import (
	"context"
	"expvar"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/durable"
)

// This file is the shared CLI observability bootstrap: StartCLI owns the
// observer construction, audit-file plumbing, pprof/expvar debug server and
// artifact emission of every command (ricd, stream) in one place, and
// StartServer is how a command puts any HTTP server on the network.
//
// The helper deliberately does NOT import net/http/pprof: obs is linked
// into every binary, and pprof's blank import registers handlers on the
// process-global DefaultServeMux as a side effect. Commands that want
// /debug/pprof/ keep their own `_ "net/http/pprof"` import; the helper
// merely serves whatever mux it is given (DefaultServeMux by default,
// which is where pprof and expvar register).

// ledgerSize bounds the run ledger: one summary per run or daily sweep, so
// 64 covers a feedback loop's inner runs or a two-month replay while
// /debug/runs stays a quick read.
const ledgerSize = 64

// CLIConfig declares which observability features a command run wants —
// the union of the ricd/stream flag sets.
type CLIConfig struct {
	// Namespace prefixes the Prometheus exposition and the expvar map
	// (e.g. "ricd" → ricd_core_prune_rounds, ricd_metrics).
	Namespace string
	// TracePath, when set, writes the run's stage trace there as JSON at
	// Finish (atomically: temp + fsync + rename).
	TracePath string
	// TraceTree prints the human-readable stage tree at Finish.
	TraceTree bool
	// AuditPath, when set, streams the explainable audit trail there as
	// JSON Lines; the file is fsynced and closed by CloseAudit.
	AuditPath string
	// Runs prints the run ledger as JSON at Finish.
	Runs bool
	// DebugAddr, when set, serves the debug mux (pprof/expvar if the
	// command imports them, plus /metrics and /debug/runs) on this
	// address.
	DebugAddr string
	// Mux is the debug mux to extend and serve; nil uses
	// http.DefaultServeMux, where net/http/pprof and expvar register.
	// Tests pass a private mux so repeated StartCLI calls cannot collide
	// on process-global patterns.
	Mux *http.ServeMux
}

// enabled reports whether any observability feature is requested; with
// none, StartCLI returns a nil CLI whose methods are all no-ops, so
// commands need no branching.
func (c CLIConfig) enabled() bool {
	return c.TracePath != "" || c.TraceTree || c.AuditPath != "" || c.Runs || c.DebugAddr != ""
}

// CLI is a command run's observability bundle: the observer to thread
// through the pipeline plus the debug server and audit file lifecycles.
// The nil *CLI is a valid no-op (observability off), mirroring the
// package's nil-safe instruments.
type CLI struct {
	// Observer carries the trace, metrics, audit sink and run ledger; nil
	// only on a nil CLI.
	Observer *Observer

	cfg       CLIConfig
	srv       *http.Server
	auditFile *os.File
}

// Obs returns the CLI's observer (nil for a nil CLI), the value commands
// thread into detector configs.
func (c *CLI) Obs() *Observer {
	if c == nil {
		return nil
	}
	return c.Observer
}

// StartServer binds addr, serves h on it from a background goroutine and
// announces "<name> on <bound address> (<endpoints>)". The bind is
// synchronous: an address that cannot be bound is returned as the caller's
// start-up error, before anything claims to be serving. A failure after the
// bind is logged under name. The caller owns the returned server's
// shutdown (DrainServer).
func StartServer(name, addr string, h http.Handler, endpoints string) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	srv := &http.Server{Handler: h}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Printf("%s: %v", name, err)
		}
	}()
	fmt.Printf("%s on %s (%s)\n", name, ln.Addr(), endpoints)
	return srv, nil
}

// DrainServer gracefully shuts srv down — new connections refused,
// in-flight requests finished — bounding the drain to timeout so a stuck
// client cannot hold the exit hostage. A failed drain is logged under name.
func DrainServer(name string, srv *http.Server, timeout time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("%s shutdown: %v", name, err)
	}
}

// StartCLI builds the run's observer per the config and starts the debug
// server when DebugAddr is set (failing if it cannot bind). Callers must
// eventually run StopServer and CloseAudit (in that order —
// CLIShutdownSteps pins it) on every exit path; Finish emits the
// trace/tree/ledger artifacts.
func StartCLI(cfg CLIConfig) (*CLI, error) {
	if !cfg.enabled() {
		return nil, nil
	}
	o := NewObserver(cfg.Namespace)
	c := &CLI{Observer: o, cfg: cfg}
	if cfg.AuditPath != "" {
		f, err := os.Create(cfg.AuditPath)
		if err != nil {
			return nil, fmt.Errorf("-audit: %w", err)
		}
		c.auditFile = f
		o.Events = NewEventSink(f, 0)
	}
	if cfg.Runs || cfg.DebugAddr != "" {
		o.Ledger = NewLedger(ledgerSize)
	}
	if cfg.DebugAddr != "" {
		mux := cfg.Mux
		if mux == nil {
			mux = http.DefaultServeMux
		}
		// expvar.Publish and mux registration both panic on reuse; the
		// expvar name is guarded so a command embedding StartCLI into a
		// retry loop cannot crash itself, while a pattern collision on a
		// shared mux still fails loudly (it IS a programming error).
		if expvar.Get(cfg.Namespace+"_metrics") == nil {
			expvar.Publish(cfg.Namespace+"_metrics", expvar.Func(func() any { return o.Metrics.Map() }))
		}
		mux.Handle("/metrics", MetricsHandler(cfg.Namespace, o.Metrics))
		mux.Handle("/debug/runs", RunsHandler(o.Ledger))
		srv, err := StartServer("debug server", cfg.DebugAddr, mux, "/debug/pprof/, /debug/vars, /metrics, /debug/runs")
		if err != nil {
			c.CloseAudit()
			return nil, fmt.Errorf("-debug-addr: %w", err)
		}
		c.srv = srv
	}
	return c, nil
}

// CLIShutdownSteps returns a CLI's teardown in its one correct order:
//
//  1. stop the debug server — the process may stop looking alive, and
//     metrics stayed scrapeable until everything that matters happened;
//  2. close the audit sink — step 1 (and everything before it) remains
//     in the audit trail.
//
// Closing audit first would lose the shutdown's own events; commands with
// more state (cmd/stream's buffer flush and WAL close) splice their steps
// BEFORE these two, keeping the same tail. TestCLIShutdownStepOrder pins
// this order.
func CLIShutdownSteps(stopServer, closeAudit func()) []func() {
	return []func(){stopServer, closeAudit}
}

// Shutdown runs the pinned teardown (StopServer then CloseAudit). Safe on
// nil and safe to call more than once.
func (c *CLI) Shutdown() {
	if c == nil {
		return
	}
	for _, step := range CLIShutdownSteps(c.StopServer, c.CloseAudit) {
		step()
	}
}

// StopServer drains the debug server (no-op without one).
func (c *CLI) StopServer() {
	if c == nil || c.srv == nil {
		return
	}
	DrainServer("debug server", c.srv, 2*time.Second)
	c.srv = nil
}

// Hold keeps the process alive (and the debug server scrapeable) for d,
// or until ctx is cancelled (SIGINT). No-op without a debug server.
func (c *CLI) Hold(ctx context.Context, d time.Duration) {
	if c == nil || c.srv == nil || d <= 0 {
		return
	}
	fmt.Printf("holding debug server for %v (interrupt to exit sooner)\n", d)
	select {
	case <-ctx.Done():
	case <-time.After(d):
	}
}

// CloseAudit flushes and closes the audit file, fsyncing first so an
// audit trail that claims to exist survives the machine failing right
// after exit — the same durability discipline as the WAL. Surfaces any
// write error the sink latched mid-run. Safe on nil and idempotent.
func (c *CLI) CloseAudit() {
	if c == nil || c.auditFile == nil {
		return
	}
	f := c.auditFile
	c.auditFile = nil
	if c.Observer != nil && c.Observer.Events != nil {
		if err := c.Observer.Events.Err(); err != nil {
			log.Printf("-audit: %v", err)
		}
	}
	if err := f.Sync(); err != nil {
		log.Printf("-audit: %v", err)
	}
	if err := f.Close(); err != nil {
		log.Printf("-audit: %v", err)
	}
}

// Finish ends the trace and emits the requested artifacts: the trace JSON
// (written atomically — temp + fsync + rename — so a crash mid-write can
// never leave a torn half-JSON artifact), the human-readable stage tree,
// and the run ledger. Safe on nil.
func (c *CLI) Finish() {
	if c == nil {
		return
	}
	o := c.Observer
	o.Trace.Finish()
	if c.cfg.TracePath != "" {
		data, err := o.Trace.JSON()
		if err != nil {
			log.Printf("-trace: %v", err)
		} else if err := durable.WriteFileAtomic(c.cfg.TracePath, data, 0o644); err != nil {
			log.Printf("-trace: %v", err)
		} else {
			fmt.Printf("stage trace written to %s\n", c.cfg.TracePath)
		}
	}
	if c.cfg.TraceTree {
		fmt.Print(o.Trace.Tree())
	}
	if c.cfg.Runs {
		data, err := o.Ledger.JSON()
		if err != nil {
			log.Printf("-runs: %v", err)
		} else {
			fmt.Printf("run ledger:\n%s\n", data)
		}
	}
}
