package obs

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIShutdownStepOrder pins the helper's teardown sequence: debug
// server stop, THEN audit close. Reordering would drop the shutdown's own
// events from the audit trail while the process still looks alive.
// Commands with more state (cmd/stream) splice their steps before these
// two; this test is the contract their orders build on.
func TestCLIShutdownStepOrder(t *testing.T) {
	var got []string
	step := func(name string) func() {
		return func() { got = append(got, name) }
	}
	for _, f := range CLIShutdownSteps(step("stop-server"), step("close-audit")) {
		f()
	}
	want := []string{"stop-server", "close-audit"}
	if len(got) != len(want) {
		t.Fatalf("ran %d steps, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d = %q, want %q (full order %v)", i, got[i], want[i], got)
		}
	}
}

// TestStartCLIDisabled: with no feature requested, the helper returns a
// nil CLI whose whole lifecycle is a safe no-op — commands need no
// branching.
func TestStartCLIDisabled(t *testing.T) {
	c, err := StartCLI(CLIConfig{Namespace: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if c != nil {
		t.Fatalf("disabled config built a CLI: %+v", c)
	}
	if o := c.Obs(); o != nil {
		t.Fatalf("nil CLI returned observer %v", o)
	}
	c.Hold(context.Background(), 0)
	c.Finish()
	c.Shutdown()
	c.Shutdown() // idempotent
}

// TestStartCLILifecycle drives the full helper lifecycle on a private mux:
// audit file created and closed fsynced, /metrics and /debug/runs mounted,
// Finish emits without panicking, Shutdown is idempotent.
func TestStartCLILifecycle(t *testing.T) {
	dir := t.TempDir()
	auditPath := filepath.Join(dir, "audit.jsonl")
	mux := http.NewServeMux()
	c, err := StartCLI(CLIConfig{
		Namespace: "clitest",
		AuditPath: auditPath,
		Runs:      true,
		DebugAddr: "127.0.0.1:0", // port taken over by httptest below
		Mux:       mux,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c == nil || c.Obs() == nil {
		t.Fatal("enabled config returned nil CLI/observer")
	}
	if c.Obs().Events == nil {
		t.Fatal("audit sink not wired")
	}
	if c.Obs().Ledger == nil {
		t.Fatal("run ledger not wired")
	}

	// The mounted handlers answer on the helper's mux regardless of the
	// listener the helper itself opened.
	c.Obs().Counter("clitest.hits").Inc()
	ts := httptest.NewServer(mux)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 1<<16)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body[:n]), "clitest_clitest_hits") {
		t.Fatalf("/metrics = %d %q", resp.StatusCode, body[:n])
	}
	resp, err = http.Get(ts.URL + "/debug/runs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/runs = %d", resp.StatusCode)
	}

	c.Obs().Events.Emit(Event{Type: "test.event"})
	c.Finish()
	c.Shutdown()
	c.Shutdown() // second shutdown must be a no-op, not a double close

	data, err := os.ReadFile(auditPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"type":"test.event"`) {
		t.Fatalf("audit file missing emitted event: %q", data)
	}
}

// TestStartCLIUnbindableDebugAddr: a debug server that cannot bind is a
// start-up error, not a banner followed by an asynchronous log line.
func TestStartCLIUnbindableDebugAddr(t *testing.T) {
	c, err := StartCLI(CLIConfig{
		Namespace: "clitest",
		AuditPath: filepath.Join(t.TempDir(), "audit.jsonl"),
		DebugAddr: "256.0.0.1:99999",
		Mux:       http.NewServeMux(),
	})
	if err == nil || c != nil {
		t.Fatalf("StartCLI = %v, %v; want a bind error and no CLI", c, err)
	}
	if !strings.Contains(err.Error(), "-debug-addr") {
		t.Errorf("error does not name the flag: %v", err)
	}
}
