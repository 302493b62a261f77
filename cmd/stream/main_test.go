package main

import (
	"bufio"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/stream"
	"repro/internal/synth"
)

// TestMain doubles as the entry point for child-process tests: when
// STREAM_MAIN=1 the test binary behaves as the stream command itself,
// parsing os.Args the way main would. This lets tests exercise the real
// signal-handling and shutdown paths of a separate process.
func TestMain(m *testing.M) {
	if os.Getenv("STREAM_MAIN") == "1" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// TestShutdownStepOrder pins the teardown sequence documented on
// shutdownSteps: query-server drain → buffer flush → WAL close → debug
// server stop → audit close. Reordering any two steps either keeps
// serving verdicts from a process tearing its state down, loses accepted
// clicks, leaves a window where the process looks dead while owning the
// WAL, or drops the shutdown's own audit events.
func TestShutdownStepOrder(t *testing.T) {
	var got []string
	step := func(name string) func() {
		return func() { got = append(got, name) }
	}
	for _, f := range shutdownSteps(
		step("drain-serve"),
		step("flush-buffer"),
		step("close-wal"),
		step("stop-debug"),
		step("close-audit"),
	) {
		f()
	}
	want := []string{"drain-serve", "flush-buffer", "close-wal", "stop-debug", "close-audit"}
	if len(got) != len(want) {
		t.Fatalf("ran %d steps, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d = %q, want %q (full order %v)", i, got[i], want[i], got)
		}
	}
}

// writeSmallEvents writes the small synthetic marketplace's event stream to
// dir/events.csv for a child process to replay.
func writeSmallEvents(t *testing.T, dir string) (string, []synth.Event) {
	t.Helper()
	events, err := synth.EventStream(synth.MustGenerate(synth.SmallConfig()), synth.DefaultEventStreamConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "events.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := synth.WriteEvents(f, events); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, events
}

// TestUnbindableServeAddrFailsAtStartup pins the bind-then-serve contract: a
// verdict server that cannot bind is a start-up error — exit status 1, the
// reason on stderr, and not one day replayed behind a server that is not
// there.
func TestUnbindableServeAddrFailsAtStartup(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a child process")
	}
	eventsPath, _ := writeSmallEvents(t, t.TempDir())
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-events", eventsPath, "-thot", "400", "-serve-addr", "256.0.0.1:99999")
	cmd.Env = append(os.Environ(), "STREAM_MAIN=1")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("child ended with %v, want exit status 1\nstdout:\n%s\nstderr:\n%s", err, &stdout, &stderr)
	}
	if !strings.Contains(stderr.String(), "verdict server: listen") {
		t.Errorf("stderr does not name the failed listener:\n%s", &stderr)
	}
	if out := stdout.String(); strings.Contains(out, "day ") || strings.Contains(out, "verdict server on") {
		t.Errorf("child replayed or announced a server it could not bind:\n%s", out)
	}
}

// TestSIGTERMFlushesAndClosesWAL is the shutdown-ordering regression test
// from the operator's side: a child stream process ingests through a
// bounded buffer into a WAL, receives SIGTERM while holding the debug
// server, and must exit 0 having flushed every buffered click, written a
// shutdown snapshot, and closed the WAL cleanly. The parent proves it by
// reopening the durable directory: recovery must come purely from the
// snapshot (nothing torn, nothing left to replay) and hold every event.
func TestSIGTERMFlushesAndClosesWAL(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a child process")
	}
	dir := t.TempDir()
	walDir := filepath.Join(dir, "state")
	eventsPath, events := writeSmallEvents(t, dir)

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe,
		"-events", eventsPath,
		"-wal-dir", walDir,
		"-thot", "400",
		"-snapshot-every", "0", // the only snapshot is the shutdown's
		"-buffer", "64",
		"-debug-addr", "127.0.0.1:0",
		"-hold", "30s",
	)
	cmd.Env = append(os.Environ(), "STREAM_MAIN=1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Wait until the replay finished and the child is in the hold phase,
	// then deliver SIGTERM. Keep draining stdout so the child never blocks
	// on a full pipe.
	holding := make(chan struct{})
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		sc := bufio.NewScanner(stdout)
		signalled := false
		for sc.Scan() {
			if !signalled && strings.Contains(sc.Text(), "holding debug server") {
				signalled = true
				close(holding)
			}
		}
	}()
	select {
	case <-holding:
	case <-ctx.Done():
		t.Fatal("child never reached the hold phase")
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	<-scanDone
	if err := cmd.Wait(); err != nil {
		t.Fatalf("child exited with %v, want clean exit 0 after SIGTERM in hold phase", err)
	}

	// Reopen with the same parameters the child's default flags resolved to.
	params := core.DefaultParams()
	params.K1, params.K2 = 10, 10
	params.Alpha = 1.0
	params.THot = 400
	params.TClick = 12
	det, info, err := stream.Open(stream.Durability{Dir: walDir, Sync: durable.SyncNever}, params, nil)
	if err != nil {
		t.Fatalf("reopening state the child should have closed cleanly: %v", err)
	}
	defer det.Close()
	if info.TruncatedBytes != 0 {
		t.Fatalf("clean shutdown left %d torn WAL bytes", info.TruncatedBytes)
	}
	if info.SnapshotClock == 0 {
		t.Fatal("no shutdown snapshot: WAL was not snapshotted before close")
	}
	if info.Replayed != 0 {
		t.Fatalf("replayed %d WAL records past the shutdown snapshot, want 0", info.Replayed)
	}
	if got := det.Events(); got != len(events) {
		t.Fatalf("recovered %d events, want all %d (buffer not flushed before WAL close)", got, len(events))
	}
}
