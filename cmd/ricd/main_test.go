package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/clicktable"
	"repro/internal/serve"
	"repro/internal/synth"
)

// TestMain doubles as the entry point for child-process tests: when
// RICD_MAIN=1 the test binary behaves as the ricd command itself, parsing
// os.Args the way main would, so tests exercise the real signal handling
// and teardown of a separate process.
func TestMain(m *testing.M) {
	if os.Getenv("RICD_MAIN") == "1" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// TestServeAddrServesUntilSIGTERM drives `ricd -serve-addr` from the
// operator's side: the child binds before it detects, publishes the run as
// epoch 1, answers /healthz and /v1/group/1 from it, and on SIGTERM drains
// the query server and exits 0.
func TestServeAddrServesUntilSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a child process")
	}
	in := filepath.Join(t.TempDir(), "clicks.csv")
	f, err := os.Create(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := clicktable.WriteCSV(f, synth.MustGenerate(synth.SmallConfig()).Table); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-in", in, "-thot", "400", "-tclick", "12", "-serve-addr", "127.0.0.1:0")
	cmd.Env = append(os.Environ(), "RICD_MAIN=1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The banner carries the port the kernel picked; keep draining stdout
	// afterwards so the child never blocks on a full pipe.
	addr := make(chan string, 1)
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "verdict server on "); ok {
				select {
				case addr <- strings.Fields(rest)[0]:
				default:
				}
			}
		}
	}()
	var base string
	select {
	case a := <-addr:
		base = "http://" + a
	case <-scanDone:
		t.Fatal("child exited without announcing its verdict server")
	}

	getJSON := func(path string, v any) int {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode
	}
	var health serve.HealthResponse
	for health.Epoch == 0 {
		if ctx.Err() != nil {
			t.Fatal("the run never published an epoch")
		}
		time.Sleep(10 * time.Millisecond)
		getJSON("/healthz", &health)
	}
	if health.Status != "serving" || health.Epoch != 1 || health.Groups == 0 {
		t.Fatalf("healthz = %+v, want serving epoch 1 with groups", health)
	}
	var group serve.GroupResponse
	if code := getJSON("/v1/group/1", &group); code != http.StatusOK ||
		len(group.Users) == 0 || len(group.Items) == 0 || group.Score <= 0 || group.Epoch != 1 {
		t.Fatalf("/v1/group/1 = %d %+v, want a scored group from epoch 1", code, group)
	}
	var user serve.NodeResponse
	if getJSON(fmt.Sprintf("/v1/user/%d", group.Users[0]), &user); !user.Suspicious {
		t.Fatalf("group 1's first user is served as clean: %+v", user)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	<-scanDone
	if err := cmd.Wait(); err != nil {
		t.Fatalf("child exited with %v, want a drained exit 0 after SIGTERM", err)
	}
}
