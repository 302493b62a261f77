package fakeclick

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// durRe matches the rendered span durations ("205.84ms", "1.2µs", "0s")
// together with their right-alignment padding — both vary run to run (the
// padding tracks the duration's print width); everything else in the tree
// — span names, nesting, and attributes — is deterministic for a fixed
// workload and config.
var durRe = regexp.MustCompile(` +(\d+m)?\d+(\.\d+)?(ns|µs|ms|s)\b`)

// TestTraceTreeGolden pins the -trace-tree rendering for a fixed synthetic
// workload: the stage names, their nesting, and their attributes are part
// of the CLI surface that operators and the CI smoke scrape depend on, so
// a change must show up in review as a golden diff. Regenerate with
//
//	go test -run TestTraceTreeGolden -update .
func TestTraceTreeGolden(t *testing.T) {
	g, _ := syntheticGraph(t)
	cfg := smallConfig() // explicit THot/TClick: no data-derivation spans
	cfg.Workers = 1      // span order under the shard pool is scheduling-dependent
	cfg.Observer = NewObserver("ricd")
	if _, err := Detect(g, cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Observer.Trace.Finish()

	got := durRe.ReplaceAllString(cfg.Observer.Trace.Tree(), " DUR")
	goldenPath := filepath.Join("testdata", "trace_tree.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("trace tree drifted from golden (run with -update if intended)\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
