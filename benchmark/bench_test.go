package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"
)

// smokeConfig is the whole benchmark at 1:50: every workload, gate and
// metric, in a fraction of a second per run.
func smokeConfig(t *testing.T, workload string, trace bool) runConfig {
	return runConfig{Workload: workload, Seed: 1, MarketSeed: defaultMarketSeed, Seconds: 0, Trace: trace, Scale: 0.02, MinLaps: 2, OutDir: t.TempDir()}
}

func namesOf(r *runResult) []string {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestSmoke runs all four workloads, untraced and traced, and checks that
// they are correct, that the names they emit are exactly the names
// BENCHMARK.json lists, and that end-to-end metrics are never zero.
func TestSmoke(t *testing.T) {
	start := time.Now()
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var wantE2E, wantLayer []string
	for _, m := range endToEndSpecs {
		wantE2E = append(wantE2E, m.Name)
	}
	for _, m := range perLayerSpecs {
		wantLayer = append(wantLayer, m.Name)
	}
	sort.Strings(wantE2E)
	sort.Strings(wantLayer)
	for _, name := range append(append([]string{}, wantE2E...), wantLayer...) {
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q does not match %v", name, nameRE)
		}
	}

	for _, w := range workloadSpecs {
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q does not match %v", w.Name, nameRE)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
		for _, trace := range []bool{false, true} {
			r, err := run(smokeConfig(t, w.Name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d notes=%v", w.Name, trace, r.Correct, r.Attempted, r.Failed, r.Notes)
			}
			want := wantE2E
			if trace {
				want = wantLayer
			}
			if got := namesOf(r); !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v emits %v, BENCHMARK.json lists %v", w.Name, trace, got, want)
			}
			if !trace {
				for name, m := range r.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v; it must never be zero", w.Name, name, m.Value)
					}
				}
			}
		}
	}
	if d := time.Since(start); d > 5*time.Second && !raceEnabled {
		t.Errorf("smoke run took %v, budget is 5 s", d)
	}
}

// TestSpecMatchesBenchmarkJSON fails when the names, units, bounds or the
// command in ../BENCHMARK.json drift from what this build emits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk benchmarkFile
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, benchmarkSpec()) {
		t.Errorf("BENCHMARK.json differs from spec.go; regenerate it with: go run . -print-spec > ../BENCHMARK.json")
	}
}

// TestTraceSelfTimes checks the span tree: a span's children never cover
// more than the span itself, so every self time is non-negative and the
// self times of a cycle's subtree add up to the cycle's wall time.
func TestTraceSelfTimes(t *testing.T) {
	h := newHarness(smokeConfig(t, "durable_bulk", true))
	if err := runWorkload(h); err != nil {
		t.Fatal(err)
	}
	spans, self := h.trace.spans, h.trace.selfTimes()
	if len(spans) == 0 {
		t.Fatal("traced run recorded no spans")
	}
	subtree := make([]int64, len(spans))
	for i := len(spans) - 1; i >= 0; i-- { // children are recorded after their parent opens
		if self[i] < 0 {
			t.Errorf("span %d (%s, cycle %d): self time %d ns is negative", i, spans[i].Name, spans[i].Cycle, self[i])
		}
		subtree[i] += self[i]
		if p := spans[i].Parent; p >= 0 {
			if p >= i {
				t.Fatalf("span %d (%s) names a later span as its parent", i, spans[i].Name)
			}
			subtree[p] += subtree[i]
		}
	}
	cycles := 0
	for i, s := range spans {
		if s.Name == "cycle" {
			cycles++
			if subtree[i] != s.End-s.Start {
				t.Errorf("cycle %d: self times sum to %d ns, wall time is %d ns", s.Cycle, subtree[i], s.End-s.Start)
			}
		}
	}
	if cycles == 0 {
		t.Error("no cycle spans")
	}
}

// TestSameSeedSameCounts: a lap is fixed work, so two runs with one seed
// agree on every count and on verdict_f1.
func TestSameSeedSameCounts(t *testing.T) {
	counts := []string{
		"stream.clicks_in", "stream.sweeps", "stream.partial_sweeps", "stream.buffer_shed", "stream.dirty_users_p50",
		"serve.epochs", "serve.non200", "core.cache_lookups", "core.cache_hit_share", "core.groups_out_p50",
		"bipartite.residual_components_p50", "clicktable.delta_rows_p50", "durable.replayed_records", "durable.errors",
		"metrics.verdict_f1",
	}
	for _, w := range workloadSpecs {
		a, err := run(smokeConfig(t, w.Name, true))
		if err != nil {
			t.Fatal(err)
		}
		b, err := run(smokeConfig(t, w.Name, true))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range counts {
			if a.Metrics[name].Value != b.Metrics[name].Value {
				t.Errorf("%s: %s is %v on one run and %v on the next with the same seed", w.Name, name, a.Metrics[name].Value, b.Metrics[name].Value)
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}
	q1, q3 := quartiles(xs)
	if q1 != 1.75 || q3 != 5.25 { // statistics.quantiles([3,1,4,1,5,9,2,6,5,3], n=4) == [1.75, 3.5, 5.25]
		t.Errorf("quartiles = %v, %v; Python gives 1.75, 5.25", q1, q3)
	}
}
