// Package experiments regenerates every table and figure of the paper's
// analysis and evaluation sections on the synthetic reproduction dataset.
// Each experiment is a pure function from a Dataset (plus parameters) to a
// typed result with an ASCII rendering; cmd/experiments and the root bench
// suite drive them. The per-experiment index lives in DESIGN.md §4.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/synth"
)

// Report is a rendered experiment artifact.
type Report struct {
	ID    string // "T1", "F8a", ...
	Title string
	Text  string
}

// Params bundles the experiment-wide configuration.
type Params struct {
	// Dataset is the synthetic workload configuration.
	Dataset synth.Config
	// Detection carries the RICD parameters used everywhere (the paper's
	// Section VI-B defaults unless a sweep overrides them).
	Detection core.Params
}

// DefaultParams mirrors the paper's experimental setup at 1:1000 scale.
func DefaultParams() Params {
	return Params{
		Dataset:   synth.DefaultConfig(),
		Detection: core.DefaultParams(),
	}
}

// Experiment is one runnable artifact generator.
type Experiment struct {
	ID    string
	Title string
	Run   func(p Params) (Report, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"T1", "Table I — data scale of the click table", TableI},
		{"T2", "Table II — data statistics of the click table", TableII},
		{"F2", "Figure 2 — distribution of item and user clicks", Figure2},
		{"T3", "Table III — click record of a suspect", TableIII},
		{"T4", "Table IV — click record of an ordinary user", TableIV},
		{"T5", "Table V — suspicious vs normal item statistics", TableV},
		{"F8a", "Figure 8a — baseline comparison (precision/recall/F1)", Figure8a},
		{"F8b", "Figure 8b — baseline comparison (elapsed time)", Figure8b},
		{"T6", "Table VI — effectiveness of suspicious group screening", TableVI},
		{"F9", "Figure 9 — parameter sensitivity analysis", Figure9},
		{"F10", "Figure 10 — case study: target-item traffic timeline", Figure10},
		{"X1", "Extension — optimal crowd-worker strategy (Eqs 2-3)", StrategyOptimality},
		{"X2", "Extension — incremental detection on a day-by-day stream", Incremental},
		{"X3", "Extension — recommendation exposure before/after cleanup", Exposure},
		{"X5", "Extension — camouflage robustness", Camouflage},
		{"X6", "Extension — Zarankiewicz camouflage bound", ZarankiewiczBound},
		{"X7", "Extension — scaling study", Scale},
		{"X8", "Extension — related-work detectors", RelatedWork},
		{"X9", "Extension — the partial-label measurement artifact", PartialLabels},
	}
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every experiment, stopping at the first error.
func RunAll(p Params) ([]Report, error) {
	var out []Report
	for _, e := range All() {
		r, err := e.Run(p)
		if err != nil {
			return out, fmt.Errorf("experiment %s: %w", e.ID, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// --- rendering helpers -----------------------------------------------------

// table renders rows with aligned columns.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// sparkline renders a numeric series as a unicode bar chart.
func sparkline(xs []float64) string {
	if len(xs) == 0 {
		return ""
	}
	bars := []rune("▁▂▃▄▅▆▇█")
	max := xs[0]
	for _, x := range xs {
		if x > max {
			max = x
		}
	}
	var b strings.Builder
	for _, x := range xs {
		idx := 0
		if max > 0 {
			idx = int(x / max * float64(len(bars)-1))
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= len(bars) {
			idx = len(bars) - 1
		}
		b.WriteRune(bars[idx])
	}
	return b.String()
}

func f3(x float64) string { return fmt.Sprintf("%.3f", x) }
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }
