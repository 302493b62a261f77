package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readRecords loads the untraced results of a JSON-lines result file,
// grouped as workload → metric → one value per run.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace {
			continue // end-to-end metrics come from untraced runs only
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// verdictOf judges B against A for one (workload, metric) pair. A change of
// the median beyond the bound is better or worse; inside the bound the pair
// is "same" only if both run sets are themselves steadier than the bound,
// and "unresolved" otherwise: a spread wider than the bound cannot show
// that nothing moved.
func verdictOf(m metricSpec, a, b []float64) (verdict string, change float64) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return "unresolved", 0
	}
	change = (mb - ma) / ma
	worse := change
	if m.Better == "higher" {
		worse = -change
	}
	spread := spreadOf(a)
	if sb := spreadOf(b); sb > spread {
		spread = sb
	}
	switch {
	case worse > m.Bound:
		return "worse", change
	case -worse > m.Bound && -worse > spread:
		return "better", change
	case spread > m.Bound:
		return "unresolved", change
	}
	return "same", change
}

// compareFiles prints one row per (workload, end-to-end metric) and reports
// whether every row came out better or same.
func compareFiles(w io.Writer, pathA, pathB string) (clean bool, err error) {
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	clean = true
	fmt.Fprintf(w, "A = %s\nB = %s\nchange is (median B − median A) ÷ median A; spread is (q3 − q1) ÷ median\n\n", pathA, pathB)
	fmt.Fprintf(w, "%-15s %-30s %-9s %36s %36s %8s %6s  %s\n", "workload", "metric", "unit", "A median [q1, q3] n", "B median [q1, q3] n", "change", "bound", "verdict")
	for _, ws := range workloadSpecs {
		for _, m := range endToEndSpecs {
			va, vb := a[ws.Name][m.Name], b[ws.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-15s %-30s %-9s missing from %s\n", ws.Name, m.Name, m.Unit, map[bool]string{true: "A", false: "B"}[len(va) == 0])
				clean = false
				continue
			}
			verdict, change := verdictOf(m, va, vb)
			if verdict == "worse" || verdict == "unresolved" {
				clean = false
			}
			fmt.Fprintf(w, "%-15s %-30s %-9s %36s %36s %+7.1f%% %5.0f%%  %s\n", ws.Name, m.Name, m.Unit, summary(va), summary(vb), change*100, m.Bound*100, verdict)
		}
	}
	return clean, nil
}

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", median(xs), q1, q3, len(xs))
}
