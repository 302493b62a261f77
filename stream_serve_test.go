package fakeclick

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/stream"
)

// TestCompilePathMatchesReportPath pins the serving layer's two compile
// paths to each other: serve.Compile (what cmd/stream's sweep-commit hook
// builds, straight from the detect.Result) and Report.Index() (what the
// facade builds from its Report) must answer every query identically for
// the same detection outcome. If the derivations drift, the same detection
// would serve different verdicts depending on which binary ran it. A
// stream's first sweep is a full detection (internal/stream's
// TestFirstDetectIsFull), so the report path is a batch Detect.
func TestCompilePathMatchesReportPath(t *testing.T) {
	g, ds := syntheticGraph(t)

	// Facade path: Detect → Report → Index.
	rep, err := Detect(g, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	ixReport := rep.Index()

	// Hook path: raw stream.Detector → detect.Result → serve.Compile,
	// with the same explicit thresholds smallConfig resolves to.
	params := core.DefaultParams()
	params.THot = 400
	params.TClick = 12
	inner, err := stream.New(ds.Table, params)
	if err != nil {
		t.Fatal(err)
	}
	res, err := inner.SweepContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ixCompile := serve.Compile(inner.Graph(), res, params.THot, params.TClick)

	if a, b, c := ixCompile.NumGroups(), ixReport.NumGroups(), len(rep.Groups); a != b || a != c {
		t.Fatalf("group count differs: Compile %d, Report index %d, report %d", a, b, c)
	}
	for n := 1; n <= ixReport.NumGroups(); n++ {
		ga, _ := ixCompile.Group(n)
		gb, _ := ixReport.Group(n)
		if !reflect.DeepEqual(ga, gb) {
			t.Fatalf("group %d differs:\n Compile %+v\n Report  %+v", n, ga, gb)
		}
	}
	for id := uint32(0); id < uint32(max(g.NumUsers(), g.NumItems()))+50; id++ {
		if a, b := ixCompile.User(id), ixReport.User(id); !reflect.DeepEqual(a, b) {
			t.Fatalf("user %d differs: Compile %+v, Report %+v", id, a, b)
		}
		if a, b := ixCompile.Item(id), ixReport.Item(id); !reflect.DeepEqual(a, b) {
			t.Fatalf("item %d differs: Compile %+v, Report %+v", id, a, b)
		}
	}
	if len(rep.Groups) == 0 {
		t.Fatal("workload detected nothing; equivalence was vacuous")
	}
}
