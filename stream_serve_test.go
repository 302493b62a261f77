package fakeclick

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"repro/internal/clicktable"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/faultinject"
	"repro/internal/serve"
	"repro/internal/stream"
)

// TestStreamServeEpochSwap wires Config.Serve into a streaming detector
// and drives the full serving lifecycle: the first committed sweep
// publishes epoch 1, queries racing the second sweep keep answering from
// epoch 1 whole (never a half-built epoch 2, never a mix), and after the
// swap every query answers from epoch 2 with the streamed attack visible.
// Run under -race this is the end-to-end torn-read test for the
// detector→store→server path.
func TestStreamServeEpochSwap(t *testing.T) {
	_, ds := syntheticGraph(t)

	background := NewGraph()
	var attack []clicktable.Record
	ds.Table.Each(func(r clicktable.Record) bool {
		if int(r.UserID) >= ds.NumNormalUsers {
			attack = append(attack, r)
		} else {
			background.AddClicks(r.UserID, r.ItemID, r.Clicks)
		}
		return true
	})

	store := NewVerdictStore(nil)
	cfg := smallConfig()
	cfg.Serve = store
	sd, err := NewStreamDetector(background, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewVerdictServer(store, serve.Options{})

	queryUser := func(id uint32) (serve.NodeResponse, int) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/user/"+strconv.FormatUint(uint64(id), 10), nil))
		var nr serve.NodeResponse
		if rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &nr); err != nil {
				t.Errorf("bad verdict body: %v", err)
			}
		}
		return nr, rec.Code
	}

	// Before any sweep: explicit 503, not a silent clean verdict.
	if _, code := queryUser(0); code != http.StatusServiceUnavailable {
		t.Fatalf("pre-sweep query = %d, want 503", code)
	}

	rep1, err := sd.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep1.Groups) != 0 {
		t.Fatalf("clean background produced %d groups", len(rep1.Groups))
	}
	if got := store.Epoch(); got != 1 {
		t.Fatalf("epoch after first committed sweep = %d, want 1", got)
	}

	// An attacker id: part of the streamed attack, absent from epoch 1.
	probe := attack[0].UserID

	// Readers hammer the server while the attack streams in and the second
	// sweep runs. Contract: epochs observed monotone, and any epoch-1
	// answer must NOT know the attacker (it was compiled before the attack
	// existed) — a suspicious verdict at epoch 1 would be a torn read.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				nr, code := queryUser(probe)
				if code != http.StatusOK {
					t.Errorf("mid-sweep query = %d", code)
					return
				}
				if nr.Epoch < last {
					t.Errorf("epoch went backwards: %d after %d", nr.Epoch, last)
					return
				}
				last = nr.Epoch
				if nr.Epoch == 1 && nr.Suspicious {
					t.Errorf("epoch-1 verdict knows the attacker streamed after it was built")
					return
				}
			}
		}()
	}

	for _, r := range attack {
		sd.AddClicks(r.UserID, r.ItemID, r.Clicks)
	}
	rep2, err := sd.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	if len(rep2.Groups) == 0 {
		t.Fatal("streamed attack not detected")
	}
	if got := store.Epoch(); got != 2 {
		t.Fatalf("epoch after second sweep = %d, want 2", got)
	}

	// Post-swap queries answer from epoch 2 and match the report oracle.
	suspicious := make(map[uint32]bool)
	for _, u := range rep2.Users {
		suspicious[u] = true
	}
	for _, id := range []uint32{probe, 0, uint32(ds.NumNormalUsers) + 1} {
		nr, code := queryUser(id)
		if code != http.StatusOK {
			t.Fatalf("post-swap query %d = %d", id, code)
		}
		if nr.Epoch != 2 {
			t.Fatalf("post-swap epoch = %d, want 2", nr.Epoch)
		}
		if nr.Suspicious != suspicious[id] {
			t.Fatalf("user %d: served verdict %v, report says %v", id, nr.Suspicious, suspicious[id])
		}
	}
	if !suspicious[probe] {
		t.Fatalf("probe attacker %d not in the report's suspicious set", probe)
	}
}

// TestCompilePathMatchesReportPath pins the serving layer's two compile
// paths to each other: serve.Compile (what cmd/stream's sweep-commit hook
// builds, straight from the detect.Result) and Report.Index() (what the
// facade builds from its Report) must answer every query identically for
// the same detection outcome. If the derivations drift, the same sweep
// would serve different verdicts depending on which binary ran it.
func TestCompilePathMatchesReportPath(t *testing.T) {
	g, _ := syntheticGraph(t)

	// Facade path: StreamDetector → Report → Index.
	sd, err := NewStreamDetector(g, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sd.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	ixReport := rep.Index()

	// Hook path: raw stream.Detector → detect.Result → serve.Compile,
	// with the same explicit thresholds smallConfig resolves to.
	params := core.DefaultParams()
	params.THot = 400
	params.TClick = 12
	inner, err := stream.New(clicktable.FromGraph(g.graph()), params)
	if err != nil {
		t.Fatal(err)
	}
	res, err := inner.SweepContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ixCompile := serve.Compile(inner.Graph(), res, params.THot, params.TClick)

	if a, b := ixCompile.NumGroups(), ixReport.NumGroups(); a != b {
		t.Fatalf("group count differs: Compile %d, Report %d", a, b)
	}
	if a, b := ixCompile.NumGroups(), len(rep.Groups); a != b {
		t.Fatalf("Compile found %d groups, report has %d", a, b)
	}
	for n := 1; n <= ixReport.NumGroups(); n++ {
		ga, _ := ixCompile.Group(n)
		gb, _ := ixReport.Group(n)
		if !reflect.DeepEqual(ga, gb) {
			t.Fatalf("group %d differs:\n Compile %+v\n Report  %+v", n, ga, gb)
		}
	}
	for id := uint32(0); id < uint32(g.NumUsers())+50; id++ {
		if a, b := ixCompile.User(id), ixReport.User(id); !reflect.DeepEqual(a, b) {
			t.Fatalf("user %d differs: Compile %+v, Report %+v", id, a, b)
		}
	}
	for id := uint32(0); id < uint32(g.NumItems())+50; id++ {
		if a, b := ixCompile.Item(id), ixReport.Item(id); !reflect.DeepEqual(a, b) {
			t.Fatalf("item %d differs: Compile %+v, Report %+v", id, a, b)
		}
	}
	if len(rep.Groups) == 0 {
		t.Fatal("workload detected nothing; equivalence was vacuous")
	}
}

// TestStreamServeReadsTheExaminedGraph: a report and the epoch published
// from it carry evidence from the graph the detection examined, not from
// clicks streamed while it ran. Clicks are injected mid-detection through a
// fault site that fires after the snapshot is taken; every served group and
// node verdict must equal serve.Compile(snapshot, result).
func TestStreamServeReadsTheExaminedGraph(t *testing.T) {
	g, ds := syntheticGraph(t)
	for name, tc := range map[string]struct {
		site  string
		sweep func(*StreamDetector) (*Report, error)
	}{
		"Sweep":     {"stream.sweep", (*StreamDetector).Sweep},
		"FullSweep": {"core.extraction", (*StreamDetector).FullSweep},
	} {
		t.Run(name, func(t *testing.T) {
			defer faultinject.Reset()
			store := NewVerdictStore(nil)
			cfg := smallConfig()
			cfg.Serve = store
			sd, err := NewStreamDetector(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			snapshot := sd.inner.Graph()
			a, b := ds.Groups[0], ds.Groups[1]
			faultinject.Arm(tc.site, faultinject.Fault{Times: 1, Do: func() {
				sd.AddClicks(a.Attackers[0], a.Targets[0], 500) // a heavier in-group edge
				sd.AddClicks(a.Attackers[0], b.Targets[0], 1)   // one more suspicious item clicked
			}})
			rep, err := tc.sweep(sd)
			if err != nil {
				t.Fatal(err)
			}
			if sd.inner.Graph().LiveClicks() != snapshot.LiveClicks()+501 {
				t.Fatal("the mid-sweep clicks never arrived")
			}
			if len(rep.Groups) < 2 {
				t.Fatalf("detected %d groups; the injected edges touch none", len(rep.Groups))
			}

			res := &detect.Result{}
			for _, grp := range rep.Groups {
				res.Groups = append(res.Groups, detect.Group{Users: grp.Users, Items: grp.Items, Score: grp.Score})
			}
			want, got := serve.Compile(snapshot, res, cfg.THot, cfg.TClick), store.Current()
			if got == nil || got.NumGroups() != want.NumGroups() {
				t.Fatalf("published %v, want %d groups", got, want.NumGroups())
			}
			for n := 1; n <= want.NumGroups(); n++ {
				gw, _ := want.Group(n)
				gg, _ := got.Group(n)
				if !reflect.DeepEqual(gg, gw) {
					t.Errorf("group %d: served %+v, the examined graph gives %+v", n, gg, gw)
				}
			}
			for id := uint32(0); id < uint32(g.NumUsers()); id++ {
				if gg, gw := got.User(id), want.User(id); !reflect.DeepEqual(gg, gw) {
					t.Errorf("user %d: served %+v, the examined graph gives %+v", id, gg, gw)
				}
			}
			for id := uint32(0); id < uint32(g.NumItems()); id++ {
				if gg, gw := got.Item(id), want.Item(id); !reflect.DeepEqual(gg, gw) {
					t.Errorf("item %d: served %+v, the examined graph gives %+v", id, gg, gw)
				}
			}
		})
	}
}
