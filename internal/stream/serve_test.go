package stream

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"repro/internal/detect"
	"repro/internal/faultinject"
	"repro/internal/serve"
	"repro/internal/synth"
)

// TestStreamServeEpochSwap publishes every committed sweep of a streaming
// detector into a verdict store and drives the full serving lifecycle: the
// first committed sweep publishes epoch 1, queries racing the second sweep
// keep answering from epoch 1 whole (never a half-built epoch 2, never a
// mix), and after the swap every query answers from epoch 2 with the
// streamed attack visible. Run under -race this is the end-to-end torn-read
// test for the detector→store→server path.
func TestStreamServeEpochSwap(t *testing.T) {
	ds := synth.MustGenerate(synth.SmallConfig())
	background, attack := splitDataset(ds)

	d, err := New(background, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	store := serve.NewStore(nil)
	publishTo(d, store)
	srv := serve.NewServer(store, serve.Options{})

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

	res1 := mustSweep(t, d)
	if len(res1.Groups) != 0 {
		t.Fatalf("clean background produced %d groups", len(res1.Groups))
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
		d.AddClick(r.UserID, r.ItemID, r.Clicks)
	}
	res2, err := sweep(d)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	if len(res2.Groups) == 0 {
		t.Fatal("streamed attack not detected")
	}
	if got := store.Epoch(); got != 2 {
		t.Fatalf("epoch after second sweep = %d, want 2", got)
	}

	// Post-swap queries answer from epoch 2 and match the result oracle.
	suspicious := make(map[uint32]bool)
	for _, u := range res2.Users() {
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
			t.Fatalf("user %d: served verdict %v, result says %v", id, nr.Suspicious, suspicious[id])
		}
	}
	if !suspicious[probe] {
		t.Fatalf("probe attacker %d not in the result's suspicious set", probe)
	}
}

// TestStreamServeReadsTheExaminedGraph: a result and the epoch published
// from it carry evidence from the graph the detection examined, not from
// clicks streamed while it ran. Clicks are injected mid-detection through a
// fault site that fires after the snapshot is taken; every served group and
// node verdict must equal serve.Compile(snapshot, result). A sweep publishes
// through OnCommit; a full detection commits nothing, so its result is
// compiled here against the live graph, which already holds the injected
// clicks.
func TestStreamServeReadsTheExaminedGraph(t *testing.T) {
	ds := synth.MustGenerate(synth.SmallConfig())
	p := smallParams()
	for name, tc := range map[string]struct {
		site   string
		detect func(*Detector, *serve.Store) (*detect.Result, error)
	}{
		"Sweep": {"stream.sweep", func(d *Detector, _ *serve.Store) (*detect.Result, error) {
			return sweep(d)
		}},
		"FullSweep": {"core.extraction", func(d *Detector, store *serve.Store) (*detect.Result, error) {
			res, err := d.FullDetectContext(context.Background())
			if err == nil {
				_ = store.Publish(serve.Compile(d.Graph(), res, p.THot, p.TClick))
			}
			return res, err
		}},
	} {
		t.Run(name, func(t *testing.T) {
			defer faultinject.Reset()
			d, err := New(ds.Table, p)
			if err != nil {
				t.Fatal(err)
			}
			store := serve.NewStore(nil)
			publishTo(d, store)
			snapshot := d.Graph()
			a, b := ds.Groups[0], ds.Groups[1]
			faultinject.Arm(tc.site, faultinject.Fault{Times: 1, Do: func() {
				d.AddClick(a.Attackers[0], a.Targets[0], 500) // a heavier in-group edge
				d.AddClick(a.Attackers[0], b.Targets[0], 1)   // one more suspicious item clicked
			}})
			res, err := tc.detect(d, store)
			if err != nil {
				t.Fatal(err)
			}
			if d.Graph().LiveClicks() != snapshot.LiveClicks()+501 {
				t.Fatal("the mid-sweep clicks never arrived")
			}
			if len(res.Groups) < 2 {
				t.Fatalf("detected %d groups; the injected edges touch none", len(res.Groups))
			}

			bare := &detect.Result{}
			for _, grp := range res.Groups {
				bare.Groups = append(bare.Groups, detect.Group{Users: grp.Users, Items: grp.Items, Score: grp.Score})
			}
			want, got := serve.Compile(snapshot, bare, p.THot, p.TClick), store.Current()
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
			for id := uint32(0); id < uint32(snapshot.NumUsers()); id++ {
				if gg, gw := got.User(id), want.User(id); !reflect.DeepEqual(gg, gw) {
					t.Errorf("user %d: served %+v, the examined graph gives %+v", id, gg, gw)
				}
			}
			for id := uint32(0); id < uint32(snapshot.NumItems()); id++ {
				if gg, gw := got.Item(id), want.Item(id); !reflect.DeepEqual(gg, gw) {
					t.Errorf("item %d: served %+v, the examined graph gives %+v", id, gg, gw)
				}
			}
		})
	}
}
