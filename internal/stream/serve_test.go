package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/clicktable"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/faultinject"
	"repro/internal/serve"
	"repro/internal/synth"
)

// TestStreamServeEpochSwap is the end-to-end torn-read test for the
// detector → store → server path, run under -race: readers query a streamed
// attacker while an op schedule streams the attack in and sweeps it into
// epoch 2. Epochs must never go backwards, and no epoch-1 answer may know
// the attacker, who was streamed after epoch 1 was built.
func TestStreamServeEpochSwap(t *testing.T) {
	background, attack := splitDataset(synth.MustGenerate(synth.SmallConfig()))
	r := newOpRun(t, smallParams(), Durability{}, background, false)
	r.sweep()
	srv, probe := serve.NewServer(r.store, serve.Options{}), attack[0].UserID
	target := "/v1/user/" + strconv.FormatUint(uint64(probe), 10)

	var wg sync.WaitGroup
	var stop atomic.Bool
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for last := uint64(0); !stop.Load(); {
				code, body := request(srv, http.MethodGet, target, nil)
				var nr serve.NodeResponse
				if code != http.StatusOK || json.Unmarshal(body, &nr) != nil {
					t.Errorf("mid-sweep query answered %d %s", code, body)
					return
				}
				if nr.Epoch < last || nr.Epoch == 1 && nr.Suspicious {
					t.Errorf("torn read: epoch %d after %d, attacker flagged %v (epoch 1 was built before the attack)", nr.Epoch, last, nr.Suspicious)
					return
				}
				last = nr.Epoch
			}
		}()
	}
	r.feed(attack, true)
	r.sweep()
	stop.Store(true)
	wg.Wait()
	if !r.store.Current().User(probe).Suspicious {
		t.Fatal("epoch 2 does not flag the attacker; the readers raced nothing")
	}
}

// TestStreamServeReadsTheExaminedGraph: a result and the epoch published
// from it carry evidence from the graph the detection examined, not from
// clicks streamed while it ran. The late clicks, a heavier in-group edge and
// one more suspicious item clicked, arrive through a fault site that fires
// after the detection took its graph. A first sweep that takes them is an
// op-driver schedule, so the store must serve the scan oracle over the
// clicks before them. A full detection commits nothing: its result,
// compiled against the live graph that already holds them, must read as
// its groups identified against the examined graph do.
func TestStreamServeReadsTheExaminedGraph(t *testing.T) {
	ds := synth.MustGenerate(synth.SmallConfig())
	p := smallParams()
	a, b := ds.Groups[0], ds.Groups[1]
	late := []clicktable.Record{
		{UserID: a.Attackers[0], ItemID: a.Targets[0], Clicks: 500},
		{UserID: a.Attackers[0], ItemID: b.Targets[0], Clicks: 1},
	}
	t.Run("Sweep", func(t *testing.T) {
		if res := newOpRun(t, p, Durability{}, ds.Table, false).midSweepFeed(late); len(res.Groups) < 2 {
			t.Fatalf("detected %d groups; the late clicks touch none", len(res.Groups))
		}
	})
	t.Run("FullSweep", func(t *testing.T) {
		defer faultinject.Reset()
		d, err := New(ds.Table, p)
		if err != nil {
			t.Fatal(err)
		}
		snapshot := d.Graph()
		faultinject.Arm("core.extraction", faultinject.Fault{Times: 1, Do: func() { d.AddBatch(late) }})
		res, err := d.FullDetectContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if d.Graph().LiveClicks() != snapshot.LiveClicks()+501 {
			t.Fatal("the mid-detection clicks never arrived")
		}
		if len(res.Groups) < 2 {
			t.Fatalf("detected %d groups; the late clicks touch none", len(res.Groups))
		}
		// Compile identifies a result against the graph it is given unless
		// the result arrived identified, as the one just detected did.
		serve.Compile(d.Graph(), res, p.THot, p.TClick)
		examined := &detect.Result{}
		for _, grp := range res.Groups {
			examined.Groups = append(examined.Groups, detect.Group{Users: grp.Users, Items: grp.Items})
		}
		core.Identify(snapshot, examined)
		if !bytes.Equal(resultBytes(t, res), resultBytes(t, examined)) {
			t.Fatal("the result compiled against the live graph reads clicks the detection never examined")
		}
	})
}
