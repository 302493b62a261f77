package fakeclick

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/clicktable"
	"repro/internal/serve"
	"repro/internal/synth"
)

// This file is the query-equivalence harness for the online verdict
// serving layer: across the same ≥ 20 seeded workload corpus the
// detector's fixpoint driver uses (internal/core/fixpoint_test.go),
// every answer the HTTP query API gives — user, item, pair, batch — must
// be byte-identical to the answer derived by scanning the facade Report
// directly. The Report is the golden oracle; the epoch-swapped index is
// the thing under test.

// serveEquivCorpus is the shared seeded workload corpus
// (synth.EquivCorpus): small marketplaces with varied attack shapes plus
// tiny shattered-residual marketplaces, some of which detect nothing at
// all (the all-clean index is a corpus member, not a special case).
func serveEquivCorpus() []synth.Config { return synth.EquivCorpus() }

// serveEquivConfig mirrors equivParams through the facade Config: α < 1,
// relaxed size bounds, and the tiny marketplace's hot range.
func serveEquivConfig(i int, c synth.Config) Config {
	cfg := DefaultConfig()
	cfg.THot = 400
	cfg.TClick = 12
	switch i % 3 {
	case 1:
		cfg.Alpha = 0.8
	case 2:
		cfg.K1, cfg.K2 = 8, 8
	}
	if c.NumUsers < 1000 {
		cfg.THot = 200
	}
	return cfg
}

func datasetGraph(ds *synth.Dataset) *Graph {
	g := NewGraph()
	ds.Table.Each(func(r clicktable.Record) bool {
		g.AddClicks(r.UserID, r.ItemID, r.Clicks)
		return true
	})
	return g
}

// reportNodeOracle derives a node's expected verdict purely by scanning
// the report: 1-based membership over rep.Groups, risk score from the
// ranking. It shares no code with serve.Build.
func reportNodeOracle(rep *Report, kind string, id uint32) (bool, float64, []int) {
	var groups []int
	for gi, g := range rep.Groups {
		members := g.Users
		if kind == "item" {
			members = g.Items
		}
		for _, m := range members {
			if m == id {
				groups = append(groups, gi+1)
				break
			}
		}
	}
	ranked := rep.RankedUsers
	if kind == "item" {
		ranked = rep.RankedItems
	}
	score, rankedHit := 0.0, false
	for _, n := range ranked {
		if n.ID == id {
			score, rankedHit = n.Score, true
			break
		}
	}
	return len(groups) > 0 || rankedHit, score, groups
}

// reportPairOracle: a pair is in-group iff some single group contains
// both sides.
func reportPairOracle(rep *Report, user, item uint32) []int {
	var groups []int
	for gi, g := range rep.Groups {
		uin, iin := false, false
		for _, u := range g.Users {
			if u == user {
				uin = true
				break
			}
		}
		for _, v := range g.Items {
			if v == item {
				iin = true
				break
			}
		}
		if uin && iin {
			groups = append(groups, gi+1)
		}
	}
	return groups
}

func mustJSONLine(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

func queryBytes(t *testing.T, h http.Handler, method, path string, body string) (int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// TestServeMatchesReportOracle is the harness proper: for every corpus
// workload, detect once, publish the report's index, and byte-compare
// every user and item verdict the HTTP API returns against the
// report-scan oracle. Querying ids 0..NumUsers-1 (and items likewise)
// naturally covers unknown, clean and suspicious ids; a band beyond the
// id space covers never-seen ids. Pair verdicts are checked for every
// group's first in-group pair, cross-group pairs, and clean pairs; a
// batch /v1/check over sampled entries must answer byte-identically to
// the individual endpoints.
func TestServeMatchesReportOracle(t *testing.T) {
	cfgs := serveEquivCorpus()
	if len(cfgs) < 20 {
		t.Fatalf("corpus has %d workloads, want ≥ 20", len(cfgs))
	}
	totalGroups := 0
	for i, sc := range cfgs {
		i, sc := i, sc
		t.Run(fmt.Sprintf("workload%02d", i), func(t *testing.T) {
			ds := synth.MustGenerate(sc)
			g := datasetGraph(ds)
			rep, err := Detect(g, serveEquivConfig(i, sc))
			if err != nil {
				t.Fatal(err)
			}
			totalGroups += len(rep.Groups)

			store := NewVerdictStore(nil)
			if err := store.Publish(rep.Index()); err != nil {
				t.Fatal(err)
			}
			srv := NewVerdictServer(store, serve.Options{})
			epoch := store.Epoch()

			checkNodes := func(kind string, n int) {
				// n ids in the graph plus a band of never-seen ids.
				for id := uint32(0); id < uint32(n)+50; id++ {
					code, got := queryBytes(t, srv, http.MethodGet,
						fmt.Sprintf("/v1/%s/%d", kind, id), "")
					if code != http.StatusOK {
						t.Fatalf("%s %d: status %d: %s", kind, id, code, got)
					}
					susp, score, groups := reportNodeOracle(rep, kind, id)
					want := mustJSONLine(t, serve.NodeResponse{
						Kind: kind, ID: id, Suspicious: susp, Score: score,
						Groups: groups, Epoch: epoch,
					})
					if !bytes.Equal(got, want) {
						t.Fatalf("%s %d verdict diverged from report oracle:\n got %s want %s",
							kind, id, got, want)
					}
				}
			}
			checkNodes("user", g.NumUsers())
			checkNodes("item", g.NumItems())

			checkPair := func(u, v uint32) {
				code, got := queryBytes(t, srv, http.MethodGet,
					fmt.Sprintf("/v1/pair?u=%d&i=%d", u, v), "")
				if code != http.StatusOK {
					t.Fatalf("pair(%d,%d): status %d: %s", u, v, code, got)
				}
				groups := reportPairOracle(rep, u, v)
				want := mustJSONLine(t, serve.PairResponse{
					User: u, Item: v, InGroup: len(groups) > 0, Groups: groups, Epoch: epoch,
				})
				if !bytes.Equal(got, want) {
					t.Fatalf("pair(%d,%d) diverged:\n got %s want %s", u, v, got, want)
				}
			}
			// In-group pairs, cross-group pairs, and pairs with one or both
			// sides clean.
			for gi, grp := range rep.Groups {
				checkPair(grp.Users[0], grp.Items[0])
				if gi > 0 {
					checkPair(rep.Groups[0].Users[0], grp.Items[0])
					checkPair(grp.Users[0], rep.Groups[0].Items[0])
				}
				checkPair(grp.Users[0], uint32(g.NumItems())+7)
			}
			checkPair(uint32(g.NumUsers())+7, uint32(g.NumItems())+7)
			checkPair(0, 0)

			// Batch: sampled entries must answer byte-identically to the
			// individual endpoints (modulo the enclosing JSON array).
			var items []serve.CheckItem
			var wantParts [][]byte
			addNode := func(kind string, id uint32) {
				idc := id
				items = append(items, serve.CheckItem{Kind: kind, ID: &idc})
				_, b := queryBytes(t, srv, http.MethodGet, fmt.Sprintf("/v1/%s/%d", kind, id), "")
				wantParts = append(wantParts, bytes.TrimRight(b, "\n"))
			}
			addNode("user", 0)
			addNode("item", 3)
			if len(rep.Users) > 0 {
				addNode("user", rep.Users[0])
			}
			if len(rep.Groups) > 0 {
				u, v := rep.Groups[0].Users[0], rep.Groups[0].Items[0]
				items = append(items, serve.CheckItem{Kind: "pair", User: &u, Item: &v})
				_, b := queryBytes(t, srv, http.MethodGet, fmt.Sprintf("/v1/pair?u=%d&i=%d", u, v), "")
				wantParts = append(wantParts, bytes.TrimRight(b, "\n"))
			}
			body, err := json.Marshal(items)
			if err != nil {
				t.Fatal(err)
			}
			code, got := queryBytes(t, srv, http.MethodPost, "/v1/check", string(body))
			if code != http.StatusOK {
				t.Fatalf("check: status %d: %s", code, got)
			}
			want := append(append([]byte("["), bytes.Join(wantParts, []byte(","))...), ']', '\n')
			if !bytes.Equal(got, want) {
				t.Fatalf("batch answers diverged from individual endpoints:\n got %s want %s", got, want)
			}
		})
	}
	if totalGroups == 0 {
		t.Fatal("corpus detected no groups anywhere — the harness exercised only the all-clean path")
	}
}

// TestServeQuickProperties drives the two index laws with testing/quick
// over a detected report: ids outside every group and ranking are always
// clean, and recompiling the same report yields an index answering
// identically for arbitrary ids.
func TestServeQuickProperties(t *testing.T) {
	ds := synth.MustGenerate(synth.SmallConfig())
	g := datasetGraph(ds)
	rep, err := Detect(g, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	ix := rep.Index()

	suspUsers := make(map[uint32]bool)
	for _, u := range rep.Users {
		suspUsers[u] = true
	}
	unknownClean := func(id uint32) bool {
		if suspUsers[id] {
			return true // property only constrains unknown ids
		}
		v := ix.User(id)
		return !v.Suspicious && v.Score == 0 && v.Groups == nil
	}
	if err := quick.Check(unknownClean, nil); err != nil {
		t.Errorf("unknown ids must be clean: %v", err)
	}

	ix2 := rep.Index()
	recompileIdentical := func(user, item uint32) bool {
		a, b := ix.User(user), ix2.User(user)
		if a.Suspicious != b.Suspicious || a.Score != b.Score || len(a.Groups) != len(b.Groups) {
			return false
		}
		p, q := ix.Pair(user, item), ix2.Pair(user, item)
		return p.InGroup == q.InGroup && len(p.Groups) == len(q.Groups)
	}
	if err := quick.Check(recompileIdentical, nil); err != nil {
		t.Errorf("recompiling the same report must answer identically: %v", err)
	}
}
