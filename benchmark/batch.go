package main

import (
	"context"
	"fmt"
	"runtime"
	"time"
)

// batchReplayEvery spaces the layer replay on traced laps of batch_detect.
const batchReplayEvery = 4

func runBatch(h *harness) error {
	h.cfg.LapSeconds = batchLapSeconds
	for mode, ok := h.nextLap(); ok; mode, ok = h.nextLap() {
		if err := batchLap(h, mode); err != nil {
			return err
		}
	}
	return nil
}

// batchLap is the paper's own path, repeated: click table → graph → batch
// detector (Workers 0, no cache) → compiled index → published epoch, with
// the query client reading the store the whole time (cmd/serve -resweep).
func batchLap(h *harness, mode lapMode) (err error) {
	ls := samples{}
	defer func() { h.merge(mode, ls) }()
	tr := h.tracerFor(mode)
	ctx := context.Background()

	tSetup := time.Now()
	in, err := generateBatch(h.cfg)
	if err != nil {
		return err
	}
	ls.add("synth.generate_ms", in.genMS)
	var o *Observer
	if mode == lapObserved || mode == lapAudited {
		o = newObserver(mode == lapAudited)
	}
	store := newStore(o)
	pub := &publisher{store: store, params: in.params, tr: tr, ls: ls, parent: -1, cycle: -1}
	server := newServer(store, nil, o)
	reps := mode.cycles(scaled(batchLapReps, h.cfg.Scale, 4))

	// rep is one click-table → served-epoch pass.
	var first *Result
	rep := func(c int) error {
		t0 := time.Now()
		cs := tr.open("cycle", -1, c, t0)
		g := in.table.ToGraph()
		t1 := time.Now()
		tr.record("bipartite.rebuild", cs, c, t0, t1)
		res, derr := batchDetect(ctx, g, in.params, o)
		t2 := time.Now()
		tr.record("core.detect", cs, c, t1, t2)
		h.attempted++
		if derr != nil || res.Partial {
			return fmt.Errorf("rep %d: detection failed: %v", c, derr)
		}
		pub.parent, pub.cycle = cs, c
		pub.publish(res, g)
		tr.close(cs, pub.publishedAt)
		ls.add("c2v_ms", ms(pub.publishedAt.Sub(t0)))
		ls.add("full_refresh_ms", ms(pub.publishedAt.Sub(t1)))
		ls.add("bipartite.rebuild_ms", ms(t1.Sub(t0)))
		ls.add("core.detect_ms", ms(t2.Sub(t1)))
		if first == nil {
			first = res
		} else if !sameGroups(res.Groups, first.Groups) {
			h.mismatch("rep %d: groups differ from the first repetition", c)
		}
		ls.add("cycle_ms", ms(time.Since(t0)))
		if tr != nil && c%batchReplayEvery == batchReplayEvery-1 {
			if _, _, rerr := replayLayers(ctx, tr, ls, c, g, in.params); rerr != nil {
				return rerr
			}
			// the serial twin of the detection just timed, for the speed-up
			p1 := in.params
			p1.Workers = 1
			t3 := time.Now()
			res1, derr := batchDetect(ctx, g, p1, nil)
			t4 := time.Now()
			tr.record("core.detect_w1", -1, c, t3, t4)
			ls.add("core.detect_w1_ms", ms(t4.Sub(t3)))
			if derr != nil || !sameGroups(res1.Groups, first.Groups) {
				h.mismatch("rep %d: Workers=1 groups differ from Workers=0 (%v)", c, derr)
			}
		}
		return nil
	}

	// The first epoch has to exist before the query client starts; that pass
	// is also what a restarted batch server pays before its first verdict.
	if err := rep(-1); err != nil {
		return err
	}
	ls.add("setup_s", time.Since(tSetup).Seconds())
	ls["recover_ms"] = append(ls["recover_ms"], ls["c2v_ms"]...)
	for _, k := range []string{"c2v_ms", "cycle_ms", "full_refresh_ms", "bipartite.rebuild_ms", "core.detect_ms"} {
		delete(ls, k)
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	qc, err := startQueryClient(server, in.body)
	if err != nil {
		return err
	}
	tTimed := time.Now()
	for c := 0; c < reps && err == nil; c++ {
		err = rep(c)
	}
	wall := time.Since(tTimed)
	qc.finish(h, ls)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	ls.add("clicks_per_s", float64(reps*in.table.Len())/wall.Seconds())
	if mode.full() {
		h.count["lap_clicks"] = float64(reps * in.table.Len())
	}
	ls.add("alloc_mb_per_cycle", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6/float64(reps))
	if h.reported(mode) {
		h.count["serve.epochs"] += float64(store.Epoch())
	}
	if !mode.full() {
		return nil
	}

	if pub.failed > 0 {
		h.mismatch("%d publishes failed", pub.failed)
	}
	h.attempted++
	if !sameGroups(indexGroups(store.Current()), first.Groups) {
		h.mismatch("served epoch differs from the detection that was published")
	}
	h.closeLap(ls, tr != nil, first, in.truth, server, store, in.body, in.entries)
	runtime.GC()
	return nil
}
